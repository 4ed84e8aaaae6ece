//! The `paper-table2` workload.
//!
//! One request is one QASM text in and one checked, evaluated program out:
//! `qasm::from_qasm` → `PowerMoveCompiler::stage` → `PowerMoveCompiler::emit`
//! → `simulate` → `evaluate_trace`. Stage plus emit is byte-identical to
//! `powermove::compile`, and simulate plus evaluate_trace is
//! `evaluate_program`; calling the parts lets the traced run time each layer
//! from outside.

use crate::client::{self, Class, Client, FrameSource};
use crate::trace::Tracer;
use crate::{Rng, ServiceCounts};
use powermove::{
    AutoRouter, CompilerConfig, MovePass, PowerMoveCompiler, RoutePass, RoutingConfig,
    RoutingStrategyKind, StagedIr, SITES_PRUNED, SITE_SCANS,
};
use powermove_benchmarks::table2_suite;
use powermove_circuit::qasm;
use powermove_hardware::Architecture;
use powermove_schedule::{program_digest, simulate, CompiledProgram};
use std::sync::Arc;
use std::time::Instant;

/// One compile input, rendered to QASM during setup.
pub struct Input {
    /// Instance name, for messages.
    pub name: String,
    /// The circuit as OpenQASM 2.0 text.
    pub qasm: Arc<str>,
    /// CZ gates in the generated circuit.
    pub cz: usize,
    /// Target architecture.
    pub arch: Architecture,
}

/// The paper's default configuration (greedy routing, storage zone), on one
/// worker.
pub fn config() -> CompilerConfig {
    CompilerConfig::default().with_threads(1)
}

/// Generates the 23 Table 2 instances from the seed and renders them, each
/// on its architecture with one AOD.
pub fn inputs(seed: u64) -> Vec<Input> {
    table2_suite(seed)
        .into_iter()
        .map(|instance| Input {
            qasm: qasm::to_qasm(&instance.circuit).into(),
            cz: instance.circuit.cz_count(),
            arch: instance.architecture().with_num_aods(1),
            name: instance.name,
        })
        .collect()
}

/// A checked request's result.
pub struct Output {
    /// The emitted program.
    pub program: CompiledProgram,
    /// `T_exe` in microseconds.
    pub exec_us: f64,
    /// `-ln F`.
    pub log_infidelity: f64,
    /// Duration of the `emit` span in milliseconds (0 when not tracing).
    pub emit_ms: f64,
}

impl Output {
    /// Whether two compiles of one input gave the same program (its
    /// instructions and initial layout; the metadata holds pass timings) with
    /// the same `T_exe` and `-ln F` bits.
    fn same_as(&self, other: &Output) -> bool {
        self.program.instructions() == other.program.instructions()
            && self.program.initial_layout() == other.program.initial_layout()
            && self.exec_us.to_bits() == other.exec_us.to_bits()
            && self.log_infidelity.to_bits() == other.log_infidelity.to_bits()
    }
}

/// Runs one request and checks its output: the program simulates, keeps
/// the input's CZ count, and has a fidelity above `f64::MIN_POSITIVE` (so
/// `-ln F` is never clamped). Like `powermove::compile`, the request frees
/// its circuit and staged IR before it returns.
pub fn request(tr: &mut Tracer, input: &Input) -> Result<Output, String> {
    let circuit = tr
        .time("circuit.parse", || qasm::from_qasm(&input.qasm))
        .map_err(|e| format!("{}: qasm: {e}", input.name))?;
    let compiler = PowerMoveCompiler::new(config());
    let ir = tr.time("stage", || compiler.stage(&circuit));
    let emit = tr.enter("emit");
    let program = compiler.emit(&ir, &input.arch);
    tr.exit(emit);
    tr.time("release", move || drop((circuit, ir)));
    let program = program.map_err(|e| format!("{}: compile: {e}", input.name))?;
    let trace = tr
        .time("schedule.simulate", || simulate(&program))
        .map_err(|e| format!("{}: simulate: {e}", input.name))?;
    // The trace is released inside the evaluation span, not between spans.
    let params = program.architecture().params();
    let (fidelity, cz, exec_s) = tr.time("fidelity.eval", move || {
        let fidelity = powermove_fidelity::evaluate_trace(&trace, params);
        (fidelity, trace.cz_gate_count, trace.total_time)
    });
    if cz != input.cz {
        return Err(format!(
            "{}: {cz} CZ gates executed, {} in the circuit",
            input.name, input.cz
        ));
    }
    if fidelity.total() <= f64::MIN_POSITIVE {
        return Err(format!(
            "{}: fidelity {} underflows",
            input.name,
            fidelity.total()
        ));
    }
    Ok(Output {
        emit_ms: tr.duration_ms(emit),
        program,
        exec_us: exec_s * 1e6,
        log_infidelity: fidelity.log_infidelity(),
    })
}

/// Exact work counts and derived self times gathered by the traced run's
/// probes.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    /// Rydberg stages staged, over the reference set.
    pub stages: u64,
    /// Instructions emitted, over the reference set.
    pub instructions: u64,
    /// SLM↔AOD transfers emitted, over the reference set.
    pub transfers: u64,
    /// Free-site candidates scanned by the probe replays, over the
    /// reference set.
    pub site_scans: u64,
    /// Free-site candidates pruned by the probe replays, over the reference
    /// set.
    pub sites_pruned: u64,
    /// Per traced `emit`: its time outside the routing and move passes, in
    /// milliseconds.
    pub finish_ms: Vec<f64>,
}

/// The part of an `emit` span of `emit_ms` milliseconds spent outside the
/// routing and move passes, whose times the emitted program's metadata
/// records. Subtracting a separate replay instead would compare two calls
/// whose difference in cache warmth is larger than this remainder.
pub fn finish_ms(emit_ms: f64, program: &CompiledProgram) -> f64 {
    let metadata = program.metadata();
    let passes: f64 = [RoutePass::NAME, MovePass::NAME]
        .iter()
        .filter_map(|pass| metadata.pass_seconds(pass))
        .sum();
    emit_ms - passes * 1e3
}

/// Span name of a probe replay.
fn route_span(kind: RoutingStrategyKind) -> &'static str {
    match kind {
        RoutingStrategyKind::Lookahead => "route.lookahead",
        RoutingStrategyKind::MultiAod => "route.multi_aod",
        _ => "route.greedy",
    }
}

/// Replays every portfolio strategy on `ir` (`RoutingSession::replay`) under
/// its own span.
pub fn probe_routes(
    tr: &mut Tracer,
    counts: &mut ProbeCounts,
    reference: bool,
    ir: &StagedIr,
    arch: &Architecture,
) -> Result<(), String> {
    let session = PowerMoveCompiler::new(config()).session(ir);
    for (kind, strategy) in AutoRouter::from_config(&RoutingConfig::auto()).candidates() {
        let span = tr.enter(route_span(*kind));
        let replay = session.replay(arch, Arc::clone(strategy));
        tr.exit(span);
        let replay = replay.map_err(|e| format!("{} replay: {e}", kind.name()))?;
        if reference {
            for counter in replay.back_end_counters() {
                match counter.name.as_str() {
                    SITE_SCANS => counts.site_scans += counter.value,
                    SITES_PRUNED => counts.sites_pruned += counter.value,
                    _ => {}
                }
            }
        }
        // Freeing a large replay takes milliseconds; keep it inside a span.
        tr.time("release", move || drop(replay));
    }
    Ok(())
}

/// What the setup's warm-up through a throwaway daemon measured.
pub struct Warmup {
    /// Per input, its fastest frame in milliseconds by class: hit, stage
    /// hit, miss.
    pub class_ms: [Vec<f64>; 3],
    /// Per input, the digest of its cold compile.
    pub digests: Vec<String>,
    /// The throwaway service's cache counters.
    pub counts: ServiceCounts,
    /// Per mirrored hit frame: round trip minus the mirrored spans, in ms.
    pub overhead_ms: Vec<f64>,
}

/// Warm-up rounds per setup repetition, each on a fresh daemon: enough for
/// 48 cache-class samples per input over three repetitions, and for a
/// setup of a few seconds.
pub const WARM_ROUNDS: usize = 16;

/// Sends every input through a throwaway daemon three times — cold, then
/// under another AOD count (a stage-cache hit), then again (a program-cache
/// hit) — checking each reply and timing each class; [`WARM_ROUNDS`] times,
/// each with a fresh daemon. When tracing, every frame is also mirrored in
/// process.
pub fn warm_up(tr: &mut Tracer, inputs: &[Input]) -> Result<Warmup, String> {
    let unset = vec![f64::INFINITY; inputs.len()];
    let mut warm = Warmup {
        class_ms: [unset.clone(), unset.clone(), unset],
        digests: Vec::new(),
        counts: ServiceCounts::default(),
        overhead_ms: Vec::new(),
    };
    let mut id = 0;
    for _ in 0..WARM_ROUNDS {
        let mut daemon = Client::start(4 * inputs.len()).map_err(|e| format!("daemon: {e}"))?;
        let mirror_service = powermove_service::CompileService::new(4 * inputs.len());
        let mut digests = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let aods = input.arch.num_aods();
            let source = FrameSource::Qasm(Arc::clone(&input.qasm));
            let mut cold: Option<client::Reply> = None;
            for (slot, class, frame_aods) in [
                (2, Class::Miss, aods),
                (1, Class::StageHit, aods % 4 + 1),
                (0, Class::Hit, aods),
            ] {
                id += 1;
                let line = client::frame(id, &source, frame_aods);
                tr.begin_request(1_000_000 + id as u64, true);
                let span = tr.enter("daemon.round_trip");
                let start = Instant::now();
                let reply = daemon.round_trip(&line);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                tr.exit(span);
                warm.class_ms[slot][i] = warm.class_ms[slot][i].min(ms);
                let reply = reply.map_err(|e| format!("{}: {e}", input.name))?;
                if reply.cache != class.reply_cache() {
                    return Err(format!(
                        "{}: planned {class:?}, daemon answered {}",
                        input.name, reply.cache
                    ));
                }
                match (class, &cold) {
                    (Class::Miss, _) => cold = Some(reply.clone()),
                    (Class::Hit, Some(c)) if c.digest != reply.digest || c.key != reply.key => {
                        return Err(format!("{}: hit differs from its cold compile", input.name));
                    }
                    _ => {}
                }
                if tr.is_on() {
                    let mirror_root = tr.enter("mirror");
                    let mirrored = client::mirror(tr, &mirror_service, &line, class);
                    tr.exit(mirror_root);
                    if mirrored?.digest != reply.digest {
                        return Err(format!("{}: mirror digest differs", input.name));
                    }
                    if class == Class::Hit {
                        warm.overhead_ms
                            .push(tr.duration_ms(span) - tr.children_ms(mirror_root));
                    }
                }
            }
            digests.push(cold.expect("every input has a cold frame").digest);
        }
        let stats = daemon.service().stats();
        let n = inputs.len() as u64;
        if stats.cache.hits != n || stats.stage_hits != n || stats.stage_misses != n {
            return Err(format!(
                "warm-up service counters {stats:?}, expected {n} each"
            ));
        }
        warm.counts.hits += n;
        warm.counts.stage_hits += n;
        warm.counts.misses += n;
        daemon.shutdown()?;
        if warm.digests.is_empty() {
            warm.digests = digests;
        } else if warm.digests != digests {
            return Err("cold digests differ between warm-up rounds".into());
        }
    }
    Ok(warm)
}

/// Requests a window runs at least, so p90 has ten samples beyond it.
pub const MIN_REQUESTS: usize = 100;

/// One timed window's results.
#[derive(Default)]
pub struct Window {
    /// Wall time of every request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Per input, its fastest request in milliseconds.
    pub best_ms: Vec<f64>,
    /// Requests whose checks failed.
    pub failed: u64,
    /// Mean `-ln F` over one pass (every pass is identical).
    pub log_infidelity_mean: f64,
    /// Geometric mean of `T_exe` over one pass, in microseconds.
    pub exec_time_us_geomean: f64,
    /// Problems found by the cross-request checks.
    pub errors: Vec<String>,
}

/// Runs whole passes over `inputs`, in a seeded order per pass, until
/// `seconds` have elapsed and at least [`MIN_REQUESTS`] requests ran. Every
/// request is checked; every repeat of an input must give the same program
/// as its first, and after the window each first program's digest must
/// equal the daemon's cold digest. Each input's latency is its fastest
/// repeat.
///
/// With tracing on, each request is a root span and a probe span follows it
/// with `content_hash`, a replay per portfolio strategy and
/// `program_digest`; the first pass is the reference set for exact counts.
pub fn window(
    tr: &mut Tracer,
    inputs: &[Input],
    digests: &[String],
    rng: &mut Rng,
    seconds: f64,
    counts: &mut ProbeCounts,
) -> Window {
    let mut out = Window {
        best_ms: vec![f64::INFINITY; inputs.len()],
        ..Window::default()
    };
    let mut first: Vec<Option<Output>> = inputs.iter().map(|_| None).collect();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut request_id = 0_u64;
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0
        || out.latencies_ms.len() < MIN_REQUESTS
        || start.elapsed().as_secs_f64() < seconds
    {
        rng.shuffle(&mut order);
        for &i in &order {
            let input = &inputs[i];
            request_id += 1;
            tr.begin_request(request_id, pass == 0);
            let root = tr.enter("request");
            let t = Instant::now();
            let result = request(tr, input);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.exit(root);
            out.latencies_ms.push(ms);
            out.best_ms[i] = out.best_ms[i].min(ms);
            let output = match result {
                Ok(output) => output,
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e);
                    continue;
                }
            };
            if tr.is_on() {
                if let Err(e) = probe(tr, counts, pass == 0, input, &output) {
                    out.errors.push(e);
                }
            }
            match &first[i] {
                None => first[i] = Some(output),
                Some(seen) if !seen.same_as(&output) => {
                    out.failed += 1;
                    out.errors
                        .push(format!("{}: output changed between passes", input.name));
                }
                Some(_) => {}
            }
        }
        pass += 1;
    }
    let outputs: Vec<&Output> = first.iter().flatten().collect();
    for (input, (output, digest)) in inputs.iter().zip(first.iter().zip(digests)) {
        if let Some(output) = output {
            if &program_digest(&output.program) != digest {
                out.errors
                    .push(format!("{}: digest differs from the daemon's", input.name));
            }
        }
    }
    let n = outputs.len().max(1) as f64;
    out.log_infidelity_mean = outputs.iter().map(|o| o.log_infidelity).sum::<f64>() / n;
    out.exec_time_us_geomean = (outputs.iter().map(|o| o.exec_us.ln()).sum::<f64>() / n).exp();
    out
}

/// The traced run's probes beside one request. The request freed its
/// circuit and staged IR, so the probe parses and stages the input again,
/// under a span of its own.
fn probe(
    tr: &mut Tracer,
    counts: &mut ProbeCounts,
    reference: bool,
    input: &Input,
    output: &Output,
) -> Result<(), String> {
    let root = tr.enter("probe");
    let probed = probe_layers(tr, counts, reference, input, output);
    tr.exit(root);
    probed?;
    counts
        .finish_ms
        .push(finish_ms(output.emit_ms, &output.program));
    if reference {
        counts.instructions += output.program.num_instructions() as u64;
        counts.transfers += output.program.transfer_count() as u64;
    }
    Ok(())
}

fn probe_layers(
    tr: &mut Tracer,
    counts: &mut ProbeCounts,
    reference: bool,
    input: &Input,
    output: &Output,
) -> Result<(), String> {
    let rebuilt = tr.time("probe.rebuild", || {
        qasm::from_qasm(&input.qasm).map(|circuit| {
            let ir = PowerMoveCompiler::new(config()).stage(&circuit);
            (circuit, ir)
        })
    });
    let (circuit, ir) = rebuilt.map_err(|e| format!("{}: probe qasm: {e}", input.name))?;
    tr.time("content.hash", || {
        powermove::content_hash(&circuit, &input.arch, &config())
    });
    probe_routes(tr, counts, reference, &ir, &input.arch)?;
    tr.time("schedule.digest", || program_digest(&output.program));
    if reference {
        counts.stages += ir.num_stages() as u64;
    }
    tr.time("release", move || drop((circuit, ir)));
    Ok(())
}
