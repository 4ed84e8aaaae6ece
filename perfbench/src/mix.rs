//! The `service-mix` workload: JSONL compile frames through `Daemon::serve`.
//!
//! Frames follow a deterministic plan in cycles of ten: six program-cache
//! hits, two stage-cache hits (a known circuit under a new AOD count) and
//! two misses (a circuit never sent before). The whole plan fits in the
//! cache, so every planned outcome is certain. Circuits are sparse families at 32–256 qubits
//! plus QFT and QSIM at ≤ 64, sent alternately as inline QASM and as
//! benchmark specs, all with the greedy configuration.

use crate::client::{self, Class, Client, FrameSource};
use crate::compile::{finish_ms, probe_routes, ProbeCounts};
use crate::trace::Tracer;
use crate::{Rng, ServiceCounts};
use powermove::{CompilerConfig, PowerMoveCompiler};
use powermove_benchmarks::{generate, BenchmarkFamily};
use powermove_circuit::{qasm, Circuit};
use powermove_hardware::Architecture;
use powermove_schedule::{program_digest, simulate};
use powermove_service::CompileService;
use std::collections::HashMap;
use std::time::Instant;

const CYCLE: [Class; 10] = [
    Class::Miss,
    Class::Hit,
    Class::Hit,
    Class::StageHit,
    Class::Hit,
    Class::Miss,
    Class::Hit,
    Class::Hit,
    Class::StageHit,
    Class::Hit,
];

/// Cache capacity: above the 152 program keys and 76 staged circuits of a
/// pass, so nothing the plan reuses is ever evicted.
const CAPACITY: usize = 256;

/// Cycles in one pass of the plan: 76 misses, four of each rotation item.
/// Every pass replays the same frames on a fresh daemon, so each frame is
/// timed once per pass.
pub const PASS_CYCLES: usize = 2 * ITEMS;

/// Entries in the rotation of new circuits.
const ITEMS: usize = 19;

/// Rotation of `(family, qubits)` for new circuits. A QFT entry takes the
/// next unused width, since QFT ignores its seed.
fn items() -> Vec<(BenchmarkFamily, u32)> {
    use BenchmarkFamily::*;
    let mut items = Vec::new();
    for family in [QaoaRegular3, QaoaRegular4, Vqe, Bv] {
        for n in [32, 64, 128, 256] {
            items.push((family, n));
        }
    }
    items.extend([(QsimRand, 32), (QsimRand, 64), (Qft, 0)]);
    assert_eq!(items.len(), ITEMS);
    items
}

/// A circuit the plan has sent.
struct Sent {
    family: BenchmarkFamily,
    qubits: u32,
    seed: u64,
    qasm: bool,
    source: FrameSource,
    /// AOD count of its miss; its stage hit uses the next count.
    aods: usize,
}

impl Sent {
    /// Rebuilds the exact circuit the daemon compiled.
    fn circuit(&self) -> Result<Circuit, String> {
        let circuit = generate(self.family, self.qubits, self.seed).circuit;
        if self.qasm {
            qasm::from_qasm(&qasm::to_qasm(&circuit)).map_err(|e| e.to_string())
        } else {
            Ok(circuit)
        }
    }
}

/// One planned frame.
pub struct Planned {
    /// Rendered JSONL line.
    pub line: String,
    /// Expected cache outcome.
    pub class: Class,
    /// Index of the program key in the plan.
    pub key: usize,
}

/// The frame plan. The seed draws the circuits and where the rotation
/// starts; which keys are hit and staged again follows fixed rules, so every
/// seed gives the same mix of sizes in each class.
pub struct Plan {
    rng: Rng,
    items: Vec<(BenchmarkFamily, u32)>,
    qft_widths: Vec<u32>,
    sent: Vec<Sent>,
    /// `(circuit index, AODs)` of every program key, in first-use order.
    keys: Vec<(usize, usize)>,
    /// Circuits that have had their stage hit.
    restaged: usize,
    hits: usize,
}

impl Plan {
    /// A plan drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        // Every width in 16..=64 once, in an order that does not depend on
        // the seed.
        let qft_widths: Vec<u32> = (0..49).rev().map(|k| 16 + (17 * k) % 49).collect();
        let mut items = items();
        let offset = rng.below(items.len());
        items.rotate_left(offset);
        Plan {
            rng,
            items,
            qft_widths,
            sent: Vec::new(),
            keys: Vec::new(),
            restaged: 0,
            hits: 0,
        }
    }

    /// Sends a new circuit, the next in the rotation, with its miss.
    fn new_circuit(&mut self) -> usize {
        let n = self.sent.len();
        let (family, mut qubits) = self.items[n % ITEMS];
        if family == BenchmarkFamily::Qft {
            qubits = self
                .qft_widths
                .pop()
                .expect("a pass uses 4 of 49 QFT widths");
        }
        // Spec seeds travel as JSON integers, so keep them below 2^63.
        let seed = self.rng.next_u64() >> 1;
        let qasm = n & 1 == 0;
        let source = if qasm {
            let circuit = generate(family, qubits, seed).circuit;
            FrameSource::Qasm(qasm::to_qasm(&circuit).into())
        } else {
            FrameSource::Spec {
                family,
                qubits,
                seed,
            }
        };
        let aods = 1 + n % 4;
        self.sent.push(Sent {
            family,
            qubits,
            seed,
            qasm,
            source,
            aods,
        });
        self.keys.push((n, aods));
        self.keys.len() - 1
    }

    /// The next frame of the given class. A stage hit re-sends the oldest
    /// circuit not yet re-sent, under the next AOD count; a hit strides
    /// through the keys sent so far.
    pub fn next(&mut self, class: Class) -> Planned {
        let key = match class {
            Class::Miss => self.new_circuit(),
            Class::StageHit => {
                let circuit = self.restaged;
                self.restaged += 1;
                self.keys.push((circuit, self.sent[circuit].aods % 4 + 1));
                self.keys.len() - 1
            }
            Class::Hit => {
                self.hits += 1;
                (self.hits * 37) % self.keys.len()
            }
        };
        let (circuit, aods) = self.keys[key];
        // Every frame adds a key or a hit, so this numbers the frames.
        let id = (self.keys.len() + self.hits) as i64;
        Planned {
            line: client::frame(id, &self.sent[circuit].source, aods),
            class,
            key,
        }
    }
}

/// One service-mix window's results.
#[derive(Default)]
pub struct Window {
    /// Wall time of every frame's round trip, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Per plan frame, its fastest round trip over the passes.
    pub best_ms: Vec<f64>,
    /// The per-frame fastest round trips by class: hit, stage hit, miss.
    pub class_best_ms: [Vec<f64>; 3],
    /// Frames whose checks failed.
    pub failed: u64,
    /// Mean `-ln F` over the plan's misses.
    pub log_infidelity_mean: f64,
    /// Geometric mean of `T_exe` over the plan's misses, in µs.
    pub exec_time_us_geomean: f64,
    /// Cache outcomes of the first pass.
    pub counts: ServiceCounts,
    /// Per mirrored hit frame: round trip minus the mirrored spans, in ms.
    pub overhead_ms: Vec<f64>,
    /// Problems found by the cross-request checks.
    pub errors: Vec<String>,
}

fn class_slot(class: Class) -> usize {
    match class {
        Class::Hit => 0,
        Class::StageHit => 1,
        Class::Miss => 2,
    }
}

/// Warm-up passes in a setup, each on a fresh throwaway daemon: two make the
/// setup long enough (about 2 s) to time steadily.
pub const WARM_PASSES: usize = 2;

/// The setup of a run: the plan's frames, generated from the seed and
/// rendered, then sent through throwaway daemons as the warm-up.
pub fn setup(seed: u64) -> Result<(Plan, Vec<Planned>), String> {
    let mut plan = Plan::new(seed);
    let frames: Vec<Planned> = (0..PASS_CYCLES)
        .flat_map(|_| CYCLE)
        .map(|class| plan.next(class))
        .collect();
    for _ in 0..WARM_PASSES {
        let mut daemon = Client::start(CAPACITY).map_err(|e| format!("daemon: {e}"))?;
        let mut cold = HashMap::new();
        for frame in &frames {
            let reply = daemon.round_trip(&frame.line)?;
            check_reply(frame, &reply, &mut cold)?;
        }
        daemon.shutdown()?;
    }
    Ok((plan, frames))
}

/// Checks a reply's cache outcome against the plan, and a hit's key and
/// digest against the cold reply of the same key.
fn check_reply(
    frame: &Planned,
    reply: &client::Reply,
    cold: &mut HashMap<usize, client::Reply>,
) -> Result<(), String> {
    if reply.cache != frame.class.reply_cache() {
        return Err(format!(
            "frame {}: planned {:?}, daemon answered {}",
            frame.key, frame.class, reply.cache
        ));
    }
    if frame.class == Class::Hit {
        let same = |cold: &client::Reply| cold.key == reply.key && cold.digest == reply.digest;
        if !cold.get(&frame.key).is_some_and(same) {
            return Err(format!(
                "key {}: hit differs from its cold reply",
                frame.key
            ));
        }
    } else if cold.insert(frame.key, reply.clone()).is_some() {
        return Err(format!("key {}: compiled cold twice", frame.key));
    }
    Ok(())
}

/// Replays the plan's frames, one pass per fresh daemon, until `seconds`
/// have elapsed (at least one pass). Every reply is checked against the plan
/// and must repeat the first pass's exactly; each pass's service counters
/// must match the plan. Afterwards every cold key is recompiled in process
/// with `powermove::compile`: its digest must equal the daemon's, and the
/// program must simulate, keep its CZ count and have a fidelity above
/// `f64::MIN_POSITIVE`.
///
/// With tracing on, each frame's round trip is a span; the frame is
/// then mirrored in process, and cold frames get a probe span with staging,
/// a replay per portfolio strategy, emission, simulation and evaluation.
/// The first pass is the reference set.
pub fn window(
    tr: &mut Tracer,
    plan: &Plan,
    frames: &[Planned],
    seconds: f64,
    counts: &mut ProbeCounts,
) -> Result<Window, String> {
    let mut out = Window {
        best_ms: vec![f64::INFINITY; frames.len()],
        ..Window::default()
    };
    let mut first: Vec<Option<client::Reply>> = vec![None; frames.len()];
    let mut first_cold = HashMap::new();
    let start = Instant::now();
    let mut pass = 0_u64;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let reference = pass == 0;
        let mut daemon = Client::start(CAPACITY).map_err(|e| format!("daemon: {e}"))?;
        let mirror_service = CompileService::new(CAPACITY);
        let mut cold = HashMap::new();
        for (i, frame) in frames.iter().enumerate() {
            tr.begin_request(pass * frames.len() as u64 + i as u64, reference);
            let span = tr.enter("daemon.round_trip");
            let t = Instant::now();
            let reply = daemon.round_trip(&frame.line);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.exit(span);
            out.latencies_ms.push(ms);
            out.best_ms[i] = out.best_ms[i].min(ms);
            if reference {
                match frame.class {
                    Class::Hit => out.counts.hits += 1,
                    Class::StageHit => out.counts.stage_hits += 1,
                    Class::Miss => out.counts.misses += 1,
                }
            }
            let checked = reply.and_then(|reply| {
                check_reply(frame, &reply, &mut cold)?;
                match &first[i] {
                    None => first[i] = Some(reply),
                    Some(seen) if *seen != reply => {
                        return Err(format!("frame {i}: reply changed between passes"));
                    }
                    Some(_) => {}
                }
                Ok(())
            });
            if let Err(e) = checked {
                out.failed += 1;
                out.errors.push(e);
                continue;
            }
            if tr.is_on() {
                match trace_frame(tr, &mirror_service, frame, span, reference, counts) {
                    Ok(overhead) if frame.class == Class::Hit => out.overhead_ms.push(overhead),
                    Ok(_) => {}
                    Err(e) => out.errors.push(e),
                }
            }
        }
        let stats = daemon.service().stats();
        let planned = |class: Class| frames.iter().filter(|f| f.class == class).count() as u64;
        if stats.cache.hits != planned(Class::Hit)
            || stats.stage_hits != planned(Class::StageHit)
            || stats.stage_misses != planned(Class::Miss)
        {
            out.errors
                .push(format!("service counters {stats:?} disagree with the plan"));
        }
        daemon.shutdown()?;
        if reference {
            first_cold = cold;
        }
        pass += 1;
    }
    for (frame, best) in frames.iter().zip(&out.best_ms) {
        out.class_best_ms[class_slot(frame.class)].push(*best);
    }
    verify(plan, frames, &first_cold, &mut out);
    Ok(out)
}

/// Mirrors one frame in process and, for a cold frame, probes the compile
/// layers; returns the round trip minus the mirrored spans.
fn trace_frame(
    tr: &mut Tracer,
    mirror_service: &CompileService,
    frame: &Planned,
    round_trip: usize,
    reference: bool,
    counts: &mut ProbeCounts,
) -> Result<f64, String> {
    let root = tr.enter("mirror");
    let mirrored = client::mirror(tr, mirror_service, &frame.line, frame.class);
    tr.exit(root);
    let overhead = tr.duration_ms(round_trip) - tr.children_ms(root);
    let mirrored = mirrored?;
    if frame.class == Class::Hit {
        return Ok(overhead);
    }
    let compiler = PowerMoveCompiler::new(mirrored.config);
    let root = tr.enter("probe");
    let probed = probe_compile(tr, counts, reference, &compiler, &mirrored);
    tr.exit(root);
    probed.map(|()| overhead)
}

fn probe_compile(
    tr: &mut Tracer,
    counts: &mut ProbeCounts,
    reference: bool,
    compiler: &PowerMoveCompiler,
    mirrored: &client::Mirrored,
) -> Result<(), String> {
    let ir = tr.time("stage", || compiler.stage(&mirrored.circuit));
    probe_routes(tr, counts, reference, &ir, &mirrored.arch)?;
    let emit = tr.enter("emit");
    let program = compiler.emit(&ir, &mirrored.arch);
    tr.exit(emit);
    let program = program.map_err(|e| format!("probe emit: {e}"))?;
    counts
        .finish_ms
        .push(finish_ms(tr.duration_ms(emit), &program));
    let trace = tr
        .time("schedule.simulate", || simulate(&program))
        .map_err(|e| format!("probe simulate: {e}"))?;
    let params = program.architecture().params();
    tr.time("fidelity.eval", move || {
        powermove_fidelity::evaluate_trace(&trace, params)
    });
    if reference {
        counts.stages += ir.num_stages() as u64;
        counts.instructions += program.num_instructions() as u64;
        counts.transfers += program.transfer_count() as u64;
    }
    tr.time("release", move || drop((program, ir)));
    Ok(())
}

/// Recompiles every cold key of the first pass in process and checks it;
/// a failed key fails every frame that used it. Fills the deterministic
/// metrics from the plan's misses.
fn verify(plan: &Plan, frames: &[Planned], cold: &HashMap<usize, client::Reply>, out: &mut Window) {
    let config = CompilerConfig::default().with_threads(1);
    let mut keys: Vec<&usize> = cold.keys().collect();
    keys.sort_unstable();
    let mut checked: HashMap<usize, Result<(f64, f64), String>> = HashMap::new();
    for &key in keys {
        let (circuit, aods) = plan.keys[key];
        let result = plan.sent[circuit].circuit().and_then(|circuit| {
            let arch = Architecture::for_qubits(circuit.num_qubits()).with_num_aods(aods);
            let program =
                powermove::compile(&circuit, &arch, &config).map_err(|e| e.to_string())?;
            if program_digest(&program) != cold[&key].digest {
                return Err("digest differs from an in-process compile".into());
            }
            let trace = simulate(&program).map_err(|e| e.to_string())?;
            let fidelity =
                powermove_fidelity::evaluate_trace(&trace, program.architecture().params());
            if trace.cz_gate_count != circuit.cz_count() {
                return Err("CZ count changed".into());
            }
            if fidelity.total() <= f64::MIN_POSITIVE {
                return Err("fidelity underflows".into());
            }
            Ok((fidelity.log_infidelity(), trace.total_time * 1e6))
        });
        checked.insert(key, result);
    }
    let passes = out.latencies_ms.len() / frames.len().max(1);
    let (mut log_sum, mut exec_log_sum, mut n) = (0.0, 0.0, 0_u32);
    for frame in frames {
        match checked.get(&frame.key) {
            Some(Ok((log_infidelity, exec_us))) if frame.class == Class::Miss => {
                log_sum += log_infidelity;
                exec_log_sum += exec_us.ln();
                n += 1;
            }
            Some(Ok(_)) => {}
            Some(Err(e)) => {
                out.failed += passes as u64;
                out.errors.push(format!("key {}: {e}", frame.key));
            }
            // The frame's own reply failed and was already counted.
            None => {}
        }
    }
    let n = f64::from(n.max(1));
    out.log_infidelity_mean = log_sum / n;
    out.exec_time_us_geomean = (exec_log_sum / n).exp();
}
