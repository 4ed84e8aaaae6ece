//! The repository benchmark: one process, one closed-loop client, one
//! compile request per timed unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `paper-table2` and `service-mix` (see `README.md` for why
//! each exists). Every compile is pinned to one worker. With `--trace 0`
//! the last stdout line is a JSON object with the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics and the spans are written as
//! Chrome trace-event JSON under `out/` beside this package's manifest.

mod alloc;
mod client;
mod compile;
mod mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Setup repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Share of a traced root span's wall time its named children must cover.
const CLOSURE_MIN: f64 = 0.95;

/// The closure check holds for all but this share of each kind of root
/// span: on a shared machine a preemption of 50–200 µs can land in the few
/// instructions between two spans of a sub-millisecond request.
const CLOSURE_QUANTILE: f64 = 0.01;

/// Root spans whose children are layer calls: a compile request, the probes
/// beside it and the in-process mirror of a daemon frame. A daemon round
/// trip is a root of its own with no children, and is left out.
const CLOSURE_ROOTS: [&str; 3] = ["request", "probe", "mirror"];

const WORKLOADS: [&str; 2] = ["paper-table2", "service-mix"];

/// A small seeded generator (SplitMix64): the benchmark's only source of
/// randomness, so one seed fixes every input.
pub struct Rng(u64);

impl Rng {
    /// A generator drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Cache outcomes of a service.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCounts {
    /// Program-cache hits.
    pub hits: u64,
    /// Cold compiles whose staged IR was cached.
    pub stage_hits: u64,
    /// Cold compiles that staged from scratch.
    pub misses: u64,
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            // Any integer names a seed; a negative one is taken modulo 2^64.
            "--seed" => {
                let parsed = value.parse::<u64>().ok();
                let wrapped = || value.parse::<i64>().ok().map(|s| s as u64);
                seed = Some(parsed.or_else(wrapped).ok_or("bad --seed")?);
            }
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted values.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What every window reports, whichever workload ran it.
struct WindowSummary {
    latencies_ms: Vec<f64>,
    /// Per distinct request (an input, or a frame of the plan), its fastest
    /// repeat in milliseconds.
    best_ms: Vec<f64>,
    failed: u64,
    log_infidelity_mean: f64,
    exec_time_us_geomean: f64,
    errors: Vec<String>,
}

impl From<compile::Window> for WindowSummary {
    fn from(w: compile::Window) -> Self {
        WindowSummary {
            latencies_ms: w.latencies_ms,
            best_ms: w.best_ms,
            failed: w.failed,
            log_infidelity_mean: w.log_infidelity_mean,
            exec_time_us_geomean: w.exec_time_us_geomean,
            errors: w.errors,
        }
    }
}

impl WindowSummary {
    /// Requests per second of request wall time, the same measure traced
    /// and untraced.
    fn busy_rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / (self.latencies_ms.iter().sum::<f64>() / 1e3)
    }
}

/// Everything one run measured, before it becomes metrics.
struct Run {
    setup_s: Vec<f64>,
    /// Fastest latency of each distinct request by cache class: hit, stage
    /// hit, miss.
    class_ms: [Vec<f64>; 3],
    window: WindowSummary,
    /// The untraced half of a traced run.
    untraced: Option<WindowSummary>,
    service: ServiceCounts,
    overhead_ms: Vec<f64>,
    probes: compile::ProbeCounts,
    warmup_requests: u64,
}

fn run(args: &Args) -> Result<String, String> {
    let mut tr = Tracer::new(false);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let run = if args.workload == "service-mix" {
        run_mix(args, &mut tr, reps)?
    } else {
        run_compile(args, &mut tr, reps)?
    };
    let mut errors = run.window.errors.clone();
    let mut attempted = run.window.latencies_ms.len() as u64 + run.warmup_requests;
    let mut failed = run.window.failed;
    if let Some(untraced) = &run.untraced {
        attempted += untraced.latencies_ms.len() as u64;
        failed += untraced.failed;
        errors.extend(untraced.errors.iter().cloned());
        if untraced.log_infidelity_mean.to_bits() != run.window.log_infidelity_mean.to_bits()
            || untraced.exec_time_us_geomean.to_bits() != run.window.exec_time_us_geomean.to_bits()
        {
            errors.push("traced and untraced programs differ".into());
        }
    }
    let metrics = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        tr.write_chrome(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tr.len(),
            path.display()
        );
        per_layer(&tr, &run, &mut errors)
    } else {
        end_to_end(&run)?
    };
    for e in errors.iter().take(10) {
        eprintln!("perfbench: check failed: {e}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<28} {value:>14.6} {unit}");
    }
    let correct = failed == 0 && errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// A finite number as JSON; a non-finite one (a bug) as `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

fn run_compile(args: &Args, tr: &mut Tracer, reps: usize) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut class_ms: [Vec<f64>; 3] = Default::default();
    let mut prepared = None;
    tr.set_on(args.trace);
    for _ in 0..reps {
        let start = Instant::now();
        let inputs = compile::inputs(args.seed);
        let warm = compile::warm_up(tr, &inputs)?;
        setup_s.push(start.elapsed().as_secs_f64());
        for (best, rep) in class_ms.iter_mut().zip(&warm.class_ms) {
            if best.is_empty() {
                best.clone_from(rep);
            }
            for (b, r) in best.iter_mut().zip(rep) {
                *b = b.min(*r);
            }
        }
        prepared = Some((inputs, warm));
    }
    tr.set_on(false);
    let (inputs, warm) = prepared.expect("at least one setup repetition");
    let mut rng = Rng::new(args.seed);
    let mut probes = compile::ProbeCounts::default();
    let mut window = |tr: &mut Tracer, seconds: f64| -> WindowSummary {
        compile::window(tr, &inputs, &warm.digests, &mut rng, seconds, &mut probes).into()
    };
    let (untraced, traced) = if args.trace {
        let untraced = window(tr, args.seconds / 2.0);
        tr.set_on(true);
        (Some(untraced), window(tr, args.seconds / 2.0))
    } else {
        (None, window(tr, args.seconds))
    };
    Ok(Run {
        setup_s,
        class_ms,
        window: traced,
        untraced,
        service: warm.counts,
        overhead_ms: warm.overhead_ms,
        probes,
        warmup_requests: (3 * inputs.len() * compile::WARM_ROUNDS * reps) as u64,
    })
}

fn run_mix(args: &Args, tr: &mut Tracer, reps: usize) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..reps {
        let start = Instant::now();
        prepared = Some(mix::setup(args.seed)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (plan, frames) = prepared.expect("at least one setup repetition");
    let mut probes = compile::ProbeCounts::default();
    let mut window =
        |tr: &mut Tracer, seconds: f64| mix::window(tr, &plan, &frames, seconds, &mut probes);
    let (untraced, traced) = if args.trace {
        let untraced = window(tr, args.seconds / 2.0)?;
        tr.set_on(true);
        (Some(untraced), window(tr, args.seconds / 2.0)?)
    } else {
        (None, window(tr, args.seconds)?)
    };
    let summary = |w: &mix::Window| WindowSummary {
        latencies_ms: w.latencies_ms.clone(),
        best_ms: w.best_ms.clone(),
        failed: w.failed,
        log_infidelity_mean: w.log_infidelity_mean,
        exec_time_us_geomean: w.exec_time_us_geomean,
        errors: w.errors.clone(),
    };
    Ok(Run {
        setup_s,
        class_ms: traced.class_best_ms.clone(),
        window: summary(&traced),
        untraced: untraced.as_ref().map(summary),
        service: traced.counts,
        overhead_ms: traced.overhead_ms.clone(),
        probes,
        warmup_requests: (frames.len() * mix::WARM_PASSES * reps) as u64,
    })
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    eprintln!("perfbench: set-up repetitions {:.3?} s", run.setup_s);
    let best = &run.window.best_ms;
    Ok(vec![
        ("setup_s", median(&run.setup_s), "s"),
        (
            "throughput_rps",
            best.len() as f64 / (best.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        ("latency_p50_ms", quantile(best, 0.5), "ms"),
        ("latency_p90_ms", quantile(best, 0.9), "ms"),
        ("hit_p50_ms", median(&run.class_ms[0]), "ms"),
        ("stage_hit_p50_ms", median(&run.class_ms[1]), "ms"),
        ("miss_p50_ms", median(&run.class_ms[2]), "ms"),
        (
            "log_infidelity_mean",
            run.window.log_infidelity_mean,
            "nats",
        ),
        (
            "exec_time_us_geomean",
            run.window.exec_time_us_geomean,
            "us",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ])
}

fn per_layer(tr: &Tracer, run: &Run, errors: &mut Vec<String>) -> Vec<Metric> {
    let layers = tr.layers();
    let mut layer = |name: &str| -> trace::Layer {
        layers.get(name).cloned().unwrap_or_else(|| {
            errors.push(format!("no `{name}` spans were recorded"));
            trace::Layer::default()
        })
    };
    let (parse, hash, stage) = (
        layer("circuit.parse"),
        layer("content.hash"),
        layer("stage"),
    );
    let routes = [
        layer("route.greedy"),
        layer("route.lookahead"),
        layer("route.multi_aod"),
    ];
    let (emit, simulate, digest) = (
        layer("emit"),
        layer("schedule.simulate"),
        layer("schedule.digest"),
    );
    let (eval, frame_parse, reply) = (
        layer("fidelity.eval"),
        layer("protocol.parse"),
        layer("protocol.reply"),
    );
    let service = [
        layer("service.hit"),
        layer("service.stage_hit"),
        layer("service.miss"),
    ];
    let p = &run.probes;
    let mut closure = f64::INFINITY;
    for kind in CLOSURE_ROOTS {
        let coverage = tr.root_coverage(kind);
        if coverage.is_empty() {
            continue;
        }
        let p01 = quantile(&coverage, CLOSURE_QUANTILE);
        let below = coverage.iter().filter(|&&c| c < CLOSURE_MIN).count();
        eprintln!(
            "perfbench: `{kind}` roots: {below} of {} under {:.0}% covered by named spans (p01 {:.1}%, lowest {:.1}%)",
            coverage.len(),
            CLOSURE_MIN * 100.0,
            p01 * 100.0,
            coverage.iter().copied().fold(1.0, f64::min) * 100.0
        );
        if p01 < CLOSURE_MIN {
            errors.push(format!(
                "named spans cover only {:.1}% of the p01 `{kind}` root",
                p01 * 100.0
            ));
        }
        closure = closure.min(p01);
    }
    if closure.is_infinite() {
        errors.push("no root spans were recorded".into());
    }
    let count = |n: u64| n as f64;
    let untraced_rps = run
        .untraced
        .as_ref()
        .map_or(f64::NAN, WindowSummary::busy_rps);
    vec![
        ("circuit.parse_ms", median(&parse.self_ms), "ms"),
        (
            "circuit.parse_allocs",
            count(parse.reference_allocs),
            "count",
        ),
        ("content.hash_ms", median(&hash.self_ms), "ms"),
        ("content.hash_allocs", count(hash.reference_allocs), "count"),
        ("stage.ms", median(&stage.self_ms), "ms"),
        ("stage.allocs", count(stage.reference_allocs), "count"),
        ("stage.stages", count(p.stages), "count"),
        ("route.greedy_ms", median(&routes[0].self_ms), "ms"),
        ("route.lookahead_ms", median(&routes[1].self_ms), "ms"),
        ("route.multi_aod_ms", median(&routes[2].self_ms), "ms"),
        (
            "route.allocs",
            count(routes.iter().map(|r| r.reference_allocs).sum()),
            "count",
        ),
        ("route.site_scans", count(p.site_scans), "count"),
        ("route.sites_pruned", count(p.sites_pruned), "count"),
        (
            "route.prune_ratio",
            p.sites_pruned as f64 / (p.site_scans + p.sites_pruned).max(1) as f64,
            "ratio",
        ),
        ("emit.ms", median(&emit.self_ms), "ms"),
        ("emit.finish_ms", median(&p.finish_ms), "ms"),
        ("emit.instructions", count(p.instructions), "count"),
        ("emit.transfers", count(p.transfers), "count"),
        ("schedule.simulate_ms", median(&simulate.self_ms), "ms"),
        ("schedule.digest_ms", median(&digest.self_ms), "ms"),
        ("fidelity.eval_ms", median(&eval.self_ms), "ms"),
        ("protocol.parse_ms", median(&frame_parse.self_ms), "ms"),
        ("service.hit_ms", median(&service[0].self_ms), "ms"),
        ("service.stage_hit_ms", median(&service[1].self_ms), "ms"),
        ("service.miss_ms", median(&service[2].self_ms), "ms"),
        ("protocol.reply_ms", median(&reply.self_ms), "ms"),
        ("daemon.overhead_ms", median(&run.overhead_ms), "ms"),
        ("service.hits", count(run.service.hits), "count"),
        ("service.stage_hits", count(run.service.stage_hits), "count"),
        ("service.misses", count(run.service.misses), "count"),
        ("trace.closure_p01", closure, "ratio"),
        ("trace.throughput_rps", run.window.busy_rps(), "1/s"),
        ("trace.untraced_throughput_rps", untraced_rps, "1/s"),
    ]
}
