//! Prints detailed schedule statistics (stages, collective moves, movement
//! time, distances) and per-pass compilation timings for one benchmark under
//! every registered compiler backend. Useful when investigating where
//! execution time — and compilation time — goes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p powermove-bench --bin diagnostics \
//!     [family] [qubits] [--repeats <n>] [--json <path>]
//! ```
//!
//! `family` is matched against the Table 2 family names (default
//! `QAOA-regular3`), `qubits` defaults to 50. `--repeats` samples each
//! backend's compile wall clock over repeat runs (default 1) and prints the
//! median with its confidence interval.

use powermove_bench::{
    score_program_sampled, take_json_path, take_usize_flag, write_json, BackendRegistry,
    RegisteredBackend, RunResult, SampleStats, DEFAULT_SEED,
};
use powermove_benchmarks::{generate, BenchmarkFamily};
use powermove_exec::ThreadPool;
use powermove_fidelity::evaluate_program;
use powermove_hardware::Architecture;
use powermove_schedule::CompiledProgram;

fn pick_family(name: &str) -> BenchmarkFamily {
    BenchmarkFamily::ALL
        .into_iter()
        .find(|f| f.to_string().to_lowercase().contains(&name.to_lowercase()))
        .unwrap_or(BenchmarkFamily::QaoaRegular3)
}

fn describe(name: &str, program: &CompiledProgram) {
    let report = evaluate_program(program).expect("compiled program is valid");
    let t = &report.trace;
    println!(
        "{name:<26} stages={:<3} move-groups={:<4} coll-moves={:<4} moved-qubits={:<4}",
        t.rydberg_stage_count,
        t.move_group_count,
        t.coll_move_count,
        t.transfer_count / 2
    );
    println!(
        "{:<26} movement={:.0} us, total distance={:.0} um, longest move={:.0} um",
        "",
        t.movement_time * 1e6,
        t.total_move_distance * 1e6,
        t.max_move_distance * 1e6
    );
    println!(
        "{:<26} T_exe={:.1} us, fidelity={:.3e} ({})",
        "",
        report.execution_time_us(),
        report.fidelity_excluding_one_qubit(),
        report.breakdown
    );
    let metadata = program.metadata();
    if !metadata.pass_timings.is_empty() {
        let total = metadata.compile_time.unwrap_or_default();
        let passes = metadata
            .pass_timings
            .iter()
            .map(|t| format!("{}={:.1}ms", t.pass, t.seconds * 1e3))
            .collect::<Vec<_>>()
            .join("  ");
        println!("{:<26} passes: {passes}  (total {:.1}ms)", "", total * 1e3);
    }
    if !metadata.counters.is_empty() {
        let counters = metadata
            .counters
            .iter()
            .map(|c| format!("{}={}", c.name, c.value))
            .collect::<Vec<_>>()
            .join("  ");
        println!("{:<26} counters: {counters}", "");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_json_path(&mut args);
    let repeats: usize = take_usize_flag(&mut args, "--repeats").unwrap_or(1).max(1);
    let family = pick_family(args.first().map(String::as_str).unwrap_or_default());
    let qubits: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(50);
    let instance = generate(family, qubits, DEFAULT_SEED);
    let arch = Architecture::for_qubits(instance.num_qubits);
    println!("benchmark: {}", instance.name);

    // Compile under every backend concurrently (sampling the wall clock
    // over repeat runs), then print and score in registration order.
    let registry = BackendRegistry::standard();
    let entries: Vec<&RegisteredBackend> = registry.iter().collect();
    let programs = ThreadPool::from_env().par_map(entries, |entry| {
        let mut samples = Vec::with_capacity(repeats);
        let mut first_program = None;
        for _ in 0..repeats {
            let start = std::time::Instant::now();
            let program = entry
                .backend()
                .compile(&instance.circuit, &arch)
                .unwrap_or_else(|e| panic!("{} compiles: {e}", entry.id()));
            let measured = start.elapsed().as_secs_f64();
            samples.push(program.metadata().compile_time.unwrap_or(measured));
            first_program.get_or_insert(program);
        }
        (
            entry.id().to_string(),
            first_program.expect("at least one compile ran"),
            samples,
        )
    });

    let mut results: Vec<RunResult> = Vec::new();
    for (id, program, samples) in &programs {
        describe(id, program);
        if samples.len() > 1 {
            let stats = SampleStats::from_samples(samples.clone());
            let (ci_low, ci_high) = stats.ci();
            println!(
                "{:<26} compile median={:.1}ms ci=[{:.1}ms, {:.1}ms] over {} runs",
                "",
                stats.median() * 1e3,
                ci_low * 1e3,
                ci_high * 1e3,
                stats.len()
            );
        }
        if json_path.is_some() {
            results.push(score_program_sampled(
                id,
                &instance,
                program,
                samples.clone(),
            ));
        }
    }
    if let Some(path) = json_path {
        write_json(&path, &results);
    }
}
