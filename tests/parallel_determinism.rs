//! Workspace-level determinism guarantees of the parallel execution engine:
//! `par_map` preserves input order, and the parallel compile pipeline emits
//! byte-identical programs for every worker count — including when the count
//! comes from the `POWERMOVE_THREADS` environment variable.

use powermove_exec::{Parallelism, ThreadPool, THREADS_ENV};
use powermove_suite::benchmarks::{generate, BenchmarkFamily};
use powermove_suite::hardware::Architecture;
use powermove_suite::powermove::{CompilerBackend, CompilerConfig, PowerMoveCompiler};
use powermove_suite::schedule::CompiledProgram;

/// Serializes the observable program content (layout + instruction stream +
/// deterministic metadata), excluding wall-clock pass timings. Delegates to
/// the canonical form shared with the compile service's content cache.
fn program_bytes(program: &CompiledProgram) -> String {
    powermove_suite::schedule::canonical_program_bytes(program)
}

fn compile_with_threads(family: BenchmarkFamily, n: u32, threads: usize) -> CompiledProgram {
    let instance = generate(family, n, 20250);
    let arch = Architecture::for_qubits(instance.num_qubits);
    PowerMoveCompiler::new(CompilerConfig::default().with_threads(threads))
        .compile(&instance.circuit, &arch)
        .expect("benchmark compiles")
}

#[test]
fn par_map_preserves_input_order() {
    for threads in [1, 2, 4, 8] {
        let pool = ThreadPool::new(Parallelism::fixed(threads));
        let items: Vec<u64> = (0..500).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 7 + 3).collect();
        let mapped = pool.par_map(items, |x| {
            // Skew latency so completion order differs from input order.
            if x % 11 == 0 {
                std::thread::yield_now();
            }
            x * 7 + 3
        });
        assert_eq!(mapped, expected, "threads={threads}");
    }
}

#[test]
fn parallel_compile_is_byte_identical_for_every_suite_family() {
    for family in BenchmarkFamily::ALL {
        let sequential = program_bytes(&compile_with_threads(family, 16, 1));
        for threads in [2, 4] {
            let parallel = program_bytes(&compile_with_threads(family, 16, threads));
            assert_eq!(
                sequential, parallel,
                "{family}: threads=1 vs threads={threads} diverged"
            );
        }
    }
}

#[test]
fn parallel_compile_is_byte_identical_without_storage_too() {
    for family in BenchmarkFamily::ALL {
        let instance = generate(family, 12, 20250);
        let arch = Architecture::for_qubits(instance.num_qubits);
        let compile = |threads: usize| {
            let config = CompilerConfig::without_storage().with_threads(threads);
            program_bytes(
                &PowerMoveCompiler::new(config)
                    .compile(&instance.circuit, &arch)
                    .expect("benchmark compiles"),
            )
        };
        assert_eq!(compile(1), compile(4), "{family} (non-storage) diverged");
    }
}

#[test]
fn env_variable_drives_the_default_worker_count_and_output() {
    // The sole POWERMOVE_THREADS mutation in this binary (sibling tests pin
    // worker counts through CompilerConfig instead): integration-test
    // binaries run in their own process, but tests within one binary share
    // the environment, so all env assertions live in this single #[test].
    std::env::set_var(THREADS_ENV, "1");
    assert_eq!(Parallelism::from_env().threads(), 1);
    let one = program_bytes(&compile_with_threads(BenchmarkFamily::QaoaRegular3, 16, 0));

    std::env::set_var(THREADS_ENV, "4");
    assert_eq!(Parallelism::from_env().threads(), 4);
    let four = program_bytes(&compile_with_threads(BenchmarkFamily::QaoaRegular3, 16, 0));

    std::env::remove_var(THREADS_ENV);
    assert_eq!(
        one, four,
        "POWERMOVE_THREADS=1 and =4 must compile identically"
    );
}

#[test]
fn backend_trait_objects_are_shareable_across_threads() {
    // The harness compiles through &dyn CompilerBackend from many workers at
    // once; this pins the Send + Sync contract at the type level and in use.
    fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<dyn CompilerBackend>();
    assert_send_sync::<PowerMoveCompiler>();

    // Threads pinned explicitly: the default (0 = automatic) would read
    // POWERMOVE_THREADS, racing with the env-mutating test above.
    let backend = PowerMoveCompiler::new(CompilerConfig::default().with_threads(2));
    let instance = generate(BenchmarkFamily::Bv, 10, 20250);
    let arch = Architecture::for_qubits(instance.num_qubits);
    let pool = ThreadPool::new(Parallelism::fixed(4));
    let programs = pool.par_map(vec![(); 8], |()| {
        program_bytes(
            &backend
                .compile(&instance.circuit, &arch)
                .expect("compiles concurrently"),
        )
    });
    assert!(programs.windows(2).all(|w| w[0] == w[1]));
}
