//! Workspace-level integration test of the open backend pipeline: every
//! benchmark family of `powermove_benchmarks::suite` (at its smallest
//! Table 2 size, to keep debug-mode runtime bounded) is compiled under every
//! registered backend, validated against the hardware rules, and scored.
//!
//! This is the contract all later scaling work builds on: any backend
//! registered with the harness must produce hardware-valid programs on the
//! whole suite, report per-pass timings, and PowerMove's with-storage
//! configuration must not lose fidelity to the Enola baseline on
//! storage-friendly workloads.

use powermove_bench::{
    run_all, run_instance, BackendRegistry, DEFAULT_SEED, ENOLA, POWERMOVE_STORAGE,
};
use powermove_suite::benchmarks::{generate, table2_sizes, BenchmarkFamily, BenchmarkInstance};
use powermove_suite::hardware::Architecture;
use powermove_suite::schedule::validate;

/// The smallest Table 2 instance of every benchmark family.
fn smallest_suite_instances() -> Vec<BenchmarkInstance> {
    let mut smallest: Vec<(BenchmarkFamily, u32)> = Vec::new();
    for (family, n) in table2_sizes() {
        match smallest.iter_mut().find(|(f, _)| *f == family) {
            Some((_, size)) => *size = (*size).min(n),
            None => smallest.push((family, n)),
        }
    }
    smallest
        .into_iter()
        .map(|(family, n)| generate(family, n, DEFAULT_SEED))
        .collect()
}

#[test]
fn every_suite_family_compiles_and_validates_under_every_backend() {
    let registry = BackendRegistry::standard();
    for instance in smallest_suite_instances() {
        let arch = Architecture::for_qubits(instance.num_qubits);
        for entry in registry.iter() {
            let program = entry
                .backend()
                .compile(&instance.circuit, &arch)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", entry.id(), instance.name));
            validate(&program).unwrap_or_else(|e| {
                panic!(
                    "{} produced invalid program on {}: {e}",
                    entry.id(),
                    instance.name
                )
            });
            assert_eq!(
                program.cz_gate_count(),
                instance.circuit.cz_count(),
                "{} lost CZ gates on {}",
                entry.id(),
                instance.name
            );
            assert_eq!(
                program.one_qubit_gate_count(),
                instance.circuit.one_qubit_count(),
                "{} lost 1Q gates on {}",
                entry.id(),
                instance.name
            );
        }
    }
}

#[test]
fn powermove_storage_fidelity_dominates_enola_on_storage_friendly_workloads() {
    // Workloads with idle qubits, where parking in the storage zone pays:
    // exactly the regime the paper's Table 3 highlights.
    let registry = BackendRegistry::standard();
    for (family, n) in [
        (BenchmarkFamily::Bv, 30_u32),
        (BenchmarkFamily::QaoaRegular3, 30),
        (BenchmarkFamily::QsimRand, 20),
    ] {
        let instance = generate(family, n, DEFAULT_SEED);
        let enola = run_instance(&instance, 1, registry.entry(ENOLA).unwrap());
        let storage = run_instance(&instance, 1, registry.entry(POWERMOVE_STORAGE).unwrap());
        assert!(
            storage.fidelity >= enola.fidelity,
            "{}: powermove-storage {:.3e} < enola {:.3e}",
            instance.name,
            storage.fidelity,
            enola.fidelity
        );
        assert_eq!(
            storage.excitation_exposure, 0,
            "{}: storage mode left qubits exposed",
            instance.name
        );
    }
}

#[test]
fn every_backend_reports_pass_timings() {
    let registry = BackendRegistry::standard();
    let instance = generate(BenchmarkFamily::Bv, 14, DEFAULT_SEED);
    for result in run_all(&instance, 1, &registry) {
        assert!(
            !result.pass_timings.is_empty(),
            "{} reported no pass timings",
            result.compiler
        );
        assert!(
            result.pass_timings.iter().any(|t| t.pass == "stage"),
            "{} did not time its stage pass",
            result.compiler
        );
    }
}

#[test]
fn custom_backends_drop_into_the_registry() {
    use powermove_suite::powermove::{CompilerConfig, PowerMoveCompiler};

    let mut registry = BackendRegistry::standard();
    registry.register(
        "powermove-no-grouping",
        Box::new(PowerMoveCompiler::new(
            CompilerConfig::default().without_grouping(),
        )),
    );
    let instance = generate(BenchmarkFamily::Vqe, 16, DEFAULT_SEED);
    let results = run_all(&instance, 1, &registry);
    assert_eq!(results.len(), 4);
    let ungrouped = results
        .iter()
        .find(|r| r.compiler == "powermove-no-grouping")
        .expect("ablation backend ran");
    let grouped = results
        .iter()
        .find(|r| r.compiler == POWERMOVE_STORAGE)
        .expect("standard backend ran");
    assert_eq!(ungrouped.cz_gates, grouped.cz_gates);
    // Without grouping every move flies alone, so execution takes at least
    // as long.
    assert!(ungrouped.execution_time_us >= grouped.execution_time_us);
}
