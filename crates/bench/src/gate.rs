//! The benchmark-regression gate behind the `bench-gate` binary.
//!
//! CI runs the full backend × suite matrix ([`run_matrix`]), converts the
//! results into [`BaselineEntry`] records, and compares them against the
//! checked-in `bench/baseline.json` with a configurable [`GateTolerance`]:
//!
//! * **fidelity** — higher is better, relative tolerance;
//! * **execution time** — lower is better, relative tolerance;
//! * **compile wall-clock** — lower is better, compared **statistically**:
//!   each side is a set of repeat-run samples ([`SampleStats`]), and the
//!   current median regresses only when it exceeds the baseline's
//!   confidence-interval upper bound by more than the (now modest) relative
//!   tolerance. An absolute floor still short-circuits comparisons where
//!   both medians are scheduler noise;
//! * **stages / transfers** — lower is better, exact and single-run (the
//!   compilers are deterministic, so any drift is a real behaviour change);
//! * **CZ gate count** — must match exactly (a mismatch means the benchmark
//!   suite itself changed and the baseline needs a refresh).
//!
//! Every metric gets a [`Verdict`]; entries present on only one side are
//! reported as missing. The gate passes only when there is no regression
//! and no missing entry — improvements pass (with a nudge to refresh the
//! baseline via `bench-gate --update`).
//!
//! The baseline file is **schema v2**: a top-level `version` field, one
//! `shard` label per entry, and the compile wall clock stored as a
//! `{"samples": [...], "median": ..., "ci_low": ..., "ci_high": ...}`
//! object. [`Baseline::parse`] rejects any other schema version.
//!
//! [`run_matrix`]: crate::run_matrix

use crate::harness::ShardRegistry;
use crate::stats::SampleStats;
use crate::RunResult;
use serde::{Serialize, Value};
use std::fmt;
use std::path::Path;

/// Default relative tolerance for fidelity comparisons.
pub const DEFAULT_FIDELITY_TOLERANCE: f64 = 0.02;
/// Default relative tolerance for execution-time comparisons.
pub const DEFAULT_EXEC_TIME_TOLERANCE: f64 = 0.05;
/// Default relative slack applied *on top of* the baseline's
/// confidence-interval bound for compile wall-clock comparisons. Repeat-run
/// medians absorb scheduler noise and the standard backends compile
/// single-threaded (so core counts don't skew the clock), which let this
/// drop from the pre-statistics 4× slack (`3.0`) to 50 %. The interval
/// does **not** absorb raw single-thread speed differences between
/// machines: record the baseline on hardware comparable to whatever runs
/// the gate, or widen `--compile-tol` for a heterogeneous fleet.
pub const DEFAULT_COMPILE_TIME_TOLERANCE: f64 = 0.5;
/// Compile times where both sides' **medians** sit below this floor
/// (seconds) are treated as noise and pass unconditionally. Repeat-run
/// medians let the floor sit at half a second (it used to be a full
/// second): real algorithmic regressions push compiles well past it, while
/// sub-floor wall clocks on shared CI runners remain dominated by scheduler
/// and core-count differences.
pub const DEFAULT_COMPILE_TIME_FLOOR_S: f64 = 0.5;
/// Schema version written by [`Baseline::serialize`]; see the module docs.
pub const BASELINE_VERSION: i64 = 2;

/// Tolerances applied by [`compare`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GateTolerance {
    /// Relative slack on fidelity (higher is better): a current value below
    /// `baseline * (1 - fidelity)` regresses.
    pub fidelity: f64,
    /// Relative slack on execution time (lower is better): a current value
    /// above `baseline * (1 + exec_time)` regresses.
    pub exec_time: f64,
    /// Relative slack on compile wall-clock time (lower is better), applied
    /// on top of the baseline's confidence-interval bound: the current
    /// median regresses above `ci_high * (1 + compile_time)` and improves
    /// below `ci_low * (1 - compile_time)`.
    pub compile_time: f64,
    /// Absolute compile-time floor in seconds; if both medians are below
    /// it, the comparison passes regardless of ratio.
    pub compile_time_floor_s: f64,
}

impl Default for GateTolerance {
    fn default() -> Self {
        GateTolerance {
            fidelity: DEFAULT_FIDELITY_TOLERANCE,
            exec_time: DEFAULT_EXEC_TIME_TOLERANCE,
            compile_time: DEFAULT_COMPILE_TIME_TOLERANCE,
            compile_time_floor_s: DEFAULT_COMPILE_TIME_FLOOR_S,
        }
    }
}

/// One benchmark × compiler cell of the baseline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BaselineEntry {
    /// Registry id of the backend, e.g. `"powermove-storage"`.
    pub compiler: String,
    /// Benchmark name, e.g. `"QAOA-regular3-30"`.
    pub benchmark: String,
    /// Name of the shard that gates this cell, e.g. `"table2/small"`.
    pub shard: String,
    /// Output fidelity excluding the 1Q factor.
    pub fidelity: f64,
    /// Execution time in microseconds.
    pub execution_time_us: f64,
    /// Repeat-run compilation wall-clock samples (seconds).
    pub compile_time: SampleStats,
    /// Number of Rydberg stages.
    pub stages: usize,
    /// Number of SLM↔AOD transfers.
    pub transfers: usize,
    /// Number of CZ gates (identity check: drift means the suite changed).
    pub cz_gates: usize,
}

impl BaselineEntry {
    /// Captures the gate metrics of one run under the given shard label.
    #[must_use]
    pub fn from_run(result: &RunResult, shard: &str) -> Self {
        BaselineEntry {
            compiler: result.compiler.clone(),
            benchmark: result.benchmark.clone(),
            shard: shard.to_string(),
            fidelity: result.fidelity,
            execution_time_us: result.execution_time_us,
            compile_time: SampleStats::from_samples(result.compile_time_samples.clone()),
            stages: result.stages,
            transfers: result.transfers,
            cz_gates: result.cz_gates,
        }
    }

    /// Extracts the gate metrics from a serialized [`RunResult`] tree (one
    /// `result` field of a streamed JSONL cell), labelled with `shard`.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Parse`] on missing or mistyped fields.
    pub fn from_result_value(value: &Value, shard: &str) -> Result<Self, GateError> {
        let samples = value
            .get("compile_time_samples")
            .and_then(Value::as_array)
            .ok_or_else(|| {
                GateError::Parse("result: missing `compile_time_samples` array".to_string())
            })?
            .iter()
            .map(|s| {
                s.as_f64().ok_or_else(|| {
                    GateError::Parse(
                        "result: `compile_time_samples` holds a non-number".to_string(),
                    )
                })
            })
            .collect::<Result<Vec<f64>, GateError>>()?;
        if samples.is_empty() {
            return Err(GateError::Parse(
                "result: `compile_time_samples` is empty".to_string(),
            ));
        }
        Ok(BaselineEntry {
            compiler: str_field(value, "compiler", 0)?,
            benchmark: str_field(value, "benchmark", 0)?,
            shard: shard.to_string(),
            fidelity: f64_field(value, "fidelity", 0)?,
            execution_time_us: f64_field(value, "execution_time_us", 0)?,
            compile_time: SampleStats::from_samples(samples),
            stages: usize_field(value, "stages", 0)?,
            transfers: usize_field(value, "transfers", 0)?,
            cz_gates: usize_field(value, "cz_gates", 0)?,
        })
    }
}

/// A parsed `bench/baseline.json` (schema v2; see the module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Baseline {
    /// The recorded entries, in canonical shard order.
    pub entries: Vec<BaselineEntry>,
}

impl Serialize for Baseline {
    /// Serializes as `{"version": 2, "entries": [...]}`.
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), Value::Int(BASELINE_VERSION)),
            ("entries".to_string(), self.entries.serialize()),
        ])
    }
}

/// Errors produced while loading a baseline file.
#[derive(Debug)]
pub enum GateError {
    /// The file could not be read.
    Io(String),
    /// The JSON was malformed or missing required fields.
    Parse(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Io(msg) => write!(f, "baseline I/O error: {msg}"),
            GateError::Parse(msg) => write!(f, "baseline parse error: {msg}"),
        }
    }
}

impl std::error::Error for GateError {}

fn field<'v>(object: &'v Value, key: &str, index: usize) -> Result<&'v Value, GateError> {
    object
        .get(key)
        .ok_or_else(|| GateError::Parse(format!("entry {index}: missing field `{key}`")))
}

fn f64_field(object: &Value, key: &str, index: usize) -> Result<f64, GateError> {
    field(object, key, index)?
        .as_f64()
        .ok_or_else(|| GateError::Parse(format!("entry {index}: `{key}` is not a number")))
}

fn usize_field(object: &Value, key: &str, index: usize) -> Result<usize, GateError> {
    let value = field(object, key, index)?
        .as_i64()
        .ok_or_else(|| GateError::Parse(format!("entry {index}: `{key}` is not an integer")))?;
    usize::try_from(value)
        .map_err(|_| GateError::Parse(format!("entry {index}: `{key}` is negative")))
}

fn str_field(object: &Value, key: &str, index: usize) -> Result<String, GateError> {
    Ok(field(object, key, index)?
        .as_str()
        .ok_or_else(|| GateError::Parse(format!("entry {index}: `{key}` is not a string")))?
        .to_string())
}

impl Baseline {
    /// Captures the gate metrics of a sequence of per-shard runs as a new
    /// baseline, labelling every entry with its shard.
    #[must_use]
    pub fn from_shard_runs(runs: &[(String, Vec<RunResult>)]) -> Self {
        Baseline {
            entries: runs
                .iter()
                .flat_map(|(shard, results)| {
                    results.iter().map(|r| BaselineEntry::from_run(r, shard))
                })
                .collect(),
        }
    }

    /// Parses the JSON text of a baseline file.
    ///
    /// Accepts only the v2 schema (`{"version": 2, "entries": [...]}` with
    /// `shard` labels and `compile_time` sample objects).
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Parse`] on malformed JSON, missing/mistyped
    /// fields, or a missing or unknown schema version.
    pub fn parse(text: &str) -> Result<Self, GateError> {
        let root = serde_json::from_str(text).map_err(|e| GateError::Parse(e.to_string()))?;
        let version = root
            .get("version")
            .ok_or_else(|| GateError::Parse("missing top-level `version`".to_string()))?
            .as_i64()
            .ok_or_else(|| GateError::Parse("`version` is not an integer".to_string()))?;
        if version != BASELINE_VERSION {
            return Err(GateError::Parse(format!(
                "unsupported baseline schema version {version} (expected {BASELINE_VERSION})"
            )));
        }
        let entries = root
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| GateError::Parse("missing top-level `entries` array".to_string()))?;
        let entries = entries
            .iter()
            .enumerate()
            .map(|(index, entry)| {
                let compiler = str_field(entry, "compiler", index)?;
                let benchmark = str_field(entry, "benchmark", index)?;
                let compile_time = SampleStats::from_value(field(entry, "compile_time", index)?)
                    .map_err(|e| GateError::Parse(format!("entry {index}: `compile_time` {e}")))?;
                Ok(BaselineEntry {
                    compiler,
                    benchmark,
                    shard: str_field(entry, "shard", index)?,
                    fidelity: f64_field(entry, "fidelity", index)?,
                    execution_time_us: f64_field(entry, "execution_time_us", index)?,
                    compile_time,
                    stages: usize_field(entry, "stages", index)?,
                    transfers: usize_field(entry, "transfers", index)?,
                    cz_gates: usize_field(entry, "cz_gates", index)?,
                })
            })
            .collect::<Result<Vec<_>, GateError>>()?;
        Ok(Baseline { entries })
    }

    /// Loads and parses a baseline file.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Io`] if the file cannot be read and
    /// [`GateError::Parse`] if its contents are malformed.
    pub fn load(path: &Path) -> Result<Self, GateError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| GateError::Io(format!("{}: {e}", path.display())))?;
        Baseline::parse(&text)
    }

    /// Looks up the entry for one compiler × benchmark cell.
    #[must_use]
    pub fn entry(&self, compiler: &str, benchmark: &str) -> Option<&BaselineEntry> {
        self.entries
            .iter()
            .find(|e| e.compiler == compiler && e.benchmark == benchmark)
    }

    /// The baseline restricted to the given `(compiler, benchmark)` cells.
    ///
    /// Per-shard gating scopes the baseline to the shard's **current** cell
    /// list (not the recorded `shard` labels), so a cell that migrated
    /// between shards is gated where it now lives and coverage-drift checks
    /// stay per-shard.
    #[must_use]
    pub fn scoped(&self, cells: &[(String, String)]) -> Baseline {
        Baseline {
            entries: self
                .entries
                .iter()
                .filter(|e| {
                    cells
                        .iter()
                        .any(|(c, b)| *c == e.compiler && *b == e.benchmark)
                })
                .cloned()
                .collect(),
        }
    }

    /// Merges freshly re-run entries into this baseline for
    /// `bench-gate --update`.
    ///
    /// Exactly the cells present in `fresh` are replaced; every other
    /// recorded entry is kept, so updating one shard can never silently
    /// drop another shard's entries. Additionally, stale entries are
    /// pruned:
    ///
    /// * entries recorded under a shard named in `prune_shards` whose cell
    ///   that shard no longer gates (the shard definition shrank);
    /// * when `prune_shards` covers **every** current shard (a full,
    ///   unfiltered `--update`), entries whose cell no shard gates at all —
    ///   this is what cleans out cells left behind by a removed benchmark,
    ///   whatever shard label they were recorded under.
    ///
    /// Pass an empty list — e.g. for a `--filter`ed update — to prune
    /// nothing. The result is sorted into canonical order
    /// ([`ShardRegistry::cell_rank`]), with unknown cells last in their
    /// prior relative order.
    #[must_use]
    pub fn merged_update(
        self,
        fresh: Vec<BaselineEntry>,
        prune_shards: &[String],
        shards: &ShardRegistry,
    ) -> Baseline {
        let replaced = |e: &BaselineEntry| {
            fresh
                .iter()
                .any(|f| f.compiler == e.compiler && f.benchmark == e.benchmark)
        };
        let full_prune = !shards.is_empty()
            && shards
                .iter()
                .all(|s| prune_shards.iter().any(|p| p == s.name()));
        let stale = |e: &BaselineEntry| {
            let dropped_from_recorded_shard = prune_shards.contains(&e.shard)
                && shards
                    .get(&e.shard)
                    .map_or(true, |s| !s.contains_cell(&e.compiler, &e.benchmark));
            let orphaned = full_prune && shards.shard_of_cell(&e.compiler, &e.benchmark).is_none();
            dropped_from_recorded_shard || orphaned
        };
        let mut entries: Vec<BaselineEntry> = self
            .entries
            .into_iter()
            .filter(|e| !replaced(e) && !stale(e))
            .collect();
        entries.extend(fresh);
        entries.sort_by_key(|e| {
            shards
                .cell_rank(&e.compiler, &e.benchmark)
                .unwrap_or(usize::MAX)
        });
        Baseline { entries }
    }
}

/// Outcome of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Pass,
    /// Better than the baseline by more than the tolerance. Worth a
    /// `bench-gate --update` so future regressions are caught from the new
    /// level.
    Improved,
    /// Worse than the baseline by more than the tolerance: the gate fails.
    Regressed,
}

/// One metric of one matrix cell compared against the baseline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricCheck {
    /// Registry id of the backend.
    pub compiler: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Metric name, e.g. `"fidelity"`.
    pub metric: &'static str,
    /// The recorded baseline value.
    pub baseline: f64,
    /// The value measured by this run.
    pub current: f64,
    /// The comparison outcome.
    pub verdict: Verdict,
}

/// The full comparison produced by [`compare`].
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct GateReport {
    /// Every metric comparison, in matrix order.
    pub checks: Vec<MetricCheck>,
    /// `(compiler, benchmark)` cells recorded in the baseline but absent
    /// from the current run — the suite shrank, which fails the gate.
    pub missing_in_current: Vec<(String, String)>,
    /// `(compiler, benchmark)` cells produced by the current run but absent
    /// from the baseline — new coverage that needs `--update` to be gated.
    pub missing_in_baseline: Vec<(String, String)>,
}

impl GateReport {
    /// The checks that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricCheck> {
        self.checks
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
    }

    /// The checks that improved beyond tolerance.
    pub fn improvements(&self) -> impl Iterator<Item = &MetricCheck> {
        self.checks
            .iter()
            .filter(|c| c.verdict == Verdict::Improved)
    }

    /// Whether the gate passes: no regression and no missing entry on
    /// either side. Improvements do not fail the gate.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
            && self.missing_in_current.is_empty()
            && self.missing_in_baseline.is_empty()
    }
}

/// Higher-is-better comparison with relative tolerance.
fn check_higher(baseline: f64, current: f64, tolerance: f64) -> Verdict {
    if current < baseline * (1.0 - tolerance) {
        Verdict::Regressed
    } else if current > baseline * (1.0 + tolerance) {
        Verdict::Improved
    } else {
        Verdict::Pass
    }
}

/// Lower-is-better comparison with relative tolerance.
fn check_lower(baseline: f64, current: f64, tolerance: f64) -> Verdict {
    if current > baseline * (1.0 + tolerance) {
        Verdict::Regressed
    } else if current < baseline * (1.0 - tolerance) {
        Verdict::Improved
    } else {
        Verdict::Pass
    }
}

/// Exact comparison for deterministic integer metrics (lower is better).
fn check_exact_lower(baseline: f64, current: f64) -> Verdict {
    if current > baseline {
        Verdict::Regressed
    } else if current < baseline {
        Verdict::Improved
    } else {
        Verdict::Pass
    }
}

/// Compares a matrix run against a recorded baseline.
///
/// Every `(compiler, benchmark)` cell present on both sides contributes one
/// [`MetricCheck`] per gated metric; cells present on only one side land in
/// the report's missing lists. See the module docs for the metric policy.
#[must_use]
pub fn compare(baseline: &Baseline, current: &[BaselineEntry], tol: &GateTolerance) -> GateReport {
    let mut report = GateReport::default();
    for entry in current {
        let Some(base) = baseline.entry(&entry.compiler, &entry.benchmark) else {
            report
                .missing_in_baseline
                .push((entry.compiler.clone(), entry.benchmark.clone()));
            continue;
        };
        let mut push = |metric: &'static str, baseline: f64, current: f64, verdict: Verdict| {
            report.checks.push(MetricCheck {
                compiler: entry.compiler.clone(),
                benchmark: entry.benchmark.clone(),
                metric,
                baseline,
                current,
                verdict,
            });
        };
        push(
            "fidelity",
            base.fidelity,
            entry.fidelity,
            check_higher(base.fidelity, entry.fidelity, tol.fidelity),
        );
        push(
            "execution_time_us",
            base.execution_time_us,
            entry.execution_time_us,
            check_lower(
                base.execution_time_us,
                entry.execution_time_us,
                tol.exec_time,
            ),
        );
        // Compile wall clock: statistical comparison. The current median is
        // held against the baseline's confidence interval (plus the relative
        // slack), so run-to-run scheduler noise — which the interval of the
        // recorded samples captures — does not trip the gate, while a real
        // slowdown that pushes the median past the interval does.
        let base_median = base.compile_time.median();
        let current_median = entry.compile_time.median();
        let compile_verdict = if base_median.max(current_median) < tol.compile_time_floor_s {
            Verdict::Pass
        } else {
            let (ci_low, ci_high) = base.compile_time.ci();
            if current_median > ci_high * (1.0 + tol.compile_time) {
                Verdict::Regressed
            } else if current_median < ci_low * (1.0 - tol.compile_time) {
                Verdict::Improved
            } else {
                Verdict::Pass
            }
        };
        push(
            "compile_time_s",
            base_median,
            current_median,
            compile_verdict,
        );
        push(
            "stages",
            base.stages as f64,
            entry.stages as f64,
            check_exact_lower(base.stages as f64, entry.stages as f64),
        );
        push(
            "transfers",
            base.transfers as f64,
            entry.transfers as f64,
            check_exact_lower(base.transfers as f64, entry.transfers as f64),
        );
        // CZ gates are an identity check: any drift (either direction)
        // means the generated suite changed and the baseline is stale.
        let cz_verdict = if entry.cz_gates == base.cz_gates {
            Verdict::Pass
        } else {
            Verdict::Regressed
        };
        push(
            "cz_gates",
            base.cz_gates as f64,
            entry.cz_gates as f64,
            cz_verdict,
        );
    }
    for base in &baseline.entries {
        if !current
            .iter()
            .any(|e| e.compiler == base.compiler && e.benchmark == base.benchmark)
        {
            report
                .missing_in_current
                .push((base.compiler.clone(), base.benchmark.clone()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(compiler: &str, benchmark: &str) -> BaselineEntry {
        BaselineEntry {
            compiler: compiler.to_string(),
            benchmark: benchmark.to_string(),
            shard: "table2/small".to_string(),
            fidelity: 0.8,
            execution_time_us: 1000.0,
            compile_time: SampleStats::single(2.0),
            stages: 10,
            transfers: 40,
            cz_gates: 15,
        }
    }

    fn baseline() -> Baseline {
        Baseline {
            entries: vec![entry("powermove-storage", "BV-14"), entry("enola", "BV-14")],
        }
    }

    #[test]
    fn identical_runs_pass() {
        let report = compare(&baseline(), &baseline().entries, &GateTolerance::default());
        assert!(report.passed());
        assert_eq!(report.checks.len(), 12);
        assert!(report.checks.iter().all(|c| c.verdict == Verdict::Pass));
    }

    #[test]
    fn fidelity_regression_fails_and_within_tolerance_passes() {
        let tol = GateTolerance::default();
        let mut current = baseline().entries;
        current[0].fidelity = 0.8 * (1.0 - tol.fidelity) - 1e-9;
        let report = compare(&baseline(), &current, &tol);
        assert!(!report.passed());
        let regression = report.regressions().next().unwrap();
        assert_eq!(regression.metric, "fidelity");
        assert_eq!(regression.compiler, "powermove-storage");

        current[0].fidelity = 0.8 * (1.0 - tol.fidelity) + 1e-9;
        assert!(compare(&baseline(), &current, &tol).passed());
    }

    #[test]
    fn fidelity_improvement_is_reported_but_passes() {
        let mut current = baseline().entries;
        current[0].fidelity = 0.9;
        let report = compare(&baseline(), &current, &GateTolerance::default());
        assert!(report.passed());
        let improvement = report.improvements().next().unwrap();
        assert_eq!(improvement.metric, "fidelity");
        assert_eq!(improvement.verdict, Verdict::Improved);
    }

    #[test]
    fn execution_time_regression_fails() {
        let tol = GateTolerance::default();
        let mut current = baseline().entries;
        current[1].execution_time_us = 1000.0 * (1.0 + tol.exec_time) + 1e-6;
        let report = compare(&baseline(), &current, &tol);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "execution_time_us"
        );
    }

    #[test]
    fn compile_time_noise_below_floor_passes() {
        let mut base = baseline();
        base.entries[0].compile_time = SampleStats::single(0.001);
        let mut current = base.entries.clone();
        // 100x slower, but both medians below the floor: noise, not signal.
        current[0].compile_time = SampleStats::single(0.1);
        assert!(compare(&base, &current, &GateTolerance::default()).passed());
    }

    #[test]
    fn compile_time_regression_above_floor_fails() {
        let tol = GateTolerance::default();
        let mut current = baseline().entries;
        // The baseline is a single sample (degenerate interval), so the
        // bound is median * (1 + tol).
        current[0].compile_time = SampleStats::single(2.0 * (1.0 + tol.compile_time) + 0.1);
        let report = compare(&baseline(), &current, &tol);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "compile_time_s"
        );
    }

    #[test]
    fn compile_time_within_baseline_interval_passes() {
        let mut base = baseline();
        // Noisy baseline samples around 2s: interval ~ [1.6, 2.4].
        base.entries[0].compile_time = SampleStats::from_samples(vec![1.6, 2.0, 2.4]);
        let (_, ci_high) = base.entries[0].compile_time.ci();
        let tol = GateTolerance::default();

        let mut current = base.entries.clone();
        // Just inside the interval-plus-slack bound: passes …
        current[0].compile_time = SampleStats::single(ci_high * (1.0 + tol.compile_time) - 1e-9);
        assert!(compare(&base, &current, &tol).passed());
        // … just past it: regresses. The pre-statistics gate would have
        // required a full 4× blowup to notice.
        current[0].compile_time = SampleStats::single(ci_high * (1.0 + tol.compile_time) + 1e-9);
        let report = compare(&base, &current, &tol);
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "compile_time_s"
        );
        assert!(ci_high * (1.0 + tol.compile_time) < 2.0 * 4.0);
    }

    #[test]
    fn single_sample_baseline_cell_still_gates_correctly() {
        // A cell recorded with one sample (--repeats 1)
        // has a degenerate [value, value] interval: the gate must still
        // pass identical runs, flag regressions past the slack, and report
        // improvements — never divide by a zero-width notch into NaN.
        let tol = GateTolerance::default();
        let mut base = baseline();
        base.entries[0].compile_time = SampleStats::single(2.0);

        let mut current = base.entries.clone();
        current[0].compile_time = SampleStats::from_samples(vec![2.1, 2.0, 1.9]);
        assert!(
            compare(&base, &current, &tol).passed(),
            "median on the value"
        );

        current[0].compile_time = SampleStats::single(2.0 * (1.0 + tol.compile_time) + 1e-6);
        let report = compare(&base, &current, &tol);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "compile_time_s"
        );

        current[0].compile_time = SampleStats::single(0.9);
        let report = compare(&base, &current, &tol);
        assert!(report.passed());
        assert!(report
            .improvements()
            .any(|c| c.metric == "compile_time_s" && !c.current.is_nan()));
    }

    #[test]
    fn compile_time_median_ignores_one_outlier_sample() {
        let base = baseline();
        let mut current = base.entries.clone();
        // One wild sample out of three: the median stays at the baseline.
        current[0].compile_time = SampleStats::from_samples(vec![2.0, 50.0, 2.0]);
        assert!(compare(&base, &current, &GateTolerance::default()).passed());
    }

    #[test]
    fn stage_count_drift_is_exact() {
        let mut current = baseline().entries;
        current[0].stages = 11;
        let report = compare(&baseline(), &current, &GateTolerance::default());
        assert_eq!(report.regressions().next().unwrap().metric, "stages");

        current[0].stages = 9;
        let report = compare(&baseline(), &current, &GateTolerance::default());
        assert!(report.passed());
        assert_eq!(report.improvements().next().unwrap().metric, "stages");
    }

    #[test]
    fn cz_gate_drift_fails_in_both_directions() {
        for cz in [14, 16] {
            let mut current = baseline().entries;
            current[0].cz_gates = cz;
            let report = compare(&baseline(), &current, &GateTolerance::default());
            assert!(!report.passed(), "cz_gates {cz} must fail");
            assert_eq!(report.regressions().next().unwrap().metric, "cz_gates");
        }
    }

    #[test]
    fn missing_entries_are_reported_on_both_sides() {
        let current = vec![
            entry("powermove-storage", "BV-14"),
            entry("powermove-storage", "QFT-18"),
        ];
        let report = compare(&baseline(), &current, &GateTolerance::default());
        assert!(!report.passed());
        assert_eq!(
            report.missing_in_current,
            vec![("enola".to_string(), "BV-14".to_string())]
        );
        assert_eq!(
            report.missing_in_baseline,
            vec![("powermove-storage".to_string(), "QFT-18".to_string())]
        );
    }

    #[test]
    fn baseline_serializes_and_parses_back_as_v2() {
        let original = baseline();
        let json = serde_json::to_string_pretty(&original).unwrap();
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains("\"shard\""));
        assert!(json.contains("\"samples\""));
        let parsed = Baseline::parse(&json).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.entry("enola", "BV-14").unwrap().stages, 10);
        assert_eq!(
            parsed.entry("enola", "BV-14").unwrap().shard,
            "table2/small"
        );
        assert!(parsed.entry("enola", "nope").is_none());
    }

    #[test]
    fn unknown_schema_versions_are_rejected() {
        let err = Baseline::parse(r#"{"version": 99, "entries": []}"#).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        let err = Baseline::parse(r#"{"version": 1, "entries": []}"#).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        // The unversioned v1 shape (scalar `compile_time_s`, no shard).
        let v1 = r#"{"entries": [{"compiler": "enola", "benchmark": "BV-14",
            "fidelity": 0.8, "execution_time_us": 1000.0, "compile_time_s": 2.0,
            "stages": 10, "transfers": 40, "cz_gates": 15}]}"#;
        let err = Baseline::parse(v1).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn parse_reports_missing_and_mistyped_fields() {
        assert!(matches!(
            Baseline::parse("not json"),
            Err(GateError::Parse(_))
        ));
        assert!(matches!(
            Baseline::parse(r#"{"version": 2, "no_entries": []}"#),
            Err(GateError::Parse(_))
        ));
        let missing = r#"{"version": 2, "entries": [{"compiler": "x"}]}"#;
        let err = Baseline::parse(missing).unwrap_err();
        assert!(err.to_string().contains("benchmark"));
        let mistyped = r#"{"version": 2, "entries": [{"compiler": "x", "benchmark": "y",
            "shard": "s", "fidelity": "high", "execution_time_us": 1.0,
            "compile_time": {"samples": [1.0]}, "stages": 1, "transfers": 1,
            "cz_gates": 1}]}"#;
        let err = Baseline::parse(mistyped).unwrap_err();
        assert!(err.to_string().contains("fidelity"));
        let negative = r#"{"version": 2, "entries": [{"compiler": "x", "benchmark": "y",
            "shard": "s", "fidelity": 1.0, "execution_time_us": 1.0,
            "compile_time": {"samples": [1.0]}, "stages": -1, "transfers": 1,
            "cz_gates": 1}]}"#;
        assert!(Baseline::parse(negative).is_err());
        let bad_samples = r#"{"version": 2, "entries": [{"compiler": "x",
            "benchmark": "y", "shard": "s", "fidelity": 1.0,
            "execution_time_us": 1.0, "compile_time": {"samples": []},
            "stages": 1, "transfers": 1, "cz_gates": 1}]}"#;
        let err = Baseline::parse(bad_samples).unwrap_err();
        assert!(err.to_string().contains("compile_time"), "{err}");
    }

    #[test]
    fn scoped_keeps_only_the_given_cells() {
        let base = baseline();
        let cells = vec![("enola".to_string(), "BV-14".to_string())];
        let scoped = base.scoped(&cells);
        assert_eq!(scoped.entries.len(), 1);
        assert_eq!(scoped.entries[0].compiler, "enola");
        assert!(base.scoped(&[]).entries.is_empty());
    }

    #[test]
    fn tolerance_defaults_are_sane() {
        let tol = GateTolerance::default();
        assert!(tol.fidelity > 0.0 && tol.fidelity < 0.5);
        assert!(tol.exec_time > 0.0 && tol.exec_time < 0.5);
        assert!(
            tol.compile_time > 0.0 && tol.compile_time < 3.0,
            "statistical gating shrank the wall-clock slack below the old 4x"
        );
        assert!(tol.compile_time_floor_s > 0.0);
    }

    #[test]
    fn empty_baseline_vs_empty_run_passes() {
        let report = compare(&Baseline::default(), &[], &GateTolerance::default());
        assert!(report.passed());
        assert!(report.checks.is_empty());
    }

    #[test]
    fn merged_update_replaces_only_fresh_cells_and_keeps_other_shards() {
        let shards = ShardRegistry::standard(crate::DEFAULT_SEED);
        let mut large = entry("enola", "BV-70");
        large.shard = "table2/large".to_string();
        let old = Baseline {
            entries: vec![entry("enola", "BV-14"), large],
        };
        let mut fresh = entry("enola", "BV-14");
        fresh.fidelity = 0.95;
        let updated = old.merged_update(vec![fresh], &["table2/small".to_string()], &shards);
        assert_eq!(updated.entries.len(), 2);
        assert_eq!(updated.entry("enola", "BV-14").unwrap().fidelity, 0.95);
        assert!(
            updated.entry("enola", "BV-70").is_some(),
            "updating one shard must never drop another shard's entries"
        );
    }

    #[test]
    fn merged_update_prunes_stale_cells_of_selected_shards_only() {
        let shards = ShardRegistry::standard(crate::DEFAULT_SEED);
        let mut stale = entry("enola", "GONE-99");
        stale.shard = "table2/small".to_string();
        let mut untouched = entry("enola", "ALSO-GONE-99");
        untouched.shard = "table2/large".to_string();
        let old = Baseline {
            entries: vec![stale, untouched],
        };
        let updated = old.merged_update(Vec::new(), &["table2/small".to_string()], &shards);
        assert!(
            updated.entry("enola", "GONE-99").is_none(),
            "stale cell pruned"
        );
        assert!(
            updated.entry("enola", "ALSO-GONE-99").is_some(),
            "unselected shard untouched"
        );
    }

    #[test]
    fn full_merged_update_prunes_orphaned_cells_even_with_unknown_labels() {
        let shards = ShardRegistry::standard(crate::DEFAULT_SEED);
        // An entry with an empty shard label whose benchmark left the
        // suite: no shard gates it and no run will ever replace it.
        let mut orphan = entry("enola", "REMOVED-99");
        orphan.shard = String::new();
        let mut live_unlabelled = entry("enola", "BV-14");
        live_unlabelled.shard = String::new();
        let old = Baseline {
            entries: vec![orphan.clone(), live_unlabelled.clone()],
        };

        // A per-shard update must leave both untouched (conservative) …
        let kept = old
            .clone()
            .merged_update(Vec::new(), &["table2/small".to_string()], &shards);
        assert_eq!(kept.entries.len(), 2);

        // … but a full update (every shard selected) prunes the orphan
        // while keeping the live cell for its re-run entry to replace.
        let all_shards: Vec<String> = shards.names().iter().map(|n| n.to_string()).collect();
        let mut fresh = entry("enola", "BV-14");
        fresh.fidelity = 0.9;
        let updated = old.merged_update(vec![fresh], &all_shards, &shards);
        assert!(updated.entry("enola", "REMOVED-99").is_none());
        assert_eq!(updated.entry("enola", "BV-14").unwrap().fidelity, 0.9);
        assert_eq!(updated.entries.len(), 1);
    }

    #[test]
    fn merged_update_sorts_into_canonical_cell_order() {
        let shards = ShardRegistry::standard(crate::DEFAULT_SEED);
        let old = Baseline {
            entries: vec![entry("powermove-storage", "BV-14"), entry("enola", "BV-14")],
        };
        let updated = old.merged_update(Vec::new(), &[], &shards);
        let compilers: Vec<&str> = updated
            .entries
            .iter()
            .map(|e| e.compiler.as_str())
            .collect();
        assert_eq!(compilers, vec!["enola", "powermove-storage"]);
    }
}
