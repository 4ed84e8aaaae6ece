//! The JSONL frame protocol spoken by the compile daemon.
//!
//! Every frame is one JSON object on one line. Requests arrive on stdin (or
//! a Unix-socket connection); each produces exactly one response frame,
//! correlated by the client-chosen `id`. Responses to concurrent compile
//! requests stream back in completion order, so clients must match on `id`,
//! not on arrival order.
//!
//! # Request frames
//!
//! ```json
//! {"id": 1, "op": "compile", "qasm": "OPENQASM 2.0; ...", "aods": 2}
//! {"id": 2, "op": "compile",
//!  "benchmark": {"family": "QFT", "qubits": 10, "seed": 20250},
//!  "config": {"storage": true, "alpha": 0.97, "routing": "lookahead",
//!             "lookahead": 2}}
//! {"id": 3, "op": "stats"}
//! {"id": 4, "op": "shutdown"}
//! ```
//!
//! A compile request names its circuit either inline (`qasm`, OpenQASM 2.0
//! text) or as a generated benchmark instance (`benchmark` with a Table 2
//! `family` name, `qubits`, and an optional `seed` defaulting to the bench
//! harness default). The architecture is derived from the circuit width
//! (plus optional `aods`, default 1), and `config` fields override
//! [`CompilerConfig`] defaults one by one; `threads` defaults to 1 inside
//! the daemon because request-level parallelism already saturates the pool.
//!
//! # Response frames
//!
//! ```json
//! {"id": 1, "ok": true, "cache": "miss", "key": "92b11c…", "digest": "5d1f…",
//!  "qubits": 10, "instructions": 42, "stages": 9, "program": null}
//! {"id": 7, "ok": false, "error": "unknown benchmark family `qproc`"}
//! ```
//!
//! `key` is the request's content hash, `digest` the canonical digest of
//! the emitted program ([`program_digest`](powermove_schedule::program_digest));
//! identical keys always report identical digests, which is how the smoke
//! test asserts cache hits are byte-identical to cold compiles. With
//! `"include_program": true` the response carries the full serialized
//! program in `program`.

use powermove::{CompilerConfig, RoutingConfig};
use powermove_benchmarks::BenchmarkFamily;
use powermove_circuit::Circuit;
use serde::{Serialize, Value};

/// Default RNG seed for `benchmark` sources, matching the bench harness.
pub const DEFAULT_SEED: u64 = 20250;

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile a circuit (from QASM text or a generated benchmark).
    Compile(CompileRequest),
    /// Report service counters.
    Stats {
        /// Correlation id echoed in the response.
        id: i64,
    },
    /// Drain in-flight work, acknowledge, and stop the daemon.
    Shutdown {
        /// Correlation id echoed in the response.
        id: i64,
    },
}

/// The circuit source of a compile request.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Inline OpenQASM 2.0 text.
    Qasm(String),
    /// A generated Table 2 benchmark instance.
    Benchmark {
        /// Benchmark family.
        family: BenchmarkFamily,
        /// Circuit width.
        qubits: u32,
        /// Generator seed.
        seed: u64,
    },
}

/// A parsed compile request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// Correlation id echoed in the response.
    pub id: i64,
    /// Where the circuit comes from.
    pub source: Source,
    /// AOD-array count for the derived architecture.
    pub aods: usize,
    /// Compiler configuration after applying frame overrides.
    pub config: CompilerConfig,
    /// Whether the response should embed the full serialized program.
    pub include_program: bool,
}

impl CompileRequest {
    /// Materializes the request's circuit.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] if the QASM text does not parse or the
    /// benchmark parameters are infeasible.
    pub fn circuit(&self) -> Result<Circuit, FrameError> {
        match &self.source {
            Source::Qasm(text) => powermove_circuit::qasm::from_qasm(text)
                .map_err(|e| FrameError::new(Some(self.id), format!("qasm: {e}"))),
            Source::Benchmark {
                family,
                qubits,
                seed,
            } => {
                if *qubits < 2 {
                    return Err(FrameError::new(
                        Some(self.id),
                        "benchmark.qubits must be at least 2",
                    ));
                }
                Ok(powermove_benchmarks::generate(*family, *qubits, *seed).circuit)
            }
        }
    }
}

/// A malformed frame: carries the offending request's `id` when one could
/// be extracted, so the error response still correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// Correlation id, if the frame carried a usable one.
    pub id: Option<i64>,
    /// Human-readable description of the problem.
    pub message: String,
}

impl FrameError {
    /// Creates a frame error.
    pub fn new(id: Option<i64>, message: impl Into<String>) -> Self {
        FrameError {
            id,
            message: message.into(),
        }
    }

    /// The error response frame for this failure.
    #[must_use]
    pub fn reply(&self) -> Value {
        Value::Object(vec![
            ("id".into(), self.id.map_or(Value::Null, Value::Int)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::String(self.message.clone())),
        ])
    }
}

impl Request {
    /// Parses one JSONL frame.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] (with the frame's `id` when recoverable) on
    /// malformed JSON, a missing or non-integer `id`, an unknown `op`, or
    /// invalid compile parameters.
    pub fn parse(line: &str) -> Result<Request, FrameError> {
        let value = serde_json::from_str(line)
            .map_err(|e| FrameError::new(None, format!("malformed frame: {e}")))?;
        let id = value
            .get("id")
            .and_then(Value::as_i64)
            .ok_or_else(|| FrameError::new(None, "frame is missing an integer `id`"))?;
        let op = value
            .get("op")
            .map_or(Some("compile"), Value::as_str)
            .ok_or_else(|| FrameError::new(Some(id), "`op` must be a string"))?;
        match op {
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "compile" => parse_compile(id, &value).map(Request::Compile),
            other => Err(FrameError::new(Some(id), format!("unknown op `{other}`"))),
        }
    }
}

fn parse_compile(id: i64, value: &Value) -> Result<CompileRequest, FrameError> {
    let source = match (value.get("qasm"), value.get("benchmark")) {
        (Some(_), Some(_)) => {
            return Err(FrameError::new(
                Some(id),
                "specify either `qasm` or `benchmark`, not both",
            ))
        }
        (Some(qasm), None) => Source::Qasm(
            qasm.as_str()
                .ok_or_else(|| FrameError::new(Some(id), "`qasm` must be a string"))?
                .to_string(),
        ),
        (None, Some(bench)) => parse_benchmark(id, bench)?,
        (None, None) => {
            return Err(FrameError::new(
                Some(id),
                "compile frame needs a `qasm` or `benchmark` source",
            ))
        }
    };
    let aods = match value.get("aods") {
        None => 1,
        Some(v) => usize::try_from(v.as_i64().unwrap_or(-1))
            .ok()
            .filter(|a| *a >= 1)
            .ok_or_else(|| FrameError::new(Some(id), "`aods` must be a positive integer"))?,
    };
    let config = parse_config(id, value.get("config"))?;
    let include_program = value
        .get("include_program")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    Ok(CompileRequest {
        id,
        source,
        aods,
        config,
        include_program,
    })
}

fn parse_benchmark(id: i64, bench: &Value) -> Result<Source, FrameError> {
    let family_name = bench
        .get("family")
        .and_then(Value::as_str)
        .ok_or_else(|| FrameError::new(Some(id), "`benchmark.family` must be a string"))?;
    let family = BenchmarkFamily::from_name(family_name).ok_or_else(|| {
        FrameError::new(
            Some(id),
            format!("unknown benchmark family `{family_name}`"),
        )
    })?;
    let qubits = bench
        .get("qubits")
        .and_then(Value::as_i64)
        .and_then(|q| u32::try_from(q).ok())
        .ok_or_else(|| {
            FrameError::new(
                Some(id),
                "`benchmark.qubits` must be a non-negative integer",
            )
        })?;
    let seed = match bench.get("seed") {
        None => DEFAULT_SEED,
        Some(v) => v
            .as_i64()
            .and_then(|s| u64::try_from(s).ok())
            .ok_or_else(|| {
                FrameError::new(Some(id), "`benchmark.seed` must be a non-negative integer")
            })?,
    };
    Ok(Source::Benchmark {
        family,
        qubits,
        seed,
    })
}

fn parse_config(id: i64, value: Option<&Value>) -> Result<CompilerConfig, FrameError> {
    // Inside the daemon, request-level parallelism already keeps the pool
    // busy; per-compile pools default to one worker.
    let mut config = CompilerConfig::default().with_threads(1);
    let Some(value) = value else {
        return Ok(config);
    };
    if let Some(storage) = value.get("storage") {
        match storage.as_bool() {
            Some(true) => {}
            Some(false) => config.use_storage = false,
            None => {
                return Err(FrameError::new(
                    Some(id),
                    "`config.storage` must be a boolean",
                ))
            }
        }
    }
    if let Some(alpha) = value.get("alpha") {
        config.alpha = alpha
            .as_f64()
            .ok_or_else(|| FrameError::new(Some(id), "`config.alpha` must be a number"))?;
    }
    if let Some(grouping) = value.get("grouping") {
        config.use_grouping = grouping
            .as_bool()
            .ok_or_else(|| FrameError::new(Some(id), "`config.grouping` must be a boolean"))?;
    }
    if let Some(threads) = value.get("threads") {
        config.threads = threads
            .as_i64()
            .and_then(|t| usize::try_from(t).ok())
            .ok_or_else(|| {
                FrameError::new(Some(id), "`config.threads` must be a non-negative integer")
            })?;
    }
    if let Some(routing) = value.get("routing") {
        let name = routing
            .as_str()
            .ok_or_else(|| FrameError::new(Some(id), "`config.routing` must be a string"))?;
        let lookahead = match value.get("lookahead") {
            None => 2,
            Some(v) => v
                .as_i64()
                .and_then(|d| usize::try_from(d).ok())
                .ok_or_else(|| {
                    FrameError::new(
                        Some(id),
                        "`config.lookahead` must be a non-negative integer",
                    )
                })?,
        };
        config.routing = match name {
            "greedy" => RoutingConfig::greedy(),
            "lookahead" => RoutingConfig::lookahead(lookahead),
            "multi-aod" => RoutingConfig::multi_aod(),
            "auto" => RoutingConfig::auto(),
            other => {
                return Err(FrameError::new(
                    Some(id),
                    format!("unknown routing strategy `{other}`"),
                ))
            }
        };
    }
    Ok(config)
}

/// The response frame for a successful compile.
#[derive(Debug, Serialize)]
pub struct CompileReply {
    /// Correlation id from the request.
    pub id: i64,
    /// Always `true` for this frame type.
    pub ok: bool,
    /// How the request was satisfied: `"hit"`, `"miss"` or `"coalesced"`.
    pub cache: String,
    /// The request's content hash (16 hex digits).
    pub key: String,
    /// Canonical digest of the emitted program (16 hex digits).
    pub digest: String,
    /// Program width in qubits.
    pub qubits: u32,
    /// Instruction count of the emitted program.
    pub instructions: usize,
    /// Rydberg stage count of the emitted program.
    pub stages: usize,
    /// The full serialized program when `include_program` was set, else
    /// `null`.
    pub program: Option<Value>,
}

/// The response frame for a `stats` request.
#[derive(Debug, Serialize)]
pub struct StatsReply {
    /// Correlation id from the request.
    pub id: i64,
    /// Always `true` for this frame type.
    pub ok: bool,
    /// The service counters.
    pub stats: crate::ServiceStats,
}

/// The acknowledgement frame for a `shutdown` request — always the last
/// frame the daemon writes.
#[derive(Debug, Serialize)]
pub struct ShutdownReply {
    /// Correlation id from the request.
    pub id: i64,
    /// Always `true` for this frame type.
    pub ok: bool,
    /// Always `true`: marks the daemon as stopping.
    pub shutdown: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_benchmark_compile_frame() {
        let req = Request::parse(
            r#"{"id": 3, "op": "compile", "benchmark": {"family": "QFT", "qubits": 10}, "aods": 2}"#,
        )
        .unwrap();
        let Request::Compile(req) = req else {
            panic!("expected compile");
        };
        assert_eq!(req.id, 3);
        assert_eq!(req.aods, 2);
        assert_eq!(
            req.source,
            Source::Benchmark {
                family: BenchmarkFamily::Qft,
                qubits: 10,
                seed: DEFAULT_SEED
            }
        );
        assert_eq!(req.config.threads, 1);
        assert!(req.circuit().unwrap().num_qubits() == 10);
    }

    #[test]
    fn parses_qasm_compile_frame() {
        let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncz q[0], q[1];\n";
        let mut circuit = Circuit::new(2);
        circuit
            .cz(
                powermove_circuit::Qubit::new(0),
                powermove_circuit::Qubit::new(1),
            )
            .unwrap();
        let frame = serde_json::to_jsonl_line(&Value::Object(vec![
            ("id".into(), Value::Int(1)),
            ("qasm".into(), Value::String(qasm.into())),
        ]));
        let Request::Compile(req) = Request::parse(&frame).unwrap() else {
            panic!("expected compile");
        };
        assert_eq!(req.circuit().unwrap(), circuit);
    }

    #[test]
    fn config_overrides_apply() {
        let req = Request::parse(
            r#"{"id": 1, "benchmark": {"family": "BV", "qubits": 8},
                "config": {"storage": false, "alpha": 0.5, "grouping": false,
                           "threads": 2, "routing": "lookahead", "lookahead": 3}}"#,
        )
        .unwrap();
        let Request::Compile(req) = req else {
            panic!("expected compile");
        };
        assert!(!req.config.use_storage);
        assert!(!req.config.use_grouping);
        assert_eq!(req.config.alpha, 0.5);
        assert_eq!(req.config.threads, 2);
        assert_eq!(req.config.routing, RoutingConfig::lookahead(3));
    }

    #[test]
    fn malformed_frames_report_errors() {
        assert!(Request::parse("not json").unwrap_err().id.is_none());
        assert!(Request::parse(r#"{"op": "stats"}"#)
            .unwrap_err()
            .id
            .is_none());
        let err = Request::parse(r#"{"id": 9, "op": "launch"}"#).unwrap_err();
        assert_eq!(err.id, Some(9));
        assert!(err.message.contains("unknown op"));
        let err = Request::parse(r#"{"id": 4, "benchmark": {"family": "nope", "qubits": 4}}"#)
            .unwrap_err();
        assert_eq!(err.id, Some(4));
        assert!(err.message.contains("unknown benchmark family"));
        let reply = serde_json::to_string(&err.reply()).unwrap();
        assert!(reply.contains("\"ok\": false") || reply.contains("\"ok\":false"));
    }

    #[test]
    fn stats_and_shutdown_parse() {
        assert_eq!(
            Request::parse(r#"{"id": 5, "op": "stats"}"#).unwrap(),
            Request::Stats { id: 5 }
        );
        assert_eq!(
            Request::parse(r#"{"id": 6, "op": "shutdown"}"#).unwrap(),
            Request::Shutdown { id: 6 }
        );
    }
}
