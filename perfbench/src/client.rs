//! A closed-loop JSONL client of [`Daemon::serve`] over a Unix socket pair,
//! and the in-process mirror the traced run replays each frame through.
//!
//! The daemon runs on its own thread with a one-worker handler pool, so
//! every frame is handled inline on the serve thread: with the client thread
//! that makes two threads. The client sends a frame only after the previous
//! reply arrived, so nothing ever queues.

use crate::trace::Tracer;
use powermove::{content_hash, CompilerConfig};
use powermove_benchmarks::BenchmarkFamily;
use powermove_circuit::Circuit;
use powermove_exec::Parallelism;
use powermove_hardware::Architecture;
use powermove_schedule::program_digest;
use powermove_service::protocol::{CompileReply, Request, Source};
use powermove_service::{CompileService, Daemon, ServeReport};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The cache outcome a frame is planned to have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The program is cached.
    Hit,
    /// The circuit was staged before, under another AOD count.
    StageHit,
    /// Neither the program nor the staged circuit is cached.
    Miss,
}

impl Class {
    /// The reply's `cache` field for this class: a stage hit still misses
    /// the program cache.
    pub fn reply_cache(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::StageHit | Class::Miss => "miss",
        }
    }

    /// Span name of the mirrored `CompileService::compile` call.
    fn span(self) -> &'static str {
        match self {
            Class::Hit => "service.hit",
            Class::StageHit => "service.stage_hit",
            Class::Miss => "service.miss",
        }
    }
}

/// Where a frame's circuit comes from.
#[derive(Debug, Clone)]
pub enum FrameSource {
    /// Inline OpenQASM text.
    Qasm(Arc<str>),
    /// A seeded benchmark spec the daemon generates itself.
    Spec {
        /// Benchmark family.
        family: BenchmarkFamily,
        /// Circuit width.
        qubits: u32,
        /// Generator seed.
        seed: u64,
    },
}

/// Renders one compile frame.
pub fn frame(id: i64, source: &FrameSource, aods: usize) -> String {
    let mut fields = vec![("id".to_string(), Value::Int(id))];
    match source {
        FrameSource::Qasm(text) => fields.push(("qasm".into(), Value::String(text.to_string()))),
        FrameSource::Spec {
            family,
            qubits,
            seed,
        } => fields.push((
            "benchmark".into(),
            Value::Object(vec![
                ("family".into(), Value::String(family.to_string())),
                ("qubits".into(), Value::Int(i64::from(*qubits))),
                (
                    "seed".into(),
                    Value::Int(i64::try_from(*seed).expect("spec seeds fit in i63")),
                ),
            ]),
        )),
    }
    fields.push((
        "aods".into(),
        Value::Int(i64::try_from(aods).expect("small AOD count")),
    ));
    serde_json::to_jsonl_line(&Value::Object(fields))
}

/// The fields of a successful compile reply the benchmark checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// `"hit"`, `"miss"` or `"coalesced"`.
    pub cache: String,
    /// Content hash of the request.
    pub key: String,
    /// Canonical digest of the emitted program.
    pub digest: String,
}

/// A daemon serving one end of a socket pair on its own thread.
pub struct Client {
    service: Arc<CompileService>,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    serve: JoinHandle<ServeReport>,
}

impl Client {
    /// Builds a service with room for `capacity` programs and starts a daemon
    /// over it with a one-worker handler pool.
    pub fn start(capacity: usize) -> std::io::Result<Self> {
        let service = Arc::new(CompileService::new(capacity));
        let (client, server) = UnixStream::pair()?;
        let server_reader = BufReader::new(server.try_clone()?);
        let served = Arc::clone(&service);
        let serve = std::thread::spawn(move || {
            Daemon::new(&served)
                .with_parallelism(Parallelism::fixed(1))
                .serve(server_reader, server)
        });
        Ok(Client {
            service,
            reader: BufReader::new(client.try_clone()?),
            writer: client,
            serve,
        })
    }

    /// The service behind the daemon.
    pub fn service(&self) -> &CompileService {
        &self.service
    }

    /// Sends one frame and waits for its reply line.
    pub fn round_trip(&mut self, line: &str) -> Result<Reply, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        let value = serde_json::from_str(&reply).map_err(|e| format!("reply: {e}"))?;
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("error reply: {}", reply.trim_end()));
        }
        let field = |name: &str| {
            value
                .get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("reply lacks `{name}`"))
        };
        Ok(Reply {
            cache: field("cache")?,
            key: field("key")?,
            digest: field("digest")?,
        })
    }

    /// Sends `shutdown`, checks that its acknowledgement is the last frame,
    /// and joins the serve thread.
    pub fn shutdown(mut self) -> Result<ServeReport, String> {
        let acked = self
            .writer
            .write_all(b"{\"id\":-1,\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("send shutdown: {e}"))
            .and_then(|()| {
                let mut ack = String::new();
                self.reader
                    .read_line(&mut ack)
                    .map_err(|e| format!("receive shutdown ack: {e}"))?;
                Ok(ack.contains("\"shutdown\":true"))
            });
        drop(self.writer);
        let report = self
            .serve
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        match acked {
            Ok(true) if report.shutdown && report.errors == 0 => Ok(report),
            Ok(_) => Err(format!("daemon did not shut down cleanly: {report:?}")),
            Err(e) => Err(e),
        }
    }
}

/// What one mirrored frame produced.
pub struct Mirrored {
    /// The request's circuit.
    pub circuit: Circuit,
    /// The derived architecture.
    pub arch: Architecture,
    /// The request's compiler configuration.
    pub config: CompilerConfig,
    /// Its canonical digest.
    pub digest: String,
}

/// Replays a frame through the steps the daemon takes for it — frame parse,
/// circuit materialisation, content hash, service compile, program digest
/// and reply serialisation — each under its own span, against a mirror
/// service fed the same frames as the daemon's, so its cache outcomes match.
pub fn mirror(
    tr: &mut Tracer,
    service: &CompileService,
    line: &str,
    class: Class,
) -> Result<Mirrored, String> {
    let request = tr.time("protocol.parse", || Request::parse(line));
    let Ok(Request::Compile(request)) = request else {
        return Err(format!("mirror: not a compile frame: {}", line.trim_end()));
    };
    let parse = match request.source {
        Source::Qasm(_) => "circuit.parse",
        Source::Benchmark { .. } => "circuit.generate",
    };
    let circuit = tr
        .time(parse, || request.circuit())
        .map_err(|e| e.message)?;
    let arch = Architecture::for_qubits(circuit.num_qubits()).with_num_aods(request.aods);
    let key = tr.time("content.hash", || {
        content_hash(&circuit, &arch, &request.config)
    });
    let span = tr.enter("service.compile");
    let compiled = service.compile(&circuit, &arch, &request.config);
    tr.exit(span);
    tr.rename(span, class.span());
    let (program, outcome) = compiled.map_err(|e| format!("mirror compile: {e}"))?;
    if outcome.as_str() != class.reply_cache() {
        return Err(format!(
            "mirror outcome {} for a planned {class:?}",
            outcome.as_str()
        ));
    }
    let digest = tr.time("schedule.digest", || program_digest(&program));
    tr.time("protocol.reply", || {
        serde_json::to_jsonl_line(&CompileReply {
            id: request.id,
            ok: true,
            cache: outcome.as_str().to_string(),
            key: key.hex(),
            digest: digest.clone(),
            qubits: program.num_qubits(),
            instructions: program.num_instructions(),
            stages: program.rydberg_stage_count(),
            program: None,
        })
    });
    Ok(Mirrored {
        circuit,
        arch,
        config: request.config,
        digest,
    })
}
