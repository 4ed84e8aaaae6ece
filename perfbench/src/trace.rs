//! In-memory span recorder for the traced run, exported as Chrome
//! trace-event JSON.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library's public functions: a span has a name, start, end, parent span
//! and the id of the request it belongs to, plus the allocation calls the
//! thread made inside it. A disabled tracer records nothing, so the untraced
//! runs pay one branch per call site.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Handle returned by [`Tracer::enter`] when tracing is off.
const OFF: usize = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `"stage"` or `"route.greedy"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Allocation calls made inside the span (children included).
    pub allocs: u64,
    /// Whether the span belongs to the run's fixed reference set, over which
    /// the exact counts are summed.
    pub reference: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Self time of every call in milliseconds: duration minus the time its
    /// direct children cover.
    pub self_ms: Vec<f64>,
    /// Self allocation calls summed over the reference set.
    pub reference_allocs: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    reference: bool,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            reference: false,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts or stops recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with a request id and reference flag.
    ///
    /// Also grows the span buffer here, between requests, so that neither
    /// its reallocation nor its first page faults land inside a timed span.
    pub fn begin_request(&mut self, request: u64, reference: bool) {
        self.request = request;
        self.reference = reference;
        if self.on && self.spans.capacity() - self.spans.len() < 1024 {
            // Fill and truncate so the new pages are faulted in now, too.
            let len = self.spans.len();
            let placeholder = Span {
                name: "",
                start_ns: 0,
                end_ns: 0,
                parent: None,
                request: 0,
                allocs: 0,
                reference: false,
            };
            self.spans.resize(len + len.max(4096), placeholder);
            self.spans.truncate(len);
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return OFF;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
            allocs: 0,
            reference: self.reference,
        });
        self.stack.push(index);
        // Read after the pushes, so the recorder's own growth is not counted.
        self.spans[index].allocs = alloc::count();
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        if index == OFF {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(index), "spans must close in order");
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.allocs = alloc::count() - span.allocs;
    }

    /// Renames a recorded span, for calls whose layer is known only after
    /// they return (a service compile's cache outcome).
    pub fn rename(&mut self, index: usize, name: &'static str) {
        if index != OFF {
            self.spans[index].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let value = f();
        self.exit(span);
        value
    }

    /// Duration of a closed span in milliseconds (0 when tracing is off).
    pub fn duration_ms(&self, index: usize) -> f64 {
        if index == OFF {
            return 0.0;
        }
        ns_to_ms(self.spans[index].duration_ns())
    }

    /// Summed duration of a span's direct children in milliseconds.
    pub fn children_ms(&self, index: usize) -> f64 {
        if index == OFF {
            return 0.0;
        }
        let covered: u64 = self.spans[index + 1..]
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        ns_to_ms(covered)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self times and reference allocation counts per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0_u64; self.spans.len()];
        let mut child_allocs = vec![0_u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
                child_allocs[parent] += span.allocs;
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let layer = layers.entry(span.name).or_default();
            layer
                .self_ms
                .push(ns_to_ms(span.duration_ns()) - ns_to_ms(child_ns[i]));
            if span.reference {
                layer.reference_allocs += span.allocs - child_allocs[i];
            }
        }
        layers
    }

    /// For every root span named `name`, the share of its wall time that its
    /// direct children cover.
    pub fn root_coverage(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0_u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.parent.is_none() && span.name == name)
            .filter(|(_, span)| span.duration_ns() > 0)
            .map(|(i, span)| covered[i] as f64 / span.duration_ns() as f64)
            .collect()
    }

    /// Writes every span as a Chrome trace-event (`"ph": "X"`) JSON file,
    /// viewable in Perfetto or `chrome://tracing`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{},\"allocs\":{}}}}}{}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.request,
                span.allocs,
                if i + 1 == self.spans.len() { "" } else { "," },
            )?;
        }
        out.write_all(b"],\"displayTimeUnit\":\"ms\"}\n")?;
        out.flush()
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
