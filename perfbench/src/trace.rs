//! Spans recorded by the benchmark around its own calls into the layers.
//!
//! A span has a name, start and end (ns since the run's epoch), the span
//! that caused it and the frame it belongs to. Spans live in memory and
//! are written out when the run ends; nothing is recorded inside the
//! crates under test.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub frame: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder, shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans_mut(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a span; close it with [`exit`](Tracer::exit).
    pub fn enter(&self, name: &'static str, parent: Option<SpanId>, frame: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans_mut();
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, frame });
        spans.len() - 1
    }

    pub fn exit(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans_mut()[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn record<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, frame);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans_mut().clone()
    }

    /// Per-frame totals (ms) of the spans named `name`, one entry per
    /// frame that has any.
    pub fn per_frame_ms(&self, name: &str) -> Vec<f64> {
        let mut totals = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.spans_mut().iter().filter(|s| s.name == name) {
            *totals.entry(s.frame).or_default() += s.ms();
        }
        totals.into_values().collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans_mut().iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans_mut().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"frame\":{}}}",
                s.name, s.start_ns, s.end_ns, s.frame
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn maybe<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    frame: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.record(name, parent, frame, f),
        None => f(),
    }
}
