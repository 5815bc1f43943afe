//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (the public call it wraps), a start and end on one
//! shared clock, its parent span and the request it served. Each thread
//! records into its own [`Spans`] buffer; the main thread folds every
//! finished phase into the [`Trace`], which keeps per-layer self time
//! (duration minus the part of it that child spans cover) and a bounded
//! copy of the raw spans for the spans file.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Parent id of a root span.
pub const ROOT: u64 = 0;
/// Request id of a span that serves no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// Layers a span can belong to, in report order. `bench` is the
/// benchmark's own glue between calls: the unattributed residual.
pub const LAYERS: [&str; 6] = ["ingest", "kg", "epoch", "core", "serve", "bench"];

/// The layer of the call a span wraps.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "fuse_sources" | "load_into_graph" => "ingest",
        "persist::load" => "kg",
        "IndexWriter::new" | "IndexWriter::apply" | "IndexWriter::publish" | "epoch_swap" => {
            "epoch"
        }
        // A miss runs the whole pipeline; the L1 probe and store around
        // it cost about one hit and stay inside this span.
        "snapshot_pipeline" | "serve_one.miss" => "core",
        "serve_one.hit" => "serve",
        _ => "bench",
    }
}

/// One finished span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never [`ROOT`]).
    pub id: u64,
    /// Id of the span that caused this one, or [`ROOT`].
    pub parent: u64,
    /// The call the span wraps, or a benchmark phase.
    pub name: &'static str,
    /// Request id, or [`NO_REQUEST`].
    pub request: u64,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

static NEXT_BUFFER: AtomicU64 = AtomicU64::new(1);

/// A per-thread span buffer. When tracing is off every method is a
/// no-op apart from timing the closure it is given.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    prefix: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A fresh buffer on the shared `origin` clock.
    pub fn new(on: bool, origin: Instant) -> Self {
        let prefix = if on {
            NEXT_BUFFER.fetch_add(1, Ordering::Relaxed) << 32
        } else {
            0
        };
        Self {
            on,
            origin,
            prefix,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Allocates the id of a span that is about to start, so children
    /// can name it as parent. [`ROOT`] when tracing is off.
    pub fn begin(&mut self) -> u64 {
        if !self.on {
            return ROOT;
        }
        self.next += 1;
        self.prefix | self.next
    }

    /// Records a finished span under an id from [`Spans::begin`].
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name,
                request,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Runs `f` as a leaf span and returns its result and wall time.
    pub fn time<T>(
        &mut self,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            let id = self.begin();
            self.record(id, parent, name, NO_REQUEST, start, end);
        }
        (out, end - start)
    }

    /// Moves the recorded spans out.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Raw spans kept for the spans file; the per-layer totals count all.
const KEPT_SPANS: usize = 50_000;

/// Folded spans of a whole run.
#[derive(Debug)]
pub struct Trace {
    kept: Vec<Span>,
    dropped: u64,
    self_ns: BTreeMap<&'static str, u64>,
    count: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self {
            kept: Vec::new(),
            dropped: 0,
            self_ns: BTreeMap::new(),
            count: BTreeMap::new(),
        }
    }

    /// Folds complete span trees (every parent present) into the
    /// per-layer totals.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in &spans {
            if let Some(&parent) = index.get(&span.parent) {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        for (span, kids) in spans.iter().zip(&mut children) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let own = duration.saturating_sub(covered(kids, span.start_ns, span.end_ns));
            let layer = layer_of(span.name);
            *self.self_ns.entry(layer).or_default() += own;
            *self.count.entry(layer).or_default() += 1;
        }
        let room = KEPT_SPANS.saturating_sub(self.kept.len());
        self.dropped += spans.len().saturating_sub(room) as u64;
        self.kept.extend(spans.into_iter().take(room));
    }

    /// Self time of `layer`, in ms.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Spans recorded in `layer`.
    pub fn spans(&self, layer: &str) -> u64 {
        self.count.get(layer).copied().unwrap_or(0)
    }

    /// Share of all traced thread time that no layer span covers, in %.
    pub fn residual_pct(&self) -> f64 {
        let total: u64 = self.self_ns.values().sum();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.self_ns.get("bench").copied().unwrap_or(0) as f64 / total as f64
    }

    /// Writes the kept spans as JSON lines, after one header line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"header\":{header},\"spans_kept\":{},\"spans_dropped\":{}}}",
            self.kept.len(),
            self.dropped
        )?;
        for s in &self.kept {
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.name,
                layer_of(s.name),
                request,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut spans = vec![(10, 40), (20, 50), (60, 70), (95, 120)];
        assert_eq!(covered(&mut spans, 0, 100), 30 + 10 + 10 + 5);
    }

    #[test]
    fn self_time_excludes_children_and_residual_is_glue() {
        let mut trace = Trace::new();
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            request: NO_REQUEST,
            start_ns,
            end_ns,
        };
        trace.absorb(vec![
            span(1, ROOT, "setup", 0, 100),
            span(2, 1, "persist::load", 0, 60),
            span(3, 1, "IndexWriter::new", 60, 90),
        ]);
        assert_eq!(trace.self_ms("kg"), 60e-6);
        assert_eq!(trace.self_ms("epoch"), 30e-6);
        assert_eq!(trace.self_ms("bench"), 10e-6);
        assert!((trace.residual_pct() - 10.0).abs() < 1e-9);
        assert_eq!(trace.spans("kg"), 1);
    }
}
