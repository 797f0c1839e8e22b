//! In-memory spans recorded by the benchmark around its calls into each
//! crate.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! made), the id of the span that caused it, and a request id for
//! queries. Spans stay in memory while the run measures and are written
//! out as JSON lines when it ends. A layer's self time is its duration
//! minus the part its child spans cover; children run on the parent's
//! thread or, for worker threads, name their parent explicitly.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Query request id; 0 when the span is not a query.
    pub request: u64,
}

/// Per-name totals over all spans of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    pub name: &'static str,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder; a disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; it closes when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Id of this span (0 when tracing is off), for children on other
    /// threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        let origin = self.tracer.origin;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start.duration_since(origin).as_nanos() as u64,
            end_ns: end.duration_since(origin).as_nanos() as u64,
            request: self.request,
        };
        // A poisoned lock only means another span writer panicked; the
        // vector itself is always valid, so keep recording.
        let mut spans = self
            .tracer
            .spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        spans.push(record);
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span whose parent is the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None, 0, self.enabled)
    }

    /// Opens a span under an explicit parent (a span of another thread),
    /// tagged with a request id. `on` lets a loop trace only some
    /// iterations.
    pub fn span_under(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        on: bool,
    ) -> SpanGuard<'_> {
        self.open(name, Some(parent), request, self.enabled && on)
    }

    fn open(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        on: bool,
    ) -> SpanGuard<'_> {
        let id = if on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let parent = if id == 0 {
            0
        } else {
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                let p = parent.unwrap_or_else(|| open.last().copied().unwrap_or(0));
                open.push(id);
                p
            })
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            request,
            start: Instant::now(),
        }
    }

    /// Runs `f` under a span named `name` and returns its value with the
    /// wall seconds it took (timed whether or not tracing is on).
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let guard = self.span(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        drop(guard);
        (out, secs)
    }

    /// Records a span timed elsewhere (on another thread or inside the
    /// program) under `parent`.
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let record = SpanRecord {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            request: 0,
        };
        self.spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(record);
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Count, total and self seconds per span name, sorted by name.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let spans = self.records();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            // Children on worker threads can overlap each other, so their
            // sum may exceed the parent; self time never goes below 0.
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let entry = by_name.entry(s.name).or_insert(SpanSummary {
                name: s.name,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            entry.count += 1;
            entry.total_s += dur as f64 * 1e-9;
            entry.self_s += own as f64 * 1e-9;
        }
        by_name.into_values().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.records() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let spans = t.records();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        let summary = t.summary();
        let o = summary.iter().find(|s| s.name == "outer").unwrap();
        assert!(o.self_s < o.total_s);
        let inner_s = (inner.end_ns - inner.start_ns) as f64 * 1e-9;
        assert!((o.total_s - o.self_s - inner_s).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.records().is_empty());
    }

    #[test]
    fn worker_spans_name_their_parent_and_request() {
        let t = Tracer::new(true);
        let root = t.span("phase");
        let root_id = root.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _q = t.span_under("query", root_id, 42, true);
                let _skipped = t.span_under("query", root_id, 43, false);
            });
        });
        drop(root);
        let q: Vec<_> = t
            .records()
            .into_iter()
            .filter(|s| s.name == "query")
            .collect();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].parent, root_id);
        assert_eq!(q[0].request, 42);
    }
}
