//! The global telemetry registry and RAII spans.
//!
//! Spans form a tree by *runtime nesting*: a span opened while another span
//! is open on the same thread becomes its child. The registry aggregates
//! closed spans by their full nesting path (components joined with `>`), so
//! a stage executed many times — e.g. `core.fit.train` once per `fit` call —
//! accumulates a call count and total duration rather than a new entry.
//!
//! Span bookkeeping takes a mutex, so spans are for *stages* (tens per
//! run), not per-sample work; hot loops use [`crate::Counter`] instead.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::metrics::{
    Counter, CounterCell, CounterSnapshot, Histogram, HistogramCell, HistogramSnapshot,
};

/// Separator between nested span names in an aggregated path.
pub const PATH_SEP: char = '>';

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times a span with this path closed.
    pub count: u64,
    /// Total time spent inside, summed over all closures.
    pub total_ns: u64,
}

/// A span that is open right now somewhere in the process.
#[derive(Debug, Clone)]
pub struct ActiveSpan {
    /// Full nesting path of the open span.
    pub path: String,
    /// When it was opened.
    pub start: Instant,
}

pub(crate) struct Registry {
    pub(crate) start: Instant,
    spans: Mutex<HashMap<String, SpanStat>>,
    counters: Mutex<HashMap<String, Arc<CounterCell>>>,
    histograms: Mutex<HashMap<String, Arc<HistogramCell>>>,
    active: Mutex<HashMap<u64, ActiveSpan>>,
    next_span_id: AtomicU64,
}

pub(crate) fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        start: Instant::now(),
        spans: Mutex::new(HashMap::new()),
        counters: Mutex::new(HashMap::new()),
        histograms: Mutex::new(HashMap::new()),
        active: Mutex::new(HashMap::new()),
        next_span_id: AtomicU64::new(1),
    })
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one timed stage. Created by [`crate::span()`] /
/// [`crate::span!`]; recording happens on drop (or explicitly via
/// [`Span::finish`] when the caller wants the duration back).
///
/// Not `Send`: a span must close on the thread that opened it, because the
/// nesting stack is thread-local.
pub struct Span {
    path: String,
    start: Instant,
    id: u64,
    recorded: bool,
    _not_send: PhantomData<*const ()>,
}

pub(crate) fn enter(name: &str) -> Span {
    debug_assert!(
        !name.contains(PATH_SEP),
        "span name `{name}` must not contain `{PATH_SEP}` (reserved as the path separator)"
    );
    let reg = global();
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name.to_string());
        stack.join(&PATH_SEP.to_string())
    });
    let start = Instant::now();
    let id = reg.next_span_id.fetch_add(1, Ordering::Relaxed);
    reg.active.lock().unwrap().insert(
        id,
        ActiveSpan {
            path: path.clone(),
            start,
        },
    );
    Span {
        path,
        start,
        id,
        recorded: false,
        _not_send: PhantomData,
    }
}

impl Span {
    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The full nesting path (`parent>child>...`) this span records under.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Closes the span now and returns how long it was open.
    pub fn finish(mut self) -> Duration {
        self.record();
        self.start.elapsed()
    }

    fn record(&mut self) {
        if self.recorded {
            return;
        }
        self.recorded = true;
        let elapsed = self.start.elapsed();
        let reg = global();
        reg.active.lock().unwrap().remove(&self.id);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(
                stack.last().map(String::as_str),
                self.path.rsplit(PATH_SEP).next(),
                "spans must close in LIFO order"
            );
            stack.pop();
        });
        let mut spans = reg.spans.lock().unwrap();
        let stat = spans.entry(self.path.clone()).or_default();
        stat.count += 1;
        stat.total_ns += elapsed.as_nanos() as u64;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

/// Returns the counter registered under `name`, creating it on first use.
pub fn counter(name: &str) -> Counter {
    let mut counters = global().counters.lock().unwrap();
    let cell = counters
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(CounterCell::new()));
    Counter {
        cell: Arc::clone(cell),
    }
}

/// Returns the histogram registered under `name`, creating it on first use.
pub fn histogram(name: &str) -> Histogram {
    let mut histograms = global().histograms.lock().unwrap();
    let cell = histograms
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(HistogramCell::new()));
    Histogram {
        name: name.to_string(),
        cell: Arc::clone(cell),
    }
}

/// Point-in-time view of the whole registry. Sorted by name/path so output
/// and JSON are deterministic.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Seconds since the registry was first touched in this process.
    pub elapsed_s: f64,
    /// Closed-span aggregates, keyed by full nesting path.
    pub spans: Vec<(String, SpanStat)>,
    pub counters: Vec<CounterSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
    /// Spans open at the moment of the snapshot, with seconds open.
    pub active: Vec<(String, f64)>,
}

/// Takes a consistent-enough snapshot of all spans, counters, histograms,
/// and currently open spans. Counter reads are relaxed, so a concurrently
/// incremented counter may be up to one tick stale — acceptable for
/// telemetry.
pub fn snapshot() -> Snapshot {
    let reg = global();
    let mut spans: Vec<(String, SpanStat)> = reg
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    spans.sort_by(|a, b| a.0.cmp(&b.0));

    let mut counters: Vec<CounterSnapshot> = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(name, cell)| CounterSnapshot {
            name: name.clone(),
            value: cell.value(),
        })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));

    let mut histograms: Vec<HistogramSnapshot> = reg
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|(name, cell)| cell.load(name))
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));

    let mut active: Vec<(String, f64)> = reg
        .active
        .lock()
        .unwrap()
        .values()
        .map(|a| (a.path.clone(), a.start.elapsed().as_secs_f64()))
        .collect();
    active.sort_by(|a, b| a.0.cmp(&b.0));

    Snapshot {
        elapsed_s: reg.start.elapsed().as_secs_f64(),
        spans,
        counters,
        histograms,
        active,
    }
}

/// Zeroes all recorded data: span aggregates are cleared, counter and
/// histogram cells are reset **in place** so handles held by callers keep
/// working. Spans that are open right now are unaffected and will record
/// into the cleared map when they close.
pub fn reset() {
    let reg = global();
    reg.spans.lock().unwrap().clear();
    for cell in reg.counters.lock().unwrap().values() {
        cell.reset();
    }
    for cell in reg.histograms.lock().unwrap().values() {
        cell.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_the_cell() {
        let a = counter("registry.test.shared");
        let b = counter("registry.test.shared");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        assert_eq!(b.value(), 7);
    }

    #[test]
    fn spans_nest_and_aggregate_by_path() {
        {
            let _outer = enter("registry.test.outer");
            for _ in 0..3 {
                let _inner = enter("inner");
            }
        }
        let snap = snapshot();
        let stat = |path: &str| {
            snap.spans
                .iter()
                .find(|(p, _)| p == path)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("no span {path} in {:?}", snap.spans))
        };
        assert_eq!(stat("registry.test.outer").count, 1);
        let inner = stat("registry.test.outer>inner");
        assert_eq!(inner.count, 3);
        assert!(stat("registry.test.outer").total_ns >= inner.total_ns);
    }

    #[test]
    fn active_spans_visible_until_dropped() {
        let span = enter("registry.test.active");
        assert!(
            snapshot()
                .active
                .iter()
                .any(|(p, _)| p == "registry.test.active"),
            "open span should appear in the active list"
        );
        drop(span);
        assert!(!snapshot()
            .active
            .iter()
            .any(|(p, _)| p == "registry.test.active"));
    }

    #[test]
    fn finish_returns_elapsed_and_records_once() {
        let span = enter("registry.test.finish");
        let d = span.finish();
        assert!(d.as_nanos() > 0);
        let snap = snapshot();
        let (_, stat) = snap
            .spans
            .iter()
            .find(|(p, _)| p == "registry.test.finish")
            .unwrap();
        assert_eq!(stat.count, 1);
    }
}
