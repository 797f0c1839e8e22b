//! Latency samples and order statistics.
//!
//! Every latency the benchmark reports is kept here as raw nanoseconds,
//! sorted once per run, and read by nearest rank. Nothing is read from the
//! program's own `obs` histograms, whose log2 buckets cannot resolve a
//! percentile. A sample set keeps at most [`KEEP`] values, a uniform
//! reservoir of everything pushed, so the benchmark's own memory does not
//! grow with the program's speed (it would show in `peak_rss_mb`).

use std::time::{Duration, Instant};

/// Most samples one set keeps.
pub const KEEP: usize = 1 << 16;

/// Raw nanosecond samples of one latency.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Kept samples: all of them up to `KEEP`, then a uniform reservoir.
    ns: Vec<u64>,
    sorted: bool,
    /// Samples pushed, and their exact sum.
    seen: u64,
    sum_ns: f64,
    /// Reservoir replacement stream (xorshift64).
    state: u64,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.push_ns(d.as_nanos() as u64);
    }

    fn push_ns(&mut self, v: u64) {
        self.seen += 1;
        self.sum_ns += v as f64;
        self.sorted = false;
        if self.ns.len() < KEEP {
            self.ns.push(v);
            return;
        }
        // Algorithm R: the `seen`-th sample replaces a kept one with
        // probability KEEP / seen.
        if self.state == 0 {
            self.state = 0x9E37_79B9_7F4A_7C15;
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let slot = self.state % self.seen;
        if (slot as usize) < KEEP {
            self.ns[slot as usize] = v;
        }
    }

    /// Adds another set's samples. Past `KEEP`, the merge is a reservoir
    /// of the other set's kept samples, weighted by its kept share only.
    pub fn extend(&mut self, other: Samples) {
        let (seen, sum) = (self.seen + other.seen, self.sum_ns + other.sum_ns);
        for v in other.ns {
            self.push_ns(v);
        }
        self.seen = seen;
        self.sum_ns = sum;
    }

    /// Samples pushed (kept or not).
    pub fn len(&self) -> usize {
        self.seen as usize
    }

    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = (q * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1] as f64
    }

    /// Exact mean of every sample pushed.
    pub fn mean_ns(&self) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        self.sum_ns / self.seen as f64
    }
}

/// Samples bucketed into equal time windows of a phase. The reported
/// figure is the median over windows of each window's figure, so a stall
/// of the host that hits one window moves one of them, not the median.
#[derive(Debug, Clone)]
pub struct Windowed {
    start: Instant,
    window: Duration,
    buckets: Vec<Samples>,
}

/// Length of one window.
pub const WINDOW_SECS: f64 = 0.5;

impl Windowed {
    /// Windows of [`WINDOW_SECS`] over `phase` seconds from `start` (at
    /// least one).
    pub fn new(start: Instant, phase: f64) -> Self {
        let n = ((phase / WINDOW_SECS).round() as usize).max(1);
        let window = Duration::from_secs_f64(phase / n as f64).max(Duration::from_micros(1));
        Self {
            start,
            window,
            buckets: vec![Samples::new(); n],
        }
    }

    /// Records `d` in the window holding `at`; samples after the phase
    /// land in the last window.
    pub fn push(&mut self, at: Instant, d: Duration) {
        let i = at.saturating_duration_since(self.start).as_nanos() / self.window.as_nanos();
        let last = self.buckets.len() - 1;
        self.buckets[(i as usize).min(last)].push(d);
    }

    /// Adds the windows of a later phase after these.
    pub fn append(&mut self, other: Windowed) {
        self.buckets.extend(other.buckets);
    }

    /// Adds samples taken over the same windows.
    pub fn merge(&mut self, other: Windowed) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets) {
            b.extend(o);
        }
    }

    pub fn len(&self) -> usize {
        self.buckets.iter().map(Samples::len).sum()
    }

    /// Median over windows holding at least `min` samples of each
    /// window's `q`-quantile, in nanoseconds; the quantile of all samples
    /// when no window holds that many.
    pub fn quantile_ns(&mut self, q: f64, min: usize) -> f64 {
        let per_window = self.per_window_ns(q, min);
        if per_window.is_empty() {
            let mut all = Samples::new();
            for b in &self.buckets {
                all.extend(b.clone());
            }
            return all.quantile_ns(q);
        }
        median(&per_window)
    }

    /// The `q`-quantile of each window holding at least `min` samples, in
    /// nanoseconds, in window order.
    fn per_window_ns(&mut self, q: f64, min: usize) -> Vec<f64> {
        self.buckets
            .iter_mut()
            .filter(|b| b.len() >= min.max(1))
            .map(|b| b.quantile_ns(q))
            .collect()
    }

    /// The same per-window quantiles in units of `unit_ns`, as a list for
    /// the run record: it shows how the host's state moved during a phase.
    pub fn describe(&mut self, q: f64, min: usize, unit_ns: f64) -> String {
        self.per_window_ns(q, min)
            .iter()
            .map(|v| format!("{:.4}", v / unit_ns))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// CPU time the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`); it
/// stands still while the thread is not running. `None` where the clock
/// is not available.
pub fn thread_cpu_time() -> Option<Duration> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut t = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `t` is a valid, writable timespec for the whole call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
        (rc == 0).then(|| Duration::new(t.tv_sec as u64, t.tv_nsec as u32))
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Median of a non-empty list of values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Runs `f`, returning its value and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for i in 1..=100u64 {
            s.push(Duration::from_nanos(i));
        }
        assert_eq!(s.quantile_ns(0.5), 50.0);
        assert_eq!(s.quantile_ns(0.99), 99.0);
        assert_eq!(s.quantile_ns(1.0), 100.0);
        assert_eq!(s.mean_ns(), 50.5);
    }

    #[test]
    fn reservoir_keeps_memory_bounded_and_mean_exact() {
        let mut s = Samples::new();
        let n = 4 * KEEP as u64;
        for i in 0..n {
            s.push(Duration::from_nanos(i % 1000));
        }
        assert_eq!(s.len(), n as usize);
        assert_eq!(s.ns.len(), KEEP);
        let exact = (0..n).map(|i| (i % 1000) as f64).sum::<f64>() / n as f64;
        assert!((s.mean_ns() - exact).abs() < 1e-6);
        let p50 = s.quantile_ns(0.5);
        assert!((p50 - 500.0).abs() < 20.0, "reservoir median {p50}");
    }

    #[test]
    fn windowed_median_ignores_one_stalled_window() {
        let start = Instant::now();
        let mut w = Windowed::new(start, 8.0 * WINDOW_SECS);
        for i in 0..8u64 {
            let at = start + Duration::from_secs_f64((i as f64 + 0.5) * WINDOW_SECS);
            let slow = if i == 3 { 1000 } else { 1 };
            for _ in 0..100 {
                w.push(at, Duration::from_micros(slow));
            }
        }
        assert_eq!(w.len(), 800);
        assert_eq!(w.quantile_ns(0.99, 100), 1000.0);
        // Too few samples per window: fall back to all samples.
        assert_eq!(w.quantile_ns(0.99, 1000), 1_000_000.0);
    }

    #[test]
    fn thread_cpu_time_stands_still_while_sleeping() {
        let Some(a) = thread_cpu_time() else {
            return;
        };
        std::thread::sleep(Duration::from_millis(50));
        let b = thread_cpu_time().unwrap();
        assert!(
            b >= a && b - a < Duration::from_millis(25),
            "{a:?} -> {b:?}"
        );
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
