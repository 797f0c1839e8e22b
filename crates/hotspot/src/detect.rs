//! End-to-end hotspot detectors with nearest-hotspot assignment.
//!
//! These wrap the mean-shift machinery into the two detectors the ACTOR
//! pipeline needs: spatial hotspots over record locations and temporal
//! hotspots over records' time of day. After detection, any data point is
//! assigned to its closest hotspot (§4.3 last paragraph) — that assignment
//! defines the `L`/`T` vertices each record contributes to the activity
//! graph.

use mobility::{GeoPoint, SECONDS_PER_DAY};

use crate::grid::Grid2D;
use crate::meanshift::{MeanShift, MeanShiftParams};
use crate::space::{planar_window_mean, Circular1D, Planar2D, Space};

/// Identifier of a spatial hotspot (index into [`SpatialHotspots::centers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpatialHotspotId(pub u32);

impl SpatialHotspotId {
    /// Index form.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a temporal hotspot (index into [`TemporalHotspots::centers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TemporalHotspotId(pub u32);

impl TemporalHotspotId {
    /// Index form.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Detected spatial hotspots plus an assignment index.
#[derive(Debug, Clone)]
pub struct SpatialHotspots {
    centers: Vec<GeoPoint>,
    counts: Vec<usize>,
    index: Grid2D,
}

impl SpatialHotspots {
    /// Runs mean-shift over `points` and assigns each point to its nearest
    /// mode. `min_support` drops hotspots that attract fewer points.
    pub fn detect(points: &[GeoPoint], params: MeanShiftParams, min_support: usize) -> Self {
        assert!(!points.is_empty(), "cannot detect hotspots in empty data");
        let _span = obs::span!("hotspot.spatial.detect");
        let window = Grid2D::build(points, params.bandwidth);
        let ms = MeanShift::new(Planar2D, params);
        let modes = ms.run(points, |q| planar_window_mean(&window, q, params.bandwidth));
        let mut centers: Vec<GeoPoint> = modes.iter().map(|m| m.point).collect();

        // Assign every point to its nearest mode and keep well-supported
        // modes only.
        let mode_index = Grid2D::build(&centers, params.bandwidth.max(1e-9));
        let counts = count_nearest(points, centers.len(), |p| mode_index.nearest(*p) as usize);
        let keep: Vec<usize> = (0..centers.len())
            .filter(|&i| counts[i] >= min_support)
            .collect();
        // Degenerate guard: keep at least the best-supported mode.
        let keep = if keep.is_empty() { vec![0] } else { keep };
        obs::counter("hotspot.spatial.kept").add(keep.len() as u64);
        obs::counter("hotspot.spatial.dropped").add((centers.len() - keep.len()) as u64);
        centers = keep.iter().map(|&i| centers[i]).collect();

        let index = Grid2D::build(&centers, params.bandwidth.max(1e-9));
        let final_counts = count_nearest(points, centers.len(), |p| index.nearest(*p) as usize);
        Self {
            centers,
            counts: final_counts,
            index,
        }
    }

    /// Rebuilds the structure from previously detected centers (model
    /// loading); counts are zeroed since the raw data is gone.
    ///
    /// Panics on empty `centers`.
    pub fn from_centers(centers: &[GeoPoint], params: MeanShiftParams) -> Self {
        assert!(!centers.is_empty(), "need at least one center");
        let index = Grid2D::build(centers, params.bandwidth.max(1e-9));
        Self {
            centers: centers.to_vec(),
            counts: vec![0; centers.len()],
            index,
        }
    }

    /// Hotspot centers.
    pub fn centers(&self) -> &[GeoPoint] {
        &self.centers
    }

    /// Points assigned to each hotspot during detection.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Number of hotspots.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True if no hotspots were found (never true after `detect`).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Nearest hotspot to `p` (the §4.3 assignment rule).
    pub fn assign(&self, p: GeoPoint) -> SpatialHotspotId {
        SpatialHotspotId(self.index.nearest(p))
    }

    /// The hotspot's center.
    pub fn center(&self, id: SpatialHotspotId) -> GeoPoint {
        self.centers[id.idx()]
    }
}

/// Detected temporal hotspots (time-of-day modes) plus assignment.
///
/// ```
/// use hotspot::{TemporalHotspots, MeanShiftParams};
///
/// // A burst of lunchtime activity around 12:30.
/// let seconds: Vec<f64> = (0..200).map(|i| 45_000.0 + (i % 40) as f64 * 30.0).collect();
/// let hotspots = TemporalHotspots::detect(
///     &seconds, MeanShiftParams::with_bandwidth(1800.0), 5);
/// assert_eq!(hotspots.len(), 1);
/// // New timestamps are assigned to the closest mode (§4.3).
/// assert_eq!(hotspots.assign(46_000.0).idx(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TemporalHotspots {
    /// Mode positions in seconds of day, ascending.
    centers: Vec<f64>,
    counts: Vec<usize>,
    circle: Circular1D,
}

impl TemporalHotspots {
    /// Runs circular mean-shift over seconds-of-day (period 86 400).
    pub fn detect(seconds: &[f64], params: MeanShiftParams, min_support: usize) -> Self {
        Self::detect_with_period(seconds, SECONDS_PER_DAY as f64, params, min_support)
    }

    /// Runs circular mean-shift with an explicit period — e.g.
    /// `SECONDS_PER_WEEK` to capture weekday/weekend rhythms instead of
    /// daily ones. Values are wrapped into `[0, period)`.
    ///
    /// Panics unless `2 · params.bandwidth < period`: a wider window would
    /// overlap itself and count points twice.
    pub fn detect_with_period(
        seconds: &[f64],
        period: f64,
        params: MeanShiftParams,
        min_support: usize,
    ) -> Self {
        assert!(!seconds.is_empty(), "cannot detect hotspots in empty data");
        assert!(period > 0.0, "period must be positive");
        let _span = obs::span!("hotspot.temporal.detect");
        let h = params.bandwidth;
        assert!(2.0 * h < period, "bandwidth must be below half the period");
        let circle = Circular1D::new(period);
        let mut sorted: Vec<f64> = seconds.iter().map(|&s| circle.wrap(s)).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite seconds"));
        // prefix[i] is the sum of sorted[..i].
        let mut prefix = vec![0.0; sorted.len() + 1];
        for (i, &v) in sorted.iter().enumerate() {
            prefix[i + 1] = prefix[i] + v;
        }
        let ms = MeanShift::new(circle, params);
        let modes = ms.run(&sorted, |q| circle.window_mean(&sorted, &prefix, q, h));
        let mut centers: Vec<f64> = modes.iter().map(|m| m.point).collect();

        let mut keep_counts = assign_counts(&centers, &sorted, circle);
        let keep: Vec<usize> = (0..centers.len())
            .filter(|&i| keep_counts[i] >= min_support)
            .collect();
        let keep = if keep.is_empty() { vec![0] } else { keep };
        obs::counter("hotspot.temporal.kept").add(keep.len() as u64);
        obs::counter("hotspot.temporal.dropped").add((centers.len() - keep.len()) as u64);
        centers = keep.iter().map(|&i| centers[i]).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).expect("finite centers"));
        keep_counts = assign_counts(&centers, &sorted, circle);

        Self {
            centers,
            counts: keep_counts,
            circle,
        }
    }

    /// Rebuilds the structure from previously detected centers with a
    /// daily period (model loading); counts are zeroed since the raw data
    /// is gone. Panics on empty `centers`.
    pub fn from_centers(centers: &[f64]) -> Self {
        Self::from_centers_with_period(centers, SECONDS_PER_DAY as f64)
    }

    /// Like [`TemporalHotspots::from_centers`] with an explicit period.
    pub fn from_centers_with_period(centers: &[f64], period: f64) -> Self {
        assert!(!centers.is_empty(), "need at least one center");
        assert!(period > 0.0, "period must be positive");
        let mut centers = centers.to_vec();
        centers.sort_by(|a, b| a.partial_cmp(b).expect("finite centers"));
        let counts = vec![0; centers.len()];
        Self {
            centers,
            counts,
            circle: Circular1D::new(period),
        }
    }

    /// The circular period in seconds (86 400 for daily hotspots).
    pub fn period(&self) -> f64 {
        self.circle.period
    }

    /// Assigns a raw timestamp by wrapping it into this detector's period.
    pub fn assign_timestamp(&self, t: mobility::Timestamp) -> TemporalHotspotId {
        self.assign((t as f64).rem_euclid(self.circle.period))
    }

    /// Hotspot centers in seconds of day, ascending.
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// Points assigned to each hotspot during detection.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Number of hotspots.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True if no hotspots were found (never true after `detect`).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Nearest hotspot to second-of-day `s` on the circle (the lowest id of
    /// equally near ones), by binary search over the sorted centers.
    pub fn assign(&self, s: f64) -> TemporalHotspotId {
        TemporalHotspotId(nearest_center(&self.centers, self.circle, s, |k| k) as u32)
    }

    /// The hotspot's center second of day.
    pub fn center(&self, id: TemporalHotspotId) -> f64 {
        self.centers[id.idx()]
    }
}

/// Per-center counts of `points` by `nearest`, sharded over points and
/// merged by element-wise addition — integer counts, so the parallel total
/// is identical to the serial loop.
fn count_nearest<T: Sync>(
    points: &[T],
    n_centers: usize,
    nearest: impl Fn(&T) -> usize + Sync,
) -> Vec<usize> {
    par::par_accumulate(
        points,
        || vec![0usize; n_centers],
        |acc, _, p| acc[nearest(p)] += 1,
        |total, acc| {
            for (t, a) in total.iter_mut().zip(acc) {
                *t += a;
            }
        },
    )
}

/// Index of the center nearest `s` on `circle`, by a linear scan's rule:
/// of equally near centers the lowest index wins. `sorted` holds the
/// centers ascending and `index(k)` is the index of `sorted[k]`, rising
/// with `k` among equal centers. Only the two circular neighbours of `s`
/// can be nearest, so a binary search finds them and only they are measured.
fn nearest_center(
    sorted: &[f64],
    circle: Circular1D,
    s: f64,
    index: impl Fn(usize) -> usize,
) -> usize {
    let n = sorted.len();
    let above = sorted.partition_point(|&c| c < circle.wrap(s));
    // The first of a run of equal centers has the lowest index.
    let below = sorted.partition_point(|&c| c < sorted[(above + n - 1) % n]);
    let above = above % n;
    let (first, second) = if index(below) < index(above) {
        (below, above)
    } else {
        (above, below)
    };
    let nearer = circle.dist(s, sorted[second]) < circle.dist(s, sorted[first]);
    index(if nearer { second } else { first })
}

/// Per-center counts of `values` by [`nearest_center`], for centers in
/// any order.
fn assign_counts(centers: &[f64], values: &[f64], circle: Circular1D) -> Vec<usize> {
    // Stable sort, so equal centers stay in index order.
    let mut order: Vec<usize> = (0..centers.len()).collect();
    order.sort_by(|&a, &b| centers[a].partial_cmp(&centers[b]).expect("finite centers"));
    let sorted: Vec<f64> = order.iter().map(|&i| centers[i]).collect();
    count_nearest(values, centers.len(), |&v| {
        nearest_center(&sorted, circle, v, |k| order[k])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::rng::{normal, wrapped_normal};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The linear scan `nearest_center` replaced.
    fn linear_nearest(centers: &[f64], circle: Circular1D, s: f64) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &c) in centers.iter().enumerate() {
            let d = circle.dist(s, c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    #[test]
    fn spatial_detects_planted_clusters() {
        let mut rng = StdRng::seed_from_u64(1);
        let centers = [
            GeoPoint::new(34.00, -118.20),
            GeoPoint::new(34.10, -118.40),
            GeoPoint::new(33.80, -118.30),
        ];
        let mut pts = Vec::new();
        for c in &centers {
            for _ in 0..300 {
                pts.push(GeoPoint::new(
                    normal(&mut rng, c.lat, 0.005),
                    normal(&mut rng, c.lon, 0.005),
                ));
            }
        }
        let hs = SpatialHotspots::detect(&pts, MeanShiftParams::with_bandwidth(0.02), 5);
        assert_eq!(hs.len(), 3, "{:?}", hs.centers());
        for c in &centers {
            let id = hs.assign(*c);
            assert!(hs.center(id).dist(c) < 0.005);
        }
        assert_eq!(hs.counts().iter().sum::<usize>(), pts.len());
    }

    #[test]
    fn spatial_min_support_drops_noise_modes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pts: Vec<GeoPoint> = (0..500)
            .map(|_| {
                GeoPoint::new(normal(&mut rng, 0.0, 0.004), normal(&mut rng, 0.0, 0.004))
            })
            .collect();
        // One isolated outlier far away.
        pts.push(GeoPoint::new(1.0, 1.0));
        let strict = SpatialHotspots::detect(&pts, MeanShiftParams::with_bandwidth(0.02), 5);
        assert_eq!(strict.len(), 1);
        let lax = SpatialHotspots::detect(&pts, MeanShiftParams::with_bandwidth(0.02), 1);
        assert_eq!(lax.len(), 2);
    }

    #[test]
    fn temporal_detects_morning_and_evening_peaks() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut secs = Vec::new();
        for _ in 0..400 {
            secs.push(wrapped_normal(&mut rng, 8.5 * 3600.0, 1800.0, 86_400.0));
            secs.push(wrapped_normal(&mut rng, 21.0 * 3600.0, 1800.0, 86_400.0));
        }
        let hs = TemporalHotspots::detect(&secs, MeanShiftParams::with_bandwidth(3600.0), 10);
        assert_eq!(hs.len(), 2, "{:?}", hs.centers());
        // Centers are sorted ascending.
        assert!(hs.centers()[0] < hs.centers()[1]);
        assert!((hs.centers()[0] - 8.5 * 3600.0).abs() < 1200.0);
        assert!((hs.centers()[1] - 21.0 * 3600.0).abs() < 1200.0);
        // Assignment picks the closest mode, wrapping across midnight.
        let late = hs.assign(23.5 * 3600.0);
        assert_eq!(hs.center(late), hs.centers()[1]);
        assert_eq!(hs.counts().iter().sum::<usize>(), secs.len());
    }

    #[test]
    fn temporal_peak_straddling_midnight() {
        let mut rng = StdRng::seed_from_u64(4);
        let secs: Vec<f64> = (0..500)
            .map(|_| wrapped_normal(&mut rng, 23.8 * 3600.0, 1500.0, 86_400.0))
            .collect();
        let hs = TemporalHotspots::detect(&secs, MeanShiftParams::with_bandwidth(3600.0), 10);
        assert_eq!(hs.len(), 1, "{:?}", hs.centers());
        let circle = Circular1D::new(86_400.0);
        assert!(circle.dist(hs.centers()[0], 23.8 * 3600.0) < 1200.0);
    }

    #[test]
    fn from_centers_round_trips_assignment() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<GeoPoint> = (0..300)
            .map(|_| {
                GeoPoint::new(
                    normal(&mut rng, 34.0, 0.02),
                    normal(&mut rng, -118.2, 0.02),
                )
            })
            .collect();
        let params = MeanShiftParams::with_bandwidth(0.01);
        let detected = SpatialHotspots::detect(&pts, params, 2);
        let rebuilt = SpatialHotspots::from_centers(detected.centers(), params);
        assert_eq!(rebuilt.len(), detected.len());
        for p in pts.iter().step_by(7) {
            assert_eq!(rebuilt.assign(*p), detected.assign(*p));
        }
        // Counts are intentionally zeroed on rebuild.
        assert!(rebuilt.counts().iter().all(|&c| c == 0));

        let secs: Vec<f64> = (0..200)
            .map(|_| wrapped_normal(&mut rng, 20.0 * 3600.0, 3600.0, 86_400.0))
            .collect();
        let tdetected = TemporalHotspots::detect(&secs, MeanShiftParams::with_bandwidth(1800.0), 2);
        let trebuilt = TemporalHotspots::from_centers(tdetected.centers());
        assert_eq!(trebuilt.centers(), tdetected.centers());
        for &s in secs.iter().step_by(7) {
            assert_eq!(trebuilt.assign(s), tdetected.assign(s));
        }
    }

    #[test]
    #[should_panic]
    fn from_centers_rejects_empty() {
        SpatialHotspots::from_centers(&[], MeanShiftParams::with_bandwidth(0.01));
    }

    #[test]
    #[should_panic]
    fn spatial_rejects_empty() {
        SpatialHotspots::detect(&[], MeanShiftParams::with_bandwidth(0.01), 1);
    }

    #[test]
    #[should_panic]
    fn temporal_rejects_empty() {
        TemporalHotspots::detect(&[], MeanShiftParams::with_bandwidth(1800.0), 1);
    }

    #[test]
    #[should_panic(expected = "below half the period")]
    fn temporal_rejects_a_bandwidth_of_half_the_period() {
        let secs = [100.0, 200.0, 43_300.0];
        TemporalHotspots::detect(&secs, MeanShiftParams::with_bandwidth(43_200.0), 1);
    }

    #[test]
    fn nearest_center_matches_the_linear_scan() {
        let period = 86_400.0;
        let circle = Circular1D::new(period);
        let mut rng = StdRng::seed_from_u64(6);
        // Mode order (unsorted) with a duplicate, and the same set sorted.
        let mut modes: Vec<f64> = (0..12).map(|_| rng.random_range(0.0..period)).collect();
        modes.extend([modes[3], 10.0, period - 10.0]);
        let mut sorted = modes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let hotspots = TemporalHotspots::from_centers_with_period(&sorted, period);

        let mut queries: Vec<f64> = (0..5000).map(|_| rng.random_range(0.0..period)).collect();
        // Exact midpoints between circular neighbours, across midnight too.
        for w in sorted.windows(2) {
            queries.push((w[0] + w[1]) / 2.0);
        }
        queries.push(circle.wrap((sorted[sorted.len() - 1] + sorted[0] + period) / 2.0));
        queries.extend([
            0.0,
            1e-9,
            5.0,
            period - 5.0,
            period - 1e-9,
            period,
            -1.0,
            period + 1.0,
        ]);
        queries.extend(sorted.iter().copied());

        let mut order: Vec<usize> = (0..modes.len()).collect();
        order.sort_by(|&a, &b| modes[a].partial_cmp(&modes[b]).unwrap());
        let by_order: Vec<f64> = order.iter().map(|&i| modes[i]).collect();
        for &q in &queries {
            assert_eq!(
                hotspots.assign(q).idx(),
                linear_nearest(&sorted, circle, q),
                "q={q}"
            );
            assert_eq!(
                nearest_center(&by_order, circle, q, |k| order[k]),
                linear_nearest(&modes, circle, q),
                "mode order, q={q}"
            );
        }
        // Counts over data agree with the scan too.
        let values: Vec<f64> = queries.iter().map(|&q| circle.wrap(q)).collect();
        let mut want = vec![0usize; modes.len()];
        for &v in &values {
            want[linear_nearest(&modes, circle, v)] += 1;
        }
        assert_eq!(assign_counts(&modes, &values, circle), want);
    }

    #[test]
    fn spatial_mean_shift_matches_a_copied_window_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<GeoPoint> = (0..3000)
            .map(|i| {
                let c = (i % 6) as f64 * 0.015;
                GeoPoint::new(
                    normal(&mut rng, 34.0 + c, 0.006),
                    normal(&mut rng, -118.2 - c, 0.006),
                )
            })
            .collect();
        let params = MeanShiftParams::with_bandwidth(0.008);
        let h = params.bandwidth;
        let grid = Grid2D::build(&pts, h);
        let copied = |q: GeoPoint| {
            let window = grid.within(q, h);
            let (mut lat, mut lon) = (0.0, 0.0);
            for p in &window {
                lat += p.lat;
                lon += p.lon;
            }
            let n = window.len() as f64;
            (!window.is_empty()).then(|| GeoPoint::new(lat / n, lon / n))
        };
        let ms = MeanShift::new(Planar2D, params);
        let want = ms.run(&pts, copied);
        let got = ms.run(&pts, |q| planar_window_mean(&grid, q, h));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.seeds, w.seeds);
            assert_eq!(g.point.lat.to_bits(), w.point.lat.to_bits());
            assert_eq!(g.point.lon.to_bits(), w.point.lon.to_bits());
        }
    }
}
