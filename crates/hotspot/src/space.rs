//! Metric spaces mean-shift can run in, and their window means.
//!
//! Locations live in a planar 2-D space; times of day live on a circle
//! (23:55 and 00:05 are ten minutes apart). Mean-shift needs a distance
//! ([`Space`]) and flat-window means, which each space answers without
//! copying the window: a [`Grid2D`] scan on the plane, prefix sums on the
//! circle.

use std::ops::Range;

use mobility::GeoPoint;

use crate::grid::Grid2D;

/// A metric space with the distance mean-shift needs.
pub trait Space {
    /// A point in the space.
    type Point: Copy + PartialEq + std::fmt::Debug;

    /// Distance between two points.
    fn dist(&self, a: Self::Point, b: Self::Point) -> f64;
}

/// The planar 2-D space of geographic coordinates (degree space; see
/// [`GeoPoint::dist`] for why planar is adequate at city scale).
#[derive(Debug, Clone, Copy, Default)]
pub struct Planar2D;

impl Space for Planar2D {
    type Point = GeoPoint;

    #[inline]
    fn dist(&self, a: GeoPoint, b: GeoPoint) -> f64 {
        a.dist(&b)
    }
}

/// Centroid of the points of `grid` within `radius` of `q`, summed in
/// [`Grid2D::for_each_within`]'s visiting order; `None` for an empty window.
pub(crate) fn planar_window_mean(grid: &Grid2D, q: GeoPoint, radius: f64) -> Option<GeoPoint> {
    let (mut lat, mut lon, mut n) = (0.0, 0.0, 0usize);
    grid.for_each_within(q, radius, |_, p| {
        lat += p.lat;
        lon += p.lon;
        n += 1;
    });
    (n > 0).then(|| GeoPoint::new(lat / n as f64, lon / n as f64))
}

/// The circle `[0, period)`, used for time of day with `period = 86 400`.
#[derive(Debug, Clone, Copy)]
pub struct Circular1D {
    /// Circumference of the circle.
    pub period: f64,
}

impl Circular1D {
    /// A circle of the given period.
    pub fn new(period: f64) -> Self {
        assert!(period > 0.0);
        Self { period }
    }

    /// Signed shortest displacement from `a` to `b` in `(-period/2, period/2]`.
    #[inline]
    pub fn signed_diff(&self, a: f64, b: f64) -> f64 {
        let mut d = (b - a).rem_euclid(self.period);
        if d > self.period / 2.0 {
            d -= self.period;
        }
        d
    }

    /// Wraps `x` into `[0, period)`.
    #[inline]
    pub fn wrap(&self, x: f64) -> f64 {
        x.rem_euclid(self.period)
    }

    /// Calls `f(range, shift)` for the one or two ranges of ascending,
    /// wrapped `sorted` that hold the values within `radius` of `q` (ends
    /// inclusive); adding `shift` moves a range's values next to `q` on the
    /// real line. Needs `2·radius < period`, or the ranges overlap.
    pub(crate) fn window_ranges<F>(&self, sorted: &[f64], q: f64, radius: f64, mut f: F)
    where
        F: FnMut(Range<usize>, f64),
    {
        let (lo, hi, period) = (q - radius, q + radius, self.period);
        let mut range = |a: f64, b: f64, shift: f64| {
            f(
                sorted.partition_point(|&v| v < a)..sorted.partition_point(|&v| v <= b),
                shift,
            )
        };
        if lo < 0.0 {
            range(0.0, hi, 0.0);
            range(lo + period, period, -period);
        } else if hi > period {
            range(lo, period, 0.0);
            range(0.0, hi - period, period);
        } else {
            range(lo, hi, 0.0);
        }
    }

    /// Mean of the values of `sorted` within `radius` of `q`, taken on the
    /// circle and wrapped; `None` for an empty window. `prefix[i]` is the
    /// sum of `sorted[..i]`, so a mean costs two binary searches and two
    /// lookups per window range, O(log n) however many values it averages.
    pub(crate) fn window_mean(
        &self,
        sorted: &[f64],
        prefix: &[f64],
        q: f64,
        radius: f64,
    ) -> Option<f64> {
        let (mut sum, mut n) = (0.0, 0usize);
        self.window_ranges(sorted, q, radius, |r, shift| {
            sum += prefix[r.end] - prefix[r.start] + shift * r.len() as f64;
            n += r.len();
        });
        (n > 0).then(|| self.wrap(sum / n as f64))
    }
}

impl Space for Circular1D {
    type Point = f64;

    #[inline]
    fn dist(&self, a: f64, b: f64) -> f64 {
        self.signed_diff(a, b).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::rng::normal;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Wrapped, sorted `values` and their prefix sums.
    fn sorted_with_prefix(values: &[f64], circle: Circular1D) -> (Vec<f64>, Vec<f64>) {
        let mut sorted: Vec<f64> = values.iter().map(|&v| circle.wrap(v)).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let prefix = std::iter::once(0.0)
            .chain(sorted.iter().scan(0.0, |sum, &v| {
                *sum += v;
                Some(*sum)
            }))
            .collect();
        (sorted, prefix)
    }

    /// The window-copy mean the prefix sums replaced: collect the members
    /// segment by segment, then average their signed displacements from
    /// `q`. Returns the member count and the mean.
    fn copied_window_mean(sorted: &[f64], circle: Circular1D, h: f64, q: f64) -> (usize, f64) {
        let period = circle.period;
        let (lo, hi) = (q - h, q + h);
        let mut window = Vec::new();
        let mut scan = |a: f64, b: f64| {
            let start = sorted.partition_point(|&v| v < a);
            let end = sorted.partition_point(|&v| v <= b);
            window.extend_from_slice(&sorted[start..end]);
        };
        if lo < 0.0 {
            scan(0.0, hi);
            scan(lo + period, period);
        } else if hi > period {
            scan(lo, period);
            scan(0.0, hi - period);
        } else {
            scan(lo, hi);
        }
        let mean_diff = window
            .iter()
            .map(|&p| circle.signed_diff(q, p))
            .sum::<f64>()
            / window.len() as f64;
        (window.len(), circle.wrap(q + mean_diff))
    }

    #[test]
    fn planar_mean_is_centroid() {
        let s = Planar2D;
        let pts = [GeoPoint::new(0.0, 0.0), GeoPoint::new(2.0, 4.0)];
        let m = planar_window_mean(&Grid2D::build(&pts, 5.0), pts[0], 5.0).unwrap();
        assert!((m.lat - 1.0).abs() < 1e-12);
        assert!((m.lon - 2.0).abs() < 1e-12);
        assert!((s.dist(pts[0], pts[1]) - 20f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn circular_distance_wraps() {
        let c = Circular1D::new(24.0);
        assert!((c.dist(23.5, 0.5) - 1.0).abs() < 1e-12);
        assert!((c.dist(0.5, 23.5) - 1.0).abs() < 1e-12);
        assert!((c.dist(6.0, 18.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn circular_signed_diff_signs() {
        let c = Circular1D::new(24.0);
        assert!(c.signed_diff(23.0, 1.0) > 0.0);
        assert!(c.signed_diff(1.0, 23.0) < 0.0);
        assert_eq!(c.signed_diff(5.0, 5.0), 0.0);
    }

    #[test]
    fn circular_mean_crosses_midnight() {
        let c = Circular1D::new(24.0);
        // Points straddling midnight average near midnight, not noon.
        let (sorted, prefix) = sorted_with_prefix(&[23.0, 1.0], c);
        let m = c.window_mean(&sorted, &prefix, 23.5, 1.5).unwrap();
        assert!(m >= 23.9 || m <= 0.1, "mean {m}");
    }

    #[test]
    fn circular_wrap() {
        let c = Circular1D::new(24.0);
        assert_eq!(c.wrap(25.0), 1.0);
        assert_eq!(c.wrap(-1.0), 23.0);
    }

    #[test]
    #[should_panic]
    fn circular_rejects_nonpositive_period() {
        Circular1D::new(0.0);
    }

    #[test]
    fn planar_mean_sums_in_scan_order_like_a_copied_window() {
        let mut rng = StdRng::seed_from_u64(11);
        let pts: Vec<GeoPoint> = (0..2000)
            .map(|i| {
                let c = (i % 5) as f64 * 0.01;
                GeoPoint::new(
                    normal(&mut rng, 34.0 + c, 0.004),
                    normal(&mut rng, -118.0, 0.004),
                )
            })
            .collect();
        let h = 0.008;
        let grid = Grid2D::build(&pts, h);
        for q in pts.iter().step_by(7) {
            let copied = grid.within(*q, h);
            let n = copied.len() as f64;
            let (mut lat, mut lon) = (0.0, 0.0);
            for p in &copied {
                lat += p.lat;
                lon += p.lon;
            }
            let got = planar_window_mean(&grid, *q, h).unwrap();
            assert_eq!(got.lat.to_bits(), (lat / n).to_bits(), "q={q:?}");
            assert_eq!(got.lon.to_bits(), (lon / n).to_bits(), "q={q:?}");
        }
        assert_eq!(planar_window_mean(&grid, GeoPoint::new(0.0, 0.0), h), None);
    }

    #[test]
    fn prefix_sum_window_mean_matches_copied_window() {
        let period = 86_400.0;
        let circle = Circular1D::new(period);
        let mut rng = StdRng::seed_from_u64(12);
        // Whole seconds, as `second_of_day` yields: their prefix sums are
        // exact, so at working bandwidths the means agree within 1e-9 s.
        // Fractional seconds round each prefix sum, by at most one ulp of
        // the total, and very wide windows round the copied sum as much,
        // so those cases are held to that bound instead.
        let n = 20_000;
        let whole: Vec<f64> = (0..n).map(|_| rng.random_range(0..86_400) as f64).collect();
        let fractional: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..period)).collect();
        let one_ulp_of_total = f64::EPSILON * n as f64 * period;
        for (values, bandwidths, tolerance) in [
            (&whole, &[60.0, 1800.0, 7200.0][..], 1e-9),
            (&whole, &[20_000.0, 43_000.0][..], one_ulp_of_total),
            (
                &fractional,
                &[60.0, 1800.0, 7200.0, 43_000.0][..],
                one_ulp_of_total,
            ),
        ] {
            for &h in bandwidths {
                let (sorted, prefix) = sorted_with_prefix(values, circle);
                let sorted = &sorted[..];
                // Windows crossing 0 and `period`, at and between points.
                let mut queries = vec![0.0, 1e-9, h / 2.0, h, period - h / 2.0, period - 1e-9];
                queries.extend(sorted.iter().step_by(97));
                queries.extend((0..200).map(|_| rng.random_range(0.0..period)));
                for q in queries {
                    let (want_n, want) = copied_window_mean(sorted, circle, h, q);
                    let mut got_n = 0;
                    circle.window_ranges(sorted, q, h, |r, _| got_n += r.len());
                    assert_eq!(got_n, want_n, "h={h} q={q}");
                    let got = circle.window_mean(sorted, &prefix, q, h).unwrap();
                    let err = circle.dist(got, want);
                    assert!(err <= tolerance, "h={h} q={q}: off by {err} s");
                }
            }
        }
    }
}
