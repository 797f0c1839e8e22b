//! Mean-shift mode seeking (paper Eq. 1).
//!
//! With the Epanechnikov kernel the mean-shift update is exactly
//! `y ← mean(points within bandwidth of y)`; the sequence converges to a
//! local maximum of the kernel density (a *hotspot*, Definition 5).
//! Converged points within a merge radius are collapsed into one mode.
//!
//! Callers pass a `window_mean` closure that answers this mean from an
//! index of their data ([`crate::space`]), so no iteration copies its window.

use crate::space::Space;

/// Mean-shift hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct MeanShiftParams {
    /// Window radius `h` of Eq. 1.
    pub bandwidth: f64,
    /// Maximum shift iterations per seed.
    pub max_iters: usize,
    /// Convergence threshold on the shift magnitude.
    pub tolerance: f64,
    /// Converged points closer than this are the same mode.
    pub merge_radius: f64,
    /// Upper bound on the number of seeds; data larger than this is
    /// strided deterministically. The paper seeds from every point (§4.3);
    /// striding only risks missing modes whose basin contains no seed,
    /// which assignment counts expose.
    pub max_seeds: usize,
}

impl MeanShiftParams {
    /// Reasonable defaults for a given bandwidth.
    pub fn with_bandwidth(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0);
        Self {
            bandwidth,
            max_iters: 60,
            tolerance: bandwidth * 1e-3,
            merge_radius: bandwidth * 0.5,
            max_seeds: 4096,
        }
    }
}

/// A detected density mode.
#[derive(Debug, Clone, Copy)]
pub struct Mode<P> {
    /// The mode's location.
    pub point: P,
    /// Number of seeds that converged into this mode.
    pub seeds: usize,
}

/// Mean-shift runner over a [`Space`].
#[derive(Debug, Clone)]
pub struct MeanShift<S: Space> {
    space: S,
    params: MeanShiftParams,
}

impl<S: Space> MeanShift<S> {
    /// Creates a runner.
    pub fn new(space: S, params: MeanShiftParams) -> Self {
        Self { space, params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &MeanShiftParams {
        &self.params
    }

    /// Shifts `start` to its density mode and returns it with the number
    /// of shift iterations spent, so `run` can feed the convergence
    /// histogram without a second pass. `window_mean(q)` must return the
    /// mean of all data points within `params.bandwidth` of `q`, or `None`
    /// if there are none.
    fn seek_mode_iters<F>(&self, start: S::Point, window_mean: &F) -> (S::Point, u64)
    where
        F: Fn(S::Point) -> Option<S::Point>,
    {
        let mut y = start;
        for iter in 0..self.params.max_iters {
            let Some(next) = window_mean(y) else {
                // Isolated seed: it is its own mode.
                return (y, iter as u64);
            };
            let shift = self.space.dist(y, next);
            y = next;
            if shift < self.params.tolerance {
                return (y, iter as u64 + 1);
            }
        }
        (y, self.params.max_iters as u64)
    }

    /// Runs mean-shift from (a stride of) `seeds` and merges converged
    /// points into modes, ordered by descending seed support.
    ///
    /// The seeking pass is data-parallel over seeds ([`par::threads`]
    /// workers): each seed's trajectory depends only on the data behind
    /// `window_mean`, never on other seeds, and every seed early-exits the
    /// moment its own shift falls below tolerance instead of marching in
    /// lockstep to `max_iters`. The merge then runs serially in seed order
    /// on the calling thread, so the returned modes are bit-identical to a
    /// single-threaded run for any thread count.
    pub fn run<F>(&self, seeds: &[S::Point], window_mean: F) -> Vec<Mode<S::Point>>
    where
        F: Fn(S::Point) -> Option<S::Point> + Sync,
        S: Sync,
        S::Point: Send + Sync,
    {
        let _span = obs::span!("hotspot.meanshift");
        let iterations = obs::histogram("hotspot.meanshift.iterations");
        let seeds_run = obs::counter("hotspot.meanshift.seeds");
        let merged = obs::counter("hotspot.meanshift.modes_merged");
        let iters_saved = obs::counter("hotspot.meanshift.iters_saved");

        let stride = (seeds.len() / self.params.max_seeds.max(1)).max(1);
        let strided: Vec<S::Point> = seeds.iter().step_by(stride).copied().collect();
        let converged = par::par_map(&strided, |_, &seed| {
            self.seek_mode_iters(seed, &window_mean)
        });

        let mut modes: Vec<Mode<S::Point>> = Vec::new();
        for &(point, iters) in &converged {
            iterations.record(iters);
            iters_saved.add(self.params.max_iters as u64 - iters);
            seeds_run.incr();
            match modes
                .iter_mut()
                .find(|m| self.space.dist(m.point, point) <= self.params.merge_radius)
            {
                Some(m) => {
                    m.seeds += 1;
                    merged.incr();
                }
                None => modes.push(Mode { point, seeds: 1 }),
            }
        }
        obs::counter("hotspot.meanshift.modes").add(modes.len() as u64);
        modes.sort_by_key(|m| std::cmp::Reverse(m.seeds));
        modes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Circular1D, Planar2D};
    use mobility::rng::normal;
    use mobility::GeoPoint;
    use rand::{rngs::StdRng, SeedableRng};

    /// Brute-force centroid of the points within `h` of the query.
    fn planar_window_mean(data: Vec<GeoPoint>, h: f64) -> impl Fn(GeoPoint) -> Option<GeoPoint> {
        move |q| {
            let (mut lat, mut lon, mut n) = (0.0, 0.0, 0usize);
            for p in data.iter().filter(|p| q.dist(p) <= h) {
                lat += p.lat;
                lon += p.lon;
                n += 1;
            }
            (n > 0).then(|| GeoPoint::new(lat / n as f64, lon / n as f64))
        }
    }

    #[test]
    fn two_gaussians_give_two_modes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = Vec::new();
        for _ in 0..200 {
            data.push(GeoPoint::new(
                normal(&mut rng, 0.0, 0.05),
                normal(&mut rng, 0.0, 0.05),
            ));
            data.push(GeoPoint::new(
                normal(&mut rng, 1.0, 0.05),
                normal(&mut rng, 1.0, 0.05),
            ));
        }
        let params = MeanShiftParams::with_bandwidth(0.2);
        let ms = MeanShift::new(Planar2D, params);
        let modes = ms.run(&data.clone(), planar_window_mean(data, 0.2));
        assert_eq!(modes.len(), 2, "{modes:?}");
        let origin = GeoPoint::new(0.0, 0.0);
        let one = GeoPoint::new(1.0, 1.0);
        for m in &modes {
            let d = m.point.dist(&origin).min(m.point.dist(&one));
            assert!(d < 0.05, "mode {:?} off-center", m.point);
        }
    }

    #[test]
    fn modes_are_sorted_by_support() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut data = Vec::new();
        for _ in 0..300 {
            data.push(GeoPoint::new(
                normal(&mut rng, 0.0, 0.03),
                normal(&mut rng, 0.0, 0.03),
            ));
        }
        for _ in 0..50 {
            data.push(GeoPoint::new(
                normal(&mut rng, 1.0, 0.03),
                normal(&mut rng, 1.0, 0.03),
            ));
        }
        let ms = MeanShift::new(Planar2D, MeanShiftParams::with_bandwidth(0.15));
        let modes = ms.run(&data.clone(), planar_window_mean(data, 0.15));
        assert!(modes.len() >= 2);
        assert!(modes[0].seeds > modes[1].seeds);
        assert!(modes[0].point.dist(&GeoPoint::new(0.0, 0.0)) < 0.05);
    }

    #[test]
    fn isolated_seed_is_its_own_mode() {
        let data = vec![GeoPoint::new(5.0, 5.0)];
        let ms = MeanShift::new(Planar2D, MeanShiftParams::with_bandwidth(0.1));
        // Window-mean fn that never finds anything within range of the seed.
        let window_mean = planar_window_mean(data, 0.1);
        let (mode, _) = ms.seek_mode_iters(GeoPoint::new(0.0, 0.0), &window_mean);
        assert_eq!(mode, GeoPoint::new(0.0, 0.0));
    }

    #[test]
    fn circular_mode_across_midnight() {
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<f64> = (0..300)
            .map(|_| normal(&mut rng, 23.9, 0.2).rem_euclid(24.0))
            .collect();
        let circle = Circular1D::new(24.0);
        let ms = MeanShift::new(circle, MeanShiftParams::with_bandwidth(0.5));
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let prefix: Vec<f64> = std::iter::once(0.0)
            .chain(sorted.iter().scan(0.0, |sum, &v| {
                *sum += v;
                Some(*sum)
            }))
            .collect();
        let modes = ms.run(&data, |q| circle.window_mean(&sorted, &prefix, q, 0.5));
        assert_eq!(modes.len(), 1, "{modes:?}");
        let d = circle.dist(modes[0].point, 23.9);
        assert!(d < 0.15, "mode at {} (dist {d})", modes[0].point);
    }

    #[test]
    fn seed_striding_caps_work() {
        let data: Vec<GeoPoint> = (0..100)
            .map(|i| GeoPoint::new(i as f64 * 1e-4, 0.0))
            .collect();
        let mut params = MeanShiftParams::with_bandwidth(0.5);
        params.max_seeds = 10;
        let ms = MeanShift::new(Planar2D, params);
        let modes = ms.run(&data.clone(), planar_window_mean(data, 0.5));
        let total: usize = modes.iter().map(|m| m.seeds).sum();
        assert_eq!(total, 10, "{modes:?}");
    }

    #[test]
    #[should_panic]
    fn params_reject_bad_bandwidth() {
        MeanShiftParams::with_bandwidth(-1.0);
    }
}
