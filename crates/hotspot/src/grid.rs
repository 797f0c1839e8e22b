//! Uniform grid index over 2-D points.
//!
//! Mean-shift issues many "all points within `h` of x" queries; a uniform
//! grid with cell size `h` answers each from at most 3×3 cells. The same
//! index also accelerates nearest-hotspot assignment (§4.3) by searching
//! outward ring by ring.

use mobility::GeoPoint;

/// A uniform grid over a bounding box, storing point indices per cell.
#[derive(Debug, Clone)]
pub struct Grid2D {
    cell: f64,
    min_lat: f64,
    min_lon: f64,
    n_rows: usize,
    n_cols: usize,
    cells: Vec<Vec<u32>>,
    points: Vec<GeoPoint>,
}

impl Grid2D {
    /// Builds a grid with cell size `cell` over `points`.
    ///
    /// Panics if `cell` is not positive or `points` is empty.
    pub fn build(points: &[GeoPoint], cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        assert!(!points.is_empty(), "grid needs at least one point");
        let mut min_lat = f64::INFINITY;
        let mut max_lat = f64::NEG_INFINITY;
        let mut min_lon = f64::INFINITY;
        let mut max_lon = f64::NEG_INFINITY;
        for p in points {
            min_lat = min_lat.min(p.lat);
            max_lat = max_lat.max(p.lat);
            min_lon = min_lon.min(p.lon);
            max_lon = max_lon.max(p.lon);
        }
        let n_rows = (((max_lat - min_lat) / cell).floor() as usize + 1).max(1);
        let n_cols = (((max_lon - min_lon) / cell).floor() as usize + 1).max(1);
        let mut cells = vec![Vec::new(); n_rows * n_cols];
        let mut grid = Self {
            cell,
            min_lat,
            min_lon,
            n_rows,
            n_cols,
            cells: Vec::new(),
            points: points.to_vec(),
        };
        for (i, p) in points.iter().enumerate() {
            let (r, c) = grid.cell_of(*p);
            cells[r * n_cols + c].push(i as u32);
        }
        grid.cells = cells;
        grid
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the grid indexes no points (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    #[inline]
    fn cell_of(&self, p: GeoPoint) -> (usize, usize) {
        let r = ((p.lat - self.min_lat) / self.cell).floor();
        let c = ((p.lon - self.min_lon) / self.cell).floor();
        (
            (r.max(0.0) as usize).min(self.n_rows - 1),
            (c.max(0.0) as usize).min(self.n_cols - 1),
        )
    }

    /// Calls `f` with the index and position of every point within `radius`
    /// of `q`. `radius` must be ≤ the build cell size for the 3×3 scan to be
    /// exhaustive; larger radii scan proportionally more rings.
    pub fn for_each_within<F: FnMut(u32, GeoPoint)>(&self, q: GeoPoint, radius: f64, mut f: F) {
        let rings = (radius / self.cell).ceil() as isize;
        let (qr, qc) = self.cell_of(q);
        let r2 = radius * radius;
        for dr in -rings..=rings {
            let r = qr as isize + dr;
            if r < 0 || r >= self.n_rows as isize {
                continue;
            }
            for dc in -rings..=rings {
                let c = qc as isize + dc;
                if c < 0 || c >= self.n_cols as isize {
                    continue;
                }
                for &i in &self.cells[r as usize * self.n_cols + c as usize] {
                    let p = self.points[i as usize];
                    if q.dist2(&p) <= r2 {
                        f(i, p);
                    }
                }
            }
        }
    }

    /// Collects the points within `radius` of `q`.
    pub fn within(&self, q: GeoPoint, radius: f64) -> Vec<GeoPoint> {
        let mut out = Vec::new();
        self.for_each_within(q, radius, |_, p| out.push(p));
        out
    }

    /// Index of the nearest point to `q`, searching outward ring by ring.
    pub fn nearest(&self, q: GeoPoint) -> u32 {
        let (qr, qc) = self.cell_of(q);
        let mut best: Option<(u32, f64)> = None;
        let max_rings = self.n_rows.max(self.n_cols) as isize;
        for ring in 0..=max_rings {
            // Any point in a cell of Chebyshev ring `ring` is at least
            // (ring − 1)·cell away from q, so once the best candidate beats
            // that lower bound no further ring can improve on it.
            if let Some((_, best_d2)) = best {
                let lower = ((ring - 1).max(0)) as f64 * self.cell;
                if lower * lower > best_d2 {
                    break;
                }
            }
            // Scan the cells of this ring.
            for dr in -ring..=ring {
                let r = qr as isize + dr;
                if r < 0 || r >= self.n_rows as isize {
                    continue;
                }
                for dc in -ring..=ring {
                    if dr.abs() != ring && dc.abs() != ring {
                        continue; // interior already scanned
                    }
                    let c = qc as isize + dc;
                    if c < 0 || c >= self.n_cols as isize {
                        continue;
                    }
                    for &i in &self.cells[r as usize * self.n_cols + c as usize] {
                        let d2 = q.dist2(&self.points[i as usize]);
                        if best.is_none_or(|(_, bd)| d2 < bd) {
                            best = Some((i, d2));
                        }
                    }
                }
            }
        }
        best.expect("grid is non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<GeoPoint> {
        vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(0.1, 0.1),
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(5.0, 5.0),
        ]
    }

    #[test]
    fn within_matches_brute_force() {
        let points = pts();
        let g = Grid2D::build(&points, 0.5);
        for q in &points {
            for radius in [0.05, 0.3, 0.5] {
                let got = g.within(*q, radius).len();
                let want = points.iter().filter(|p| q.dist(p) <= radius).count();
                assert_eq!(got, want, "q={q:?} r={radius}");
            }
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let points = pts();
        let g = Grid2D::build(&points, 0.5);
        let queries = [
            GeoPoint::new(0.05, 0.05),
            GeoPoint::new(0.9, 0.9),
            GeoPoint::new(10.0, 10.0),
            GeoPoint::new(-3.0, 2.0),
            GeoPoint::new(2.5, 2.5),
        ];
        for q in queries {
            let got = g.nearest(q) as usize;
            let want = points
                .iter()
                .enumerate()
                .min_by(|a, b| q.dist2(a.1).partial_cmp(&q.dist2(b.1)).unwrap())
                .unwrap()
                .0;
            assert_eq!(q.dist2(&points[got]), q.dist2(&points[want]), "query {q:?}");
        }
    }

    #[test]
    fn single_point_grid() {
        let g = Grid2D::build(&[GeoPoint::new(3.0, 4.0)], 1.0);
        assert_eq!(g.len(), 1);
        assert!(!g.is_empty());
        assert_eq!(g.nearest(GeoPoint::new(-100.0, 100.0)), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_points() {
        Grid2D::build(&[], 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_cell() {
        Grid2D::build(&pts(), 0.0);
    }

    #[test]
    fn for_each_within_reports_indices() {
        let points = pts();
        let g = Grid2D::build(&points, 1.0);
        let mut seen = Vec::new();
        g.for_each_within(GeoPoint::new(0.0, 0.0), 0.2, |i, _| seen.push(i));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }
}
