//! Kernel functions for density estimation.

/// A radially symmetric kernel `K(u)` evaluated on the normalized distance
/// `u = ‖x − x_i‖ / h`.
///
/// The paper uses the Epanechnikov kernel (§4.3, \[41\]); the Gaussian kernel
/// is provided for the KDE ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `K(u) = ¾ (1 − u²)` for `|u| ≤ 1`, else 0. Optimal in the
    /// mean-integrated-squared-error sense; with this kernel the mean-shift
    /// step is exactly the mean of the points inside the window (Eq. 1).
    Epanechnikov,
    /// `K(u) = exp(−u²/2) / √(2π)`. Infinite support; the detectors
    /// truncate it at `3h` for window queries.
    Gaussian,
}

impl Kernel {
    /// Kernel value at normalized distance `u ≥ 0` (unnormalized across
    /// dimensions; density estimates divide by `n·h^d` separately).
    #[inline]
    pub fn value(self, u: f64) -> f64 {
        debug_assert!(u >= 0.0);
        match self {
            Kernel::Epanechnikov => {
                if u <= 1.0 {
                    0.75 * (1.0 - u * u)
                } else {
                    0.0
                }
            }
            Kernel::Gaussian => (-0.5 * u * u).exp() / (2.0 * std::f64::consts::PI).sqrt(),
        }
    }

    /// The radius (in multiples of `h`) beyond which the kernel is treated
    /// as zero.
    #[inline]
    pub fn support_radius(self) -> f64 {
        match self {
            Kernel::Epanechnikov => 1.0,
            Kernel::Gaussian => 3.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epanechnikov_shape() {
        let k = Kernel::Epanechnikov;
        assert!((k.value(0.0) - 0.75).abs() < 1e-12);
        assert_eq!(k.value(1.0), 0.0);
        assert_eq!(k.value(2.0), 0.0);
        assert!(k.value(0.5) > k.value(0.9));
    }

    #[test]
    fn gaussian_shape() {
        let k = Kernel::Gaussian;
        let peak = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((k.value(0.0) - peak).abs() < 1e-12);
        assert!(k.value(1.0) < peak);
        assert!(k.value(3.0) > 0.0); // truncated only by support_radius
    }

    #[test]
    fn kernels_are_monotone_decreasing() {
        for k in [Kernel::Epanechnikov, Kernel::Gaussian] {
            let mut prev = k.value(0.0);
            let mut u = 0.05;
            while u <= 1.0 {
                let v = k.value(u);
                assert!(v <= prev + 1e-15, "{k:?} not decreasing at {u}");
                prev = v;
                u += 0.05;
            }
        }
    }

    #[test]
    fn support_radii() {
        assert_eq!(Kernel::Epanechnikov.support_radius(), 1.0);
        assert_eq!(Kernel::Gaussian.support_radius(), 3.0);
    }
}
