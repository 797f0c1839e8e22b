//! Bounded retry/backoff for diverged training segments.

/// How a diverged run backs off before giving up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed before the run fails with a divergence error.
    pub max_retries: u32,
    /// Multiplicative learning-rate backoff applied per retry
    /// (`0 < backoff < 1`).
    pub backoff: f32,
    /// Floor of the learning-rate scale; backoff never shrinks below it.
    pub min_scale: f32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff: 0.5,
            min_scale: 0.01,
        }
    }
}

impl RetryPolicy {
    /// The learning-rate scale for retry number `attempt` (1-based), or
    /// `None` once the budget is exhausted.
    pub fn scale_for_attempt(&self, attempt: u32) -> Option<f32> {
        if attempt == 0 || attempt > self.max_retries {
            return None;
        }
        let scale = self.backoff.clamp(1e-6, 0.999_999).powi(attempt as i32);
        Some(scale.max(self.min_scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_decay_and_exhaust() {
        let p = RetryPolicy::default();
        assert_eq!(p.scale_for_attempt(1), Some(0.5));
        assert_eq!(p.scale_for_attempt(2), Some(0.25));
        assert_eq!(p.scale_for_attempt(3), Some(0.125));
        assert_eq!(p.scale_for_attempt(4), None);
        assert_eq!(p.scale_for_attempt(0), None);
    }

    #[test]
    fn scale_respects_floor() {
        let p = RetryPolicy {
            max_retries: 50,
            backoff: 0.5,
            min_scale: 0.1,
        };
        assert_eq!(p.scale_for_attempt(10), Some(0.1));
    }

    #[test]
    fn none_never_retries() {
        let none = RetryPolicy {
            max_retries: 0,
            ..Default::default()
        };
        assert_eq!(none.scale_for_attempt(1), None);
    }
}
