//! When to checkpoint.

/// Cadence of training snapshots.
///
/// Either cadence (or both) may be set; the effective interval is the
/// tighter of the two after the sample cadence is mapped onto epoch
/// boundaries (checkpoints are only taken between training segments,
/// where no Hogwild worker holds the store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot every `n` epochs (`0` = not epoch-driven).
    pub every_epochs: usize,
    /// Snapshot every `t` weighted samples (`0` = not sample-driven).
    /// Rounded *down* to the nearest epoch boundary, but never below one
    /// epoch.
    pub every_samples: u64,
    /// Checkpoints retained on disk (the store enforces a floor of 2 so
    /// a corrupt newest file always leaves a fallback).
    pub keep: usize,
}

impl CheckpointPolicy {
    /// No checkpointing: training runs as a single segment.
    pub fn disabled() -> Self {
        Self {
            every_epochs: 0,
            every_samples: 0,
            keep: 2,
        }
    }

    /// Snapshot every `n` epochs (`n >= 1`).
    pub fn every_epochs(n: usize) -> Self {
        Self {
            every_epochs: n.max(1),
            every_samples: 0,
            keep: 3,
        }
    }

    /// Snapshot every `t` weighted samples (`t >= 1`).
    pub fn every_samples(t: u64) -> Self {
        Self {
            every_epochs: 0,
            every_samples: t.max(1),
            keep: 3,
        }
    }

    /// The effective snapshot interval in epochs, given how many weighted
    /// samples one epoch performs. `None` when disabled.
    pub fn interval_epochs(&self, samples_per_epoch: u64) -> Option<usize> {
        let from_epochs = (self.every_epochs > 0).then_some(self.every_epochs);
        let from_samples = (self.every_samples > 0).then(|| {
            let per = samples_per_epoch.max(1);
            ((self.every_samples / per).max(1)) as usize
        });
        match (from_epochs, from_samples) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}

impl Default for CheckpointPolicy {
    /// Default production cadence: every 5 epochs, keep 3.
    fn default() -> Self {
        Self {
            every_epochs: 5,
            every_samples: 0,
            keep: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_has_no_interval() {
        assert_eq!(CheckpointPolicy::disabled().interval_epochs(1000), None);
    }

    #[test]
    fn epoch_cadence_passes_through() {
        assert_eq!(CheckpointPolicy::every_epochs(4).interval_epochs(1), Some(4));
        assert_eq!(CheckpointPolicy::every_epochs(0).every_epochs, 1);
    }

    #[test]
    fn sample_cadence_maps_to_epoch_boundaries() {
        // 10k samples/epoch, snapshot every 35k samples -> every 3 epochs.
        let p = CheckpointPolicy::every_samples(35_000);
        assert_eq!(p.interval_epochs(10_000), Some(3));
        // Cadence tighter than one epoch clamps to 1.
        assert_eq!(CheckpointPolicy::every_samples(5).interval_epochs(10_000), Some(1));
    }

    #[test]
    fn both_cadences_take_the_tighter() {
        let p = CheckpointPolicy {
            every_epochs: 7,
            every_samples: 20_000,
            keep: 3,
        };
        assert_eq!(p.interval_epochs(10_000), Some(2));
    }
}
