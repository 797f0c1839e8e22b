//! ACTOR hyper-parameters (§6.1.3).

use embed::SgdParams;

use crate::error::ConfigError;

/// Full configuration of the ACTOR pipeline.
///
/// Defaults follow §6.1.3 (`η = 0.02`, `K = 1`, `m = 256`,
/// `MaxEpoch = 100`) with the embedding dimension reduced from 300 to 128
/// to fit the laptop-scale corpora (DESIGN.md §3).
#[derive(Debug, Clone, PartialEq)]
pub struct ActorConfig {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Learning rate `η`.
    pub learning_rate: f32,
    /// Negative samples `K`.
    pub negatives: usize,
    /// Mini-batch size `m` of Algorithm 1 (edges sampled per edge type per
    /// epoch step).
    pub batch_size: usize,
    /// `MaxEpoch`.
    pub max_epochs: usize,
    /// Batches per edge type per epoch. Algorithm 1 reads as one batch per
    /// type per epoch; with realistic graph sizes the authors' effective
    /// sample count must be far larger, so this multiplier sets how many
    /// `m`-sized batches each type receives each epoch.
    pub batches_per_type: usize,
    /// Hogwild shards of the SGD loop. Each shard applies its rounds on
    /// one thread while a helper thread draws the next ones
    /// (`par::pipeline`), so training runs on `2 × threads` threads. At
    /// 1 the fit is exactly reproducible per seed.
    pub threads: usize,
    /// Mean-shift bandwidth for spatial hotspots, degrees.
    pub spatial_bandwidth: f64,
    /// Mean-shift bandwidth for temporal hotspots, seconds.
    pub temporal_bandwidth: f64,
    /// Circular period of the temporal units in seconds: 86 400 for the
    /// paper's time-of-day hotspots, 604 800 for weekly rhythms.
    pub temporal_period: f64,
    /// Minimum records per hotspot.
    pub min_hotspot_support: usize,
    /// LINE samples for the user-graph pre-training (line 3).
    pub pretrain_samples: u64,
    /// Train the inter-record objective (`false` = ACTOR w/o inter, §6.3).
    pub use_inter: bool,
    /// Use the bag-of-words intra-record structure (`false` = ACTOR w/o
    /// intra: words are treated as individual units, §6.3).
    pub use_intra_bag: bool,
    /// Connect mentioned users (not just authors) to record units.
    pub include_mentioned_users: bool,
    /// Scale of the pre-trained user vector copied into each unit's
    /// initial center (Algorithm 1 line 4). `1.0` = the paper's verbatim
    /// copy; `0.0` = random initialization (hierarchy still trains the
    /// inter edges).
    pub init_scale: f32,
    /// Degree exponent of the negative-sampling noise distribution
    /// (`P(v) ∝ d_v^power`; 0.75 is the word2vec/LINE standard the
    /// paper's `d_v^4` abbreviates — see DESIGN.md §2).
    pub negative_power: f64,
    /// Anneal the learning rate linearly to 10 % of `learning_rate` over
    /// the sample budget (LINE's schedule). Disable for the design
    /// ablation.
    pub anneal: bool,
    /// L2 ceiling on any single SGD row update (`0.0` disables clipping).
    /// The default of 5.0 sits orders of magnitude above healthy updates,
    /// so it never perturbs a converging run — it only bounds the damage
    /// of a diverging one until the divergence detector steps in.
    pub grad_clip: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ActorConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            learning_rate: 0.02,
            negatives: 1,
            batch_size: 256,
            max_epochs: 100,
            batches_per_type: 40,
            threads: 1,
            spatial_bandwidth: 0.008,
            temporal_bandwidth: 1800.0,
            temporal_period: mobility::SECONDS_PER_DAY as f64,
            min_hotspot_support: 3,
            pretrain_samples: 2_000_000,
            use_inter: true,
            use_intra_bag: true,
            include_mentioned_users: true,
            init_scale: 1.0,
            negative_power: 0.75,
            anneal: true,
            grad_clip: 5.0,
            seed: 0xAC7012,
        }
    }
}

impl ActorConfig {
    /// A fast configuration for tests and examples.
    pub fn fast() -> Self {
        Self {
            dim: 32,
            max_epochs: 20,
            batches_per_type: 10,
            pretrain_samples: 100_000,
            ..Self::default()
        }
    }

    /// SGD parameters derived from this config.
    pub fn sgd(&self) -> SgdParams {
        SgdParams {
            learning_rate: self.learning_rate,
            negatives: self.negatives,
            grad_clip: self.grad_clip,
        }
    }

    /// Total edge samples per edge type over the whole run.
    pub fn samples_per_type(&self) -> u64 {
        (self.batch_size * self.batches_per_type * self.max_epochs) as u64
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dim == 0 {
            return Err(ConfigError::ZeroDim);
        }
        if self.learning_rate.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ConfigError::NonPositiveLearningRate {
                got: self.learning_rate,
            });
        }
        if self.batch_size == 0 || self.max_epochs == 0 || self.batches_per_type == 0 {
            return Err(ConfigError::ZeroBatching);
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.spatial_bandwidth.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || self.temporal_bandwidth.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            return Err(ConfigError::NonPositiveBandwidth {
                spatial: self.spatial_bandwidth,
                temporal: self.temporal_bandwidth,
            });
        }
        if self.temporal_period.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ConfigError::NonPositivePeriod {
                got: self.temporal_period,
            });
        }
        if self.temporal_bandwidth * 2.0 >= self.temporal_period {
            return Err(ConfigError::BandwidthExceedsPeriod {
                bandwidth: self.temporal_bandwidth,
                period: self.temporal_period,
            });
        }
        if !(self.grad_clip.is_finite() && self.grad_clip >= 0.0) {
            return Err(ConfigError::InvalidGradClip {
                got: self.grad_clip,
            });
        }
        if !(0.0..=2.0).contains(&self.negative_power) {
            return Err(ConfigError::NegativePowerOutOfRange {
                got: self.negative_power,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ActorConfig::default();
        assert_eq!(c.learning_rate, 0.02);
        assert_eq!(c.negatives, 1);
        assert_eq!(c.batch_size, 256);
        assert_eq!(c.max_epochs, 100);
        c.validate().unwrap();
    }

    #[test]
    fn fast_config_is_valid() {
        ActorConfig::fast().validate().unwrap();
    }

    #[test]
    fn samples_per_type_multiplies_out() {
        let c = ActorConfig {
            batch_size: 10,
            batches_per_type: 3,
            max_epochs: 7,
            ..ActorConfig::default()
        };
        assert_eq!(c.samples_per_type(), 210);
    }

    #[test]
    fn validate_reports_typed_variants() {
        let c = ActorConfig {
            // circular kernel wraps
            temporal_bandwidth: ActorConfig::default().temporal_period,
            ..ActorConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::BandwidthExceedsPeriod {
                bandwidth: c.temporal_bandwidth,
                period: c.temporal_period,
            })
        );
        let c = ActorConfig {
            negative_power: 2.5,
            ..ActorConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::NegativePowerOutOfRange { got: 2.5 })
        );
    }

    #[test]
    fn validate_rejects_degenerates() {
        for f in [
            |c: &mut ActorConfig| c.dim = 0,
            |c: &mut ActorConfig| c.learning_rate = 0.0,
            |c: &mut ActorConfig| c.batch_size = 0,
            |c: &mut ActorConfig| c.max_epochs = 0,
            |c: &mut ActorConfig| c.batches_per_type = 0,
            |c: &mut ActorConfig| c.threads = 0,
            |c: &mut ActorConfig| c.spatial_bandwidth = -1.0,
            |c: &mut ActorConfig| c.temporal_bandwidth = 0.0,
            |c: &mut ActorConfig| c.grad_clip = f32::NAN,
            |c: &mut ActorConfig| c.grad_clip = -1.0,
        ] {
            let mut c = ActorConfig::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
