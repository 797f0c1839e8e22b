//! Pipeline error types.
//!
//! Hand-rolled enums (the workspace carries no `thiserror`): each variant
//! captures the offending values so callers can report or branch without
//! parsing strings.

use std::fmt;

/// A rejected [`crate::ActorConfig`] (see [`crate::ActorConfig::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `dim == 0`.
    ZeroDim,
    /// `learning_rate` is zero, negative, or NaN.
    NonPositiveLearningRate {
        /// The rejected rate.
        got: f32,
    },
    /// One of `batch_size`, `max_epochs`, `batches_per_type` is zero.
    ZeroBatching,
    /// `threads == 0`.
    ZeroThreads,
    /// A mean-shift bandwidth is zero, negative, or NaN.
    NonPositiveBandwidth {
        /// Spatial bandwidth, degrees.
        spatial: f64,
        /// Temporal bandwidth, seconds.
        temporal: f64,
    },
    /// `temporal_period` is zero, negative, or NaN.
    NonPositivePeriod {
        /// The rejected period.
        got: f64,
    },
    /// `2·temporal_bandwidth >= temporal_period`: the circular kernel
    /// would wrap onto itself and every record lands in one hotspot.
    BandwidthExceedsPeriod {
        /// Temporal bandwidth, seconds.
        bandwidth: f64,
        /// Circular period, seconds.
        period: f64,
    },
    /// `negative_power` outside `[0, 2]`.
    NegativePowerOutOfRange {
        /// The rejected exponent.
        got: f64,
    },
    /// `grad_clip` is NaN, infinite, or negative (`0.0` = disabled is
    /// fine).
    InvalidGradClip {
        /// The rejected ceiling.
        got: f32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroDim => write!(f, "dim must be positive"),
            Self::NonPositiveLearningRate { got } => {
                write!(f, "learning rate must be positive, got {got}")
            }
            Self::ZeroBatching => write!(f, "batching parameters must be positive"),
            Self::ZeroThreads => write!(f, "threads must be positive"),
            Self::NonPositiveBandwidth { spatial, temporal } => write!(
                f,
                "bandwidths must be positive, got spatial {spatial} / temporal {temporal}"
            ),
            Self::NonPositivePeriod { got } => {
                write!(f, "temporal period must be positive, got {got}")
            }
            Self::BandwidthExceedsPeriod { bandwidth, period } => write!(
                f,
                "temporal bandwidth {bandwidth} must be well below the period {period}"
            ),
            Self::NegativePowerOutOfRange { got } => {
                write!(f, "negative_power must be in [0, 2], got {got}")
            }
            Self::InvalidGradClip { got } => {
                write!(f, "grad_clip must be finite and non-negative, got {got}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A failed [`crate::fit`] run.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The configuration failed validation before anything ran.
    Config(ConfigError),
    /// The training split has no records.
    EmptyTrainingSplit,
    /// A checkpoint could not be written or read.
    Checkpoint(resilience::CheckpointError),
    /// A checkpoint passed its CRC but its payload did not decode, or it
    /// belongs to a run with another node space or embedding width.
    Persist(PersistError),
    /// A (possibly injected) worker failure interrupted training; the
    /// cursors name the last completed segment boundary so a
    /// [`crate::fit_resume`] can pick up from the checkpoint taken there.
    Interrupted {
        /// Epochs fully completed before the failure.
        epoch: usize,
        /// Weighted samples completed before the failure.
        samples: u64,
    },
    /// Training kept diverging after exhausting the retry budget.
    Diverged {
        /// Epoch of the segment that diverged last.
        epoch: usize,
        /// Retries spent before giving up.
        retries: u32,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid config: {e}"),
            Self::EmptyTrainingSplit => write!(f, "training split is empty"),
            Self::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            Self::Persist(e) => write!(f, "checkpoint payload: {e}"),
            Self::Interrupted { epoch, samples } => write!(
                f,
                "training interrupted after epoch {epoch} ({samples} samples); resume from the latest checkpoint"
            ),
            Self::Diverged { epoch, retries } => write!(
                f,
                "training diverged at epoch {epoch} after {retries} retries"
            ),
        }
    }
}

impl std::error::Error for FitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Checkpoint(e) => Some(e),
            Self::Persist(e) => Some(e),
            Self::EmptyTrainingSplit | Self::Interrupted { .. } | Self::Diverged { .. } => None,
        }
    }
}

impl From<ConfigError> for FitError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<resilience::CheckpointError> for FitError {
    fn from(e: resilience::CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<PersistError> for FitError {
    fn from(e: PersistError) -> Self {
        Self::Persist(e)
    }
}

/// A failed model save/load (see [`crate::persist`]).
///
/// Load never panics: every length is bounds-checked against the payload
/// and every count against a sane ceiling, so truncated or malicious
/// files are reported, not crashed on.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The file could not be written or read, or its `ACTORCP1` envelope
    /// is damaged (bad magic, truncated, CRC mismatch).
    Envelope(resilience::CheckpointError),
    /// The payload ended before a required field.
    Truncated {
        /// What was being read.
        reading: &'static str,
        /// Bytes needed to continue.
        need: usize,
        /// Bytes actually left.
        have: usize,
    },
    /// A length or count field implies more data than the payload holds
    /// (or overflows the address space) — a corrupt or malicious header.
    ImplausibleLength {
        /// The field in question.
        field: &'static str,
        /// The claimed value.
        claimed: u64,
    },
    /// A UTF-8 string field failed to decode.
    BadString {
        /// The field in question.
        field: &'static str,
    },
    /// The embedding-store section failed to decode.
    Store {
        /// The store decoder's message.
        detail: String,
    },
    /// The restored parts are mutually inconsistent (e.g. the embedding
    /// store does not match the declared unit space).
    Inconsistent {
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Envelope(e) => write!(f, "model file: {e}"),
            Self::Truncated {
                reading,
                need,
                have,
            } => write!(
                f,
                "truncated payload while reading {reading}: need {need} bytes, have {have}"
            ),
            Self::ImplausibleLength { field, claimed } => {
                write!(f, "implausible {field}: claims {claimed}")
            }
            Self::BadString { field } => write!(f, "invalid UTF-8 in {field}"),
            Self::Store { detail } => write!(f, "embedding store section: {detail}"),
            Self::Inconsistent { detail } => write!(f, "inconsistent model parts: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Envelope(e) => Some(e),
            _ => None,
        }
    }
}

impl From<resilience::CheckpointError> for PersistError {
    fn from(e: resilience::CheckpointError) -> Self {
        Self::Envelope(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_names_the_offending_value() {
        let e = ConfigError::NegativePowerOutOfRange { got: 3.5 };
        assert_eq!(e.to_string(), "negative_power must be in [0, 2], got 3.5");
        let e = ConfigError::NonPositiveLearningRate { got: -0.1 };
        assert!(e.to_string().contains("-0.1"));
    }

    #[test]
    fn fit_error_chains_to_config_error() {
        let e = FitError::from(ConfigError::ZeroDim);
        assert_eq!(e.to_string(), "invalid config: dim must be positive");
        let source = e.source().expect("config source");
        assert_eq!(source.to_string(), "dim must be positive");
        assert!(FitError::EmptyTrainingSplit.source().is_none());
    }
}
