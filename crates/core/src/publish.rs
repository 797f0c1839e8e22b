//! Snapshot publication: the hook that connects training to serving.
//!
//! A serving layer (see `crates/serve`) wants to pick up fresh models the
//! moment training produces them — at the end of a batch fit, after a
//! checkpoint-restored resume, or every N records of a streaming update —
//! without `core` depending on any particular serving implementation.
//! [`ModelSink`] is that seam: anything that can absorb a finished
//! [`TrainedModel`] implements it: a batch caller runs `fit` and then
//! `sink.publish(&model)`, and [`crate::OnlineActor::attach_sink`] keeps a
//! sink current with a live stream.

use crate::model::TrainedModel;

/// The center rows changed since a sink's last publish: the payload of
/// [`ModelSink::publish_delta`]. Serving reads only center rows (a model's
/// embedding of a unit), so context rows are not tracked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreDelta {
    /// Changed center-matrix rows (global node indexes), sorted and
    /// duplicate-free.
    pub centers: Vec<u32>,
}

impl StoreDelta {
    /// Changed rows.
    pub fn dirty_rows(&self) -> usize {
        self.centers.len()
    }

    /// True when no row changed since the last publish.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }
}

/// A destination for freshly trained models.
///
/// Implementations must tolerate being called from whatever thread runs
/// training and should do their heavy lifting (index builds, snapshot
/// swaps) without blocking for long — `publish` sits on the training
/// thread's critical path.
///
/// Both methods receive a borrow; the sink copies what it needs and
/// training retains ownership. Because the model is artifacts + store
/// (see [`crate::ModelArtifacts`]), a sink that keeps the `Arc` from a
/// previous publish can recognize an unchanged artifact set by pointer
/// and reuse everything derived from it.
pub trait ModelSink: Send + Sync {
    /// Absorbs a finished model in full.
    fn publish(&self, model: &TrainedModel);

    /// Absorbs an incrementally updated model: only the store rows listed
    /// in `delta` changed since this sink last saw `model` (same artifact
    /// `Arc`, same shape). [`crate::OnlineActor`] tracks the rows its
    /// streaming steps touch and publishes them between steps.
    ///
    /// The default forwards to [`ModelSink::publish`], so sinks without an
    /// incremental path stay correct — just not cheap.
    fn publish_delta(&self, model: &TrainedModel, delta: &StoreDelta) {
        let _ = delta;
        self.publish(model);
    }
}

/// Records one publish in the obs registry: `core.publish.count` counts
/// publishes of either form, `core.publish.dirty_rows` accumulates the
/// center rows actually shipped (all of them for a full publish, the
/// delta's row count for an incremental one).
pub(crate) fn record_publish(dirty_rows: usize) {
    obs::counter("core.publish.count").incr();
    obs::counter("core.publish.dirty_rows").add(dirty_rows as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ActorConfig;
    use crate::pipeline::fit;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn delta_publish_carries_only_dirty_rows() {
        struct DeltaSink {
            full: AtomicUsize,
            delta_rows: AtomicUsize,
        }
        impl ModelSink for DeltaSink {
            fn publish(&self, _model: &TrainedModel) {
                self.full.fetch_add(1, Ordering::SeqCst);
            }
            fn publish_delta(&self, _model: &TrainedModel, delta: &StoreDelta) {
                self.delta_rows
                    .fetch_add(delta.dirty_rows(), Ordering::SeqCst);
            }
        }

        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(6)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let (mut model, _) = fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();
        let sink = DeltaSink {
            full: AtomicUsize::new(0),
            delta_rows: AtomicUsize::new(0),
        };

        // Touch exactly two center rows and publish them as a delta.
        model.store_mut().centers.row_mut(0).fill(123.0);
        model.store_mut().centers.row_mut(3).fill(-1.0);
        let delta = StoreDelta {
            centers: vec![0, 3],
        };
        sink.publish_delta(&model, &delta);
        assert_eq!(sink.delta_rows.load(Ordering::SeqCst), 2);
        assert_eq!(sink.full.load(Ordering::SeqCst), 0, "no full-model publish");

        // A sink without an incremental path falls back to a full publish.
        struct FullOnly(AtomicUsize);
        impl ModelSink for FullOnly {
            fn publish(&self, _model: &TrainedModel) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let fallback = FullOnly(AtomicUsize::new(0));
        fallback.publish_delta(&model, &delta);
        assert_eq!(fallback.0.load(Ordering::SeqCst), 1);
    }
}
