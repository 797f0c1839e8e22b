//! Snapshot publication: the hook that connects training to serving.
//!
//! A serving layer (see `crates/serve`) wants to pick up fresh models the
//! moment training produces them — at the end of a batch fit, after a
//! checkpoint-restored resume, or every N records of a streaming update —
//! without `core` depending on any particular serving implementation.
//! [`ModelSink`] is that seam: anything that can absorb a finished
//! [`TrainedModel`] implements it, and the training entry points accept
//! one.

use embed::StoreDelta;
use mobility::{Corpus, RecordId};

use crate::config::ActorConfig;
use crate::error::FitError;
use crate::model::TrainedModel;
use crate::pipeline::{fit, FitReport};
use crate::resilient::{fit_resume, ResilienceOptions, ResilienceReport};

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
    /// `Arc`, same shape). Publishers obtain the delta from
    /// [`embed::EmbeddingStore::drain_dirty`] between training steps.
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
/// store rows actually shipped (all rows for a full publish, the delta's
/// row count for an incremental one).
pub(crate) fn record_publish(dirty_rows: usize) {
    obs::counter("core.publish.count").incr();
    obs::counter("core.publish.dirty_rows").add(dirty_rows as u64);
}

/// [`fit`], then publish the finished model to `sink` before returning
/// it — so a query engine starts answering from the new model in the same
/// breath the training call completes.
pub fn fit_with_sink(
    corpus: &Corpus,
    train_ids: &[RecordId],
    config: &ActorConfig,
    sink: &dyn ModelSink,
) -> Result<(TrainedModel, FitReport), FitError> {
    let (model, report) = fit(corpus, train_ids, config)?;
    record_publish(2 * model.store().n_nodes());
    sink.publish(&model);
    Ok((model, report))
}

/// [`fit_resume`], then publish the recovered-and-finished model to
/// `sink` — the restart path of a serving deployment: crash, resume from
/// the newest intact checkpoint, republish.
pub fn fit_resume_with_sink(
    corpus: &Corpus,
    train_ids: &[RecordId],
    config: &ActorConfig,
    opts: &ResilienceOptions,
    sink: &dyn ModelSink,
) -> Result<(TrainedModel, FitReport, ResilienceReport), FitError> {
    let (model, report, resilience) = fit_resume(corpus, train_ids, config, opts)?;
    record_publish(2 * model.store().n_nodes());
    sink.publish(&model);
    Ok((model, report, resilience))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingSink {
        published: AtomicUsize,
        nodes_seen: AtomicUsize,
    }

    impl ModelSink for CountingSink {
        fn publish(&self, model: &TrainedModel) {
            self.published.fetch_add(1, Ordering::SeqCst);
            self.nodes_seen.store(model.space().len(), Ordering::SeqCst);
        }
    }

    #[test]
    fn fit_with_sink_publishes_the_finished_model() {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(5)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let sink = CountingSink {
            published: AtomicUsize::new(0),
            nodes_seen: AtomicUsize::new(0),
        };
        let (model, _) =
            fit_with_sink(&corpus, &split.train, &ActorConfig::fast(), &sink).unwrap();
        assert_eq!(sink.published.load(Ordering::SeqCst), 1);
        assert_eq!(sink.nodes_seen.load(Ordering::SeqCst), model.space().len());
    }

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
                self.delta_rows.fetch_add(delta.dirty_rows(), Ordering::SeqCst);
            }
        }

        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(6)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let (mut model, _) = fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();
        let sink = DeltaSink {
            full: AtomicUsize::new(0),
            delta_rows: AtomicUsize::new(0),
        };

        // Sync point, then touch exactly two center rows.
        let sync = model.store().close_generation();
        model.store_mut().centers.row_mut(0).fill(123.0);
        model.store_mut().centers.row_mut(3).fill(-1.0);
        let delta = model.store().drain_dirty(sync);
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
