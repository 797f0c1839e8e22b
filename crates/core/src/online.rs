//! Online (streaming) updates — the ReAct-style extension.
//!
//! The paper's authors followed CrossMap with ReAct ("online multimodal
//! embedding for recency-aware spatiotemporal activity modeling", their
//! reference \[8\]). This module brings the same capability to ACTOR as an
//! extension: a fitted [`TrainedModel`] keeps learning from a stream of
//! new records with small SGD steps plus replay over a recency buffer, so
//! embeddings track drifting activity patterns without a full refit.
//!
//! Scope of the extension (documented limitations, mirroring §4.3):
//! hotspots are *not* re-detected — new records are assigned to their
//! closest existing spatial/temporal hotspots, exactly the rule the paper
//! uses for unseen data points; unseen keywords or users are skipped.

use std::collections::VecDeque;

use embed::{EmbeddingStore, NegativeSamplingUpdate, SgdParams};
use mobility::Record;
use rand::seq::IndexedRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use stgraph::{NodeId, NodeType};

use crate::model::TrainedModel;
use crate::publish::{record_publish, ModelSink, StoreDelta};

/// Streaming-update parameters.
#[derive(Debug, Clone, Copy)]
pub struct OnlineParams {
    /// RNG seed.
    pub seed: u64,
}

impl Default for OnlineParams {
    fn default() -> Self {
        Self { seed: 0x051 }
    }
}

/// Learning rate for streaming steps (smaller than batch training — each
/// record is seen once).
const LEARNING_RATE: f32 = 0.01;
/// Negative samples per step.
const NEGATIVES: usize = 2;
/// SGD passes over each incoming record's unit pairs.
const STEPS_PER_RECORD: usize = 2;
/// Replayed buffer records per incoming record (recency replay).
const REPLAY: usize = 4;
/// Recency buffer capacity.
const BUFFER: usize = 4096;
/// L2 ceiling on any single streaming SGD update. The stream is untrusted
/// input, so the ceiling is on: one adversarial record can at most nudge
/// a row by this much.
const GRAD_CLIP: f32 = 5.0;

/// Units of one streamed record under the model's node space.
#[derive(Debug)]
struct StreamUnits {
    time: NodeId,
    location: NodeId,
    words: Vec<NodeId>,
    user: Option<NodeId>,
}

/// The center rows streaming steps wrote since the last publish: one flag
/// per row. Context rows are not tracked: no sink reads them.
struct DirtyRows {
    centers: Vec<bool>,
}

impl DirtyRows {
    /// Flags the center rows one SGD step writes.
    fn mark(&mut self, centers: &[usize]) {
        for &c in centers {
            self.centers[c] = true;
        }
    }

    /// The flagged rows in row order (sorted, duplicate-free), clearing
    /// every flag.
    fn drain(&mut self) -> StoreDelta {
        let flags = &mut self.centers;
        let centers = (0..flags.len() as u32)
            .filter(|&i| flags[i as usize])
            .collect();
        flags.fill(false);
        StoreDelta { centers }
    }
}

/// What a streaming SGD pass uses besides the model, kept apart from the
/// recency buffer so a buffered record replays by reference.
struct Trainer {
    updater: NegativeSamplingUpdate,
    rng: StdRng,
    /// Nodes of each type observed in the stream, for negative sampling.
    seen: [Vec<NodeId>; 4],
    /// Rows written since the sink last caught up: the next delta publish.
    dirty: DirtyRows,
    /// Scratch for a record's word bag, reused across passes.
    bag: Vec<usize>,
}

/// A model wrapper that keeps learning from streamed records.
pub struct OnlineActor {
    model: TrainedModel,
    trainer: Trainer,
    buffer: VecDeque<StreamUnits>,
    observed: u64,
    skipped_words: u64,
    skipped_records: u64,
    /// Snapshot sink plus publication cadence in observed records.
    sink: Option<(std::sync::Arc<dyn ModelSink>, u64)>,
}

impl OnlineActor {
    /// Wraps a fitted model for streaming updates.
    pub fn new(model: TrainedModel, params: OnlineParams) -> Self {
        let dim = model.store().dim();
        let n = model.store().n_nodes();
        Self {
            trainer: Trainer {
                updater: NegativeSamplingUpdate::new(
                    dim,
                    SgdParams {
                        learning_rate: LEARNING_RATE,
                        negatives: NEGATIVES,
                        grad_clip: GRAD_CLIP,
                    },
                ),
                rng: StdRng::seed_from_u64(params.seed),
                seen: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
                dirty: DirtyRows {
                    centers: vec![false; n],
                },
                bag: Vec::new(),
            },
            buffer: VecDeque::with_capacity(BUFFER),
            observed: 0,
            skipped_words: 0,
            skipped_records: 0,
            sink: None,
            model,
        }
    }

    /// Publishes the continuously updated model to `sink` every `every`
    /// successfully observed records (and once in full immediately, so the
    /// sink is never behind the wrapped model). Cadence publishes are
    /// *deltas*: only the store rows the stream actually touched since the
    /// last publish go through [`ModelSink::publish_delta`], so a serving
    /// engine tracks a live stream without ever copying the full model.
    ///
    /// Panics if `every` is zero.
    pub fn attach_sink(&mut self, sink: std::sync::Arc<dyn ModelSink>, every: u64) {
        assert!(every > 0, "publication cadence must be positive");
        // Every row touched so far is covered by this full publish;
        // anything touched afterwards lands in the first delta.
        self.trainer.dirty.drain();
        record_publish(self.model.store().n_nodes());
        sink.publish(&self.model);
        self.sink = Some((sink, every));
    }

    /// The wrapped (continuously updated) model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Records observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Keyword tokens skipped because they were unknown at fit time.
    pub fn skipped_words(&self) -> u64 {
        self.skipped_words
    }

    /// Whole records rejected by [`OnlineActor::observe`] as unusable.
    pub fn skipped_records(&self) -> u64 {
        self.skipped_records
    }

    /// Consumes the wrapper, returning the updated model.
    pub fn into_model(self) -> TrainedModel {
        self.model
    }

    fn remember(&mut self, node: NodeId) {
        let ty = self.model.space().type_of(node).index();
        let Trainer { rng, seen, .. } = &mut self.trainer;
        // Bounded dedup-free reservoir: occasional duplicates only skew
        // negatives toward frequent nodes, which is the degree-biased
        // noise distribution anyway.
        if seen[ty].len() < 65_536 {
            seen[ty].push(node);
        } else {
            let i = rng.random_range(0..seen[ty].len());
            seen[ty][i] = node;
        }
    }

    fn assign(&mut self, record: &Record) -> StreamUnits {
        let time = self.model.time_node(record.timestamp);
        let location = self.model.location_node(record.location);
        let mut words = Vec::with_capacity(record.keywords.len());
        let n_word = self.model.space().n_word;
        for &k in &record.keywords {
            if k.0 < n_word {
                words.push(self.model.word_node(k));
            } else {
                self.skipped_words += 1;
            }
        }
        words.sort_unstable();
        words.dedup();
        let user = self.model.user_node(record.user);
        StreamUnits {
            time,
            location,
            words,
            user,
        }
    }

    /// Whether a streamed record can be applied to the model at all:
    /// finite in-range coordinates, a user known at fit time, and at
    /// least one keyword surviving the vocabulary filter. The stream is
    /// untrusted, so anything else is rejected rather than folded into
    /// hotspot/user assignment where it would corrupt nearest-neighbor
    /// lookups (NaN poisons every distance comparison).
    fn admissible(&self, record: &Record) -> bool {
        record.location.validate().is_ok() && record.user.0 < self.model.space().n_user
    }

    /// Observes one record: assigns its units, applies SGD steps for its
    /// intra-record (and author) pairs, replays a few buffered records,
    /// and pushes it into the recency buffer.
    ///
    /// Returns `false` (and counts the record in
    /// [`OnlineActor::skipped_records`]) when the record is unusable —
    /// non-finite or out-of-range coordinates, a user unseen at fit time,
    /// or no keywords left after the vocabulary filter. The model is
    /// untouched in that case.
    pub fn observe(&mut self, record: &Record) -> bool {
        if !self.admissible(record) {
            self.skipped_records += 1;
            return false;
        }
        let units = self.assign(record);
        if units.words.is_empty() {
            self.skipped_records += 1;
            return false;
        }
        for node in std::iter::once(units.time)
            .chain([units.location])
            .chain(units.words.iter().copied())
            .chain(units.user)
        {
            self.remember(node);
        }

        let store = self.model.store();
        for _ in 0..STEPS_PER_RECORD {
            self.trainer.train(store, &units);
        }
        for _ in 0..REPLAY {
            if self.buffer.is_empty() {
                break;
            }
            let i = self.trainer.rng.random_range(0..self.buffer.len());
            self.trainer.train(store, &self.buffer[i]);
        }

        if self.buffer.len() == BUFFER {
            self.buffer.pop_front();
        }
        self.buffer.push_back(units);
        self.observed += 1;
        if let Some((sink, every)) = &self.sink {
            if self.observed.is_multiple_of(*every) {
                let delta = self.trainer.dirty.drain();
                record_publish(delta.dirty_rows());
                sink.publish_delta(&self.model, &delta);
            }
        }
        true
    }
}

impl Trainer {
    /// One pass of pair updates for a record's units, flagging every row
    /// it writes.
    fn train(&mut self, store: &EmbeddingStore, units: &StreamUnits) {
        let Self {
            updater: upd,
            rng,
            seen,
            dirty,
            bag,
        } = self;
        let neg_of = |ty: NodeType, rng: &mut StdRng| -> Option<usize> {
            let pool = &seen[ty.index()];
            pool.choose(rng).map(|n| n.idx())
        };
        let (time, location) = (units.time.idx(), units.location.idx());

        // T ↔ L.
        if let Some(n) = neg_of(NodeType::Location, rng) {
            upd.step(store, time, location, rng, |_| n);
            dirty.mark(&[time]);
        }
        if let Some(n) = neg_of(NodeType::Time, rng) {
            upd.step(store, location, time, rng, |_| n);
            dirty.mark(&[location]);
        }
        if units.words.is_empty() {
            return;
        }
        bag.clear();
        bag.extend(units.words.iter().map(|w| w.idx()));
        // bag → L, bag → T (footnote-4 style).
        if let Some(n) = neg_of(NodeType::Location, rng) {
            upd.step_bag(store, bag, location, rng, |_| n);
            dirty.mark(bag);
        }
        if let Some(n) = neg_of(NodeType::Time, rng) {
            upd.step_bag(store, bag, time, rng, |_| n);
            dirty.mark(bag);
        }
        // One word pair.
        if bag.len() >= 2 {
            if let Some(n) = neg_of(NodeType::Word, rng) {
                let i = rng.random_range(0..bag.len());
                let mut j = rng.random_range(0..bag.len() - 1);
                if j >= i {
                    j += 1;
                }
                upd.step(store, bag[i], bag[j], rng, |_| n);
                dirty.mark(&[bag[i]]);
            }
        }
        // Author ↔ units (inter-record layer).
        if let Some(user) = units.user {
            let user = user.idx();
            if let Some(n) = neg_of(NodeType::Word, rng) {
                let w = *bag.choose(rng).expect("non-empty bag");
                upd.step(store, user, w, rng, |_| n);
                dirty.mark(&[user]);
            }
            if let Some(n) = neg_of(NodeType::Location, rng) {
                upd.step(store, user, location, rng, |_| n);
                dirty.mark(&[user]);
            }
            if let Some(n) = neg_of(NodeType::Time, rng) {
                upd.step(store, user, time, rng, |_| n);
                dirty.mark(&[user]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ActorConfig;
    use crate::pipeline::fit;
    use embed::math::cosine;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, GeoPoint, SplitSpec};

    fn fitted() -> (mobility::Corpus, CorpusSplit, TrainedModel) {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(80)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let (model, _) = fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();
        (corpus, split, model)
    }

    #[test]
    fn observing_stream_updates_counters() {
        let (corpus, split, model) = fitted();
        let mut online = OnlineActor::new(model, OnlineParams::default());
        for &rid in split.valid.iter() {
            online.observe(corpus.record(rid));
        }
        assert_eq!(online.observed(), split.valid.len() as u64);
        assert_eq!(online.skipped_words(), 0);
    }

    #[test]
    fn stream_pulls_cooccurring_units_together() {
        let (corpus, _, model) = fitted();
        // A synthetic drift: the word "beach" suddenly co-occurs with a
        // specific off-pattern time (3 am) and one location.
        let v = corpus.vocab();
        let Some(beach) = v.get("beach") else {
            // The small 4sq preset keeps only 20 themes; beach is theme 0
            // and always present.
            panic!("beach missing");
        };
        let target_second = 3.0 * 3600.0;
        let loc = GeoPoint::new(40.7, -73.9);
        let before = {
            let t = model.time_of_day_node(target_second);
            cosine(model.vector(model.word_node(beach)), model.vector(t))
        };
        let mut online = OnlineActor::new(model, OnlineParams::default());
        for i in 0..800 {
            let rec = Record {
                id: mobility::RecordId(i),
                user: mobility::UserId(0),
                timestamp: mobility::synth::EPOCH_BASE + (target_second as i64) + i as i64,
                location: loc,
                keywords: vec![beach],
                mentions: vec![],
            };
            online.observe(&rec);
        }
        let model = online.into_model();
        let t = model.time_of_day_node(target_second);
        let after = cosine(model.vector(model.word_node(beach)), model.vector(t));
        assert!(
            after > before,
            "streaming should align beach with 03:00: {before} -> {after}"
        );
    }

    #[test]
    fn attached_sink_receives_snapshots_on_cadence() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        struct Count(AtomicU64);
        impl crate::publish::ModelSink for Count {
            fn publish(&self, _m: &TrainedModel) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let (corpus, split, model) = fitted();
        let mut online = OnlineActor::new(model, OnlineParams::default());
        let sink = Arc::new(Count(AtomicU64::new(0)));
        online.attach_sink(sink.clone(), 10);
        assert_eq!(sink.0.load(Ordering::SeqCst), 1, "immediate publish");
        let mut accepted = 0u64;
        for &rid in split.valid.iter() {
            if online.observe(corpus.record(rid)) {
                accepted += 1;
            }
        }
        assert_eq!(sink.0.load(Ordering::SeqCst), 1 + accepted / 10);
    }

    #[test]
    fn cadence_publishes_are_deltas_with_zero_full_model_copies() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        #[derive(Default)]
        struct Split {
            full: AtomicU64,
            deltas: AtomicU64,
            delta_rows: AtomicU64,
        }
        impl crate::publish::ModelSink for Split {
            fn publish(&self, _m: &TrainedModel) {
                self.full.fetch_add(1, Ordering::SeqCst);
            }
            fn publish_delta(&self, _m: &TrainedModel, delta: &crate::StoreDelta) {
                self.deltas.fetch_add(1, Ordering::SeqCst);
                self.delta_rows
                    .fetch_add(delta.dirty_rows() as u64, Ordering::SeqCst);
            }
        }

        let (corpus, split, model) = fitted();
        let n_nodes = model.space().len();
        let mut online = OnlineActor::new(model, OnlineParams::default());
        let sink = Arc::new(Split::default());
        online.attach_sink(sink.clone(), 10);
        assert_eq!(sink.full.load(Ordering::SeqCst), 1, "one full catch-up");
        let mut accepted = 0u64;
        for &rid in split.valid.iter() {
            if online.observe(corpus.record(rid)) {
                accepted += 1;
            }
        }
        assert!(accepted >= 20, "need a few cadence windows");
        // Steady state: every cadence publish went through the delta path.
        assert_eq!(sink.full.load(Ordering::SeqCst), 1);
        assert_eq!(sink.deltas.load(Ordering::SeqCst), accepted / 10);
        let rows = sink.delta_rows.load(Ordering::SeqCst);
        assert!(rows > 0, "the stream touches rows");
        assert!(
            rows < sink.deltas.load(Ordering::SeqCst) * n_nodes as u64,
            "deltas must be narrower than full republishes: {rows}"
        );
    }

    /// Keeps the center-row bits of its last publish and checks that each
    /// delta lists exactly the center rows whose bits changed since then.
    #[derive(Default)]
    struct BitDiff {
        rows: std::sync::Mutex<Vec<Vec<u32>>>,
        deltas: std::sync::atomic::AtomicU64,
    }

    fn row_bits(m: &TrainedModel) -> Vec<Vec<u32>> {
        let centers = &m.store().centers;
        (0..centers.n_rows())
            .map(|i| centers.row(i).iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    impl crate::publish::ModelSink for BitDiff {
        fn publish(&self, m: &TrainedModel) {
            *self.rows.lock().unwrap() = row_bits(m);
        }

        fn publish_delta(&self, m: &TrainedModel, delta: &crate::StoreDelta) {
            let now = row_bits(m);
            let mut last = self.rows.lock().unwrap();
            let changed: Vec<u32> = (0..now.len())
                .filter(|&i| now[i] != last[i])
                .map(|i| i as u32)
                .collect();
            assert_eq!(delta.centers, changed, "delta rows vs changed rows");
            *last = now;
            self.deltas
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn cadence_deltas_list_exactly_the_changed_rows() {
        let (corpus, split, model) = fitted();
        let mut online = OnlineActor::new(model, OnlineParams::default());
        let sink = std::sync::Arc::new(BitDiff::default());
        online.attach_sink(sink.clone(), 5);
        let mut accepted = 0u64;
        for &rid in split.valid.iter() {
            accepted += u64::from(online.observe(corpus.record(rid)));
        }
        assert!(accepted >= 10, "need a few cadence windows");
        let deltas = sink.deltas.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(deltas, accepted / 5);
    }

    #[test]
    fn buffer_is_bounded() {
        let (corpus, split, model) = fitted();
        let mut online = OnlineActor::new(model, OnlineParams::default());
        // Stream the held-out records round and round until more than the
        // buffer's capacity has been accepted.
        let stream = split.valid.iter().chain(split.test.iter()).cycle();
        for &rid in stream {
            online.observe(corpus.record(rid));
            if online.observed() > BUFFER as u64 + 10 {
                break;
            }
        }
        assert_eq!(online.buffer.len(), BUFFER);
    }

    #[test]
    fn corrupt_stream_records_are_skipped_and_model_stays_finite() {
        let (corpus, _, model) = fitted();
        let beach = corpus.vocab().get("beach").expect("beach in vocab");
        let n_user = model.space().n_user;
        let snapshot: Vec<Vec<f32>> = (0..model.space().len())
            .map(|i| model.store().centers.row(i).to_vec())
            .collect();
        let mut online = OnlineActor::new(model, OnlineParams::default());
        let base = Record {
            id: mobility::RecordId(0),
            user: mobility::UserId(0),
            timestamp: mobility::synth::EPOCH_BASE + 3600,
            location: GeoPoint::new(40.7, -73.9),
            keywords: vec![beach],
            mentions: vec![],
        };
        let bad = [
            // NaN latitude.
            Record {
                location: GeoPoint::new(f64::NAN, -73.9),
                ..base.clone()
            },
            // Infinite longitude.
            Record {
                location: GeoPoint::new(40.7, f64::INFINITY),
                ..base.clone()
            },
            // Coordinates far out of range.
            Record {
                location: GeoPoint::new(1234.0, -73.9),
                ..base.clone()
            },
            // User unseen at fit time.
            Record {
                user: mobility::UserId(n_user + 10),
                ..base.clone()
            },
            // No keywords at all.
            Record {
                keywords: vec![],
                ..base.clone()
            },
            // Only out-of-vocabulary keywords.
            Record {
                keywords: vec![mobility::KeywordId(u32::MAX)],
                ..base.clone()
            },
        ];
        for rec in &bad {
            assert!(!online.observe(rec), "should reject {rec:?}");
        }
        assert_eq!(online.observed(), 0);
        assert_eq!(online.skipped_records(), bad.len() as u64);
        // Rejected records must not have touched a single embedding row.
        let model = online.into_model();
        for (i, row) in snapshot.iter().enumerate() {
            assert_eq!(model.store().centers.row(i), row.as_slice(), "row {i}");
        }
    }

    #[test]
    fn valid_record_after_corrupt_burst_still_learns() {
        let (corpus, _, model) = fitted();
        let beach = corpus.vocab().get("beach").expect("beach in vocab");
        let mut online = OnlineActor::new(model, OnlineParams::default());
        let good = Record {
            id: mobility::RecordId(1),
            user: mobility::UserId(0),
            timestamp: mobility::synth::EPOCH_BASE + 3600,
            location: GeoPoint::new(40.7, -73.9),
            keywords: vec![beach],
            mentions: vec![],
        };
        let poisoned = Record {
            location: GeoPoint::new(f64::NAN, f64::NAN),
            ..good.clone()
        };
        for _ in 0..50 {
            online.observe(&poisoned);
        }
        assert!(online.observe(&good));
        assert_eq!(online.observed(), 1);
        assert_eq!(online.skipped_records(), 50);
        let model = online.into_model();
        for i in (0..model.space().len()).step_by(17) {
            assert!(model.store().centers.row(i).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn vectors_stay_finite_under_streaming() {
        let (corpus, split, model) = fitted();
        let mut online = OnlineActor::new(model, OnlineParams::default());
        for &rid in split.test.iter() {
            online.observe(corpus.record(rid));
        }
        let model = online.into_model();
        for i in (0..model.space().len()).step_by(31) {
            assert!(model.store().centers.row(i).iter().all(|x| x.is_finite()));
        }
    }
}
