//! The query engine: planner + snapshot cell + cache, behind one handle.
//!
//! A [`QueryEngine`] is cheap to share (`Arc` it across however many
//! worker threads the server runs). A query takes two brief locks: the
//! snapshot cell's, to clone the current `Arc`
//! ([`crate::swap::SnapshotCell`]), and one cache shard's. It resolves
//! the request to graph nodes ([`CacheKey`]) and looks that key up; only
//! a miss plans a query vector and searches. Search scratch is
//! thread-local, and no lock is held while a query searches.
//!
//! Publishing a new model generation — from online streaming updates, a
//! restored checkpoint, or a fresh training run — is [`QueryEngine::publish`];
//! the engine also implements [`actor_core::ModelSink`], so it can be
//! handed directly to `OnlineActor::attach_sink` and receive generations
//! as the stream produces them.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use actor_core::{ModelSink, StoreDelta, TrainedModel};
use embed::math::normalize_into;
use hotspot::{SpatialHotspotId, TemporalHotspotId};
use mobility::KeywordId;
use stgraph::NodeType;

use crate::cache::{CacheKey, QueryCache};
use crate::hnsw::SearchScratch;
use crate::query::{QueryError, QueryRequest, QueryResponse};
use crate::snapshot::{IndexParams, Snapshot};
use crate::swap::SnapshotCell;

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineParams {
    /// Index-build policy for published snapshots.
    pub index: IndexParams,
    /// Total query-cache entries. The cache keeps at least one entry per
    /// shard, so `0` gives a one-entry-per-shard cache, not no cache.
    pub cache_capacity: usize,
    /// Cache shard count (lock granularity).
    pub cache_shards: usize,
}

impl Default for EngineParams {
    fn default() -> Self {
        Self {
            index: IndexParams::default(),
            cache_capacity: 4096,
            cache_shards: 16,
        }
    }
}

/// Point-in-time engine statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Epoch of the currently served snapshot.
    pub epoch: u64,
    /// Queries answered (hits + misses).
    pub queries: u64,
    /// Queries answered from the cache.
    pub cache_hits: u64,
    /// Queries that ran the index search.
    pub cache_misses: u64,
    /// Snapshots published over the engine's lifetime.
    pub publishes: u64,
}

thread_local! {
    /// Per-thread search scratch, reused by every miss on the thread. A
    /// query still allocates its key's word list and its response: the
    /// three result `Vec`s and one `String` per word (a hit clones them
    /// out of the cache). A miss also allocates its query vector's parts.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// A concurrent cross-modal query engine over hot-swappable snapshots.
pub struct QueryEngine {
    cell: SnapshotCell,
    cache: QueryCache,
    params: EngineParams,
    next_epoch: AtomicU64,
    publishes: AtomicU64,
    /// `serve.query.latency_us`, `serve.query.count` and `serve.publish`,
    /// looked up once so a query takes no registry lock.
    query_latency: obs::Histogram,
    query_count: obs::Counter,
    publish_count: obs::Counter,
}

impl QueryEngine {
    /// Builds the first snapshot (epoch 1) from `model` and starts serving.
    /// The model is borrowed — the engine freezes what it needs and the
    /// caller keeps training on the original.
    pub fn new(model: &TrainedModel, params: EngineParams) -> Self {
        let first = Arc::new(Snapshot::build(model, &params.index, 1));
        Self {
            cell: SnapshotCell::new(first),
            cache: QueryCache::new(params.cache_capacity, params.cache_shards),
            params,
            next_epoch: AtomicU64::new(2),
            publishes: AtomicU64::new(0),
            query_latency: obs::histogram("serve.query.latency_us"),
            query_count: obs::counter("serve.query.count"),
            publish_count: obs::counter("serve.publish"),
        }
    }

    /// An engine with default parameters.
    pub fn with_defaults(model: &TrainedModel) -> Self {
        Self::new(model, EngineParams::default())
    }

    /// The currently served snapshot (in-flight queries keep whatever
    /// snapshot they loaded even if a publish lands mid-query).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Epoch of the currently served snapshot.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Publishes a new model generation: builds its snapshot off the query
    /// path, swaps it in, and drops the (now unreachable) cache entries of
    /// older epochs. Safe to call concurrently with queries; concurrent
    /// publishers are serialized by the cell.
    pub fn publish(&self, model: &TrainedModel) {
        self.swap_in(|epoch| Snapshot::build(model, &self.params.index, epoch));
    }

    /// Publishes an incrementally updated model generation: applies
    /// `delta` on top of the currently served snapshot
    /// ([`Snapshot::apply_delta`]) instead of rebuilding from scratch, so
    /// a streaming publish costs time proportional to the rows that
    /// actually changed. Falls back to a full build automatically when the
    /// model does not descend from the served snapshot.
    pub fn publish_delta(&self, model: &TrainedModel, delta: &StoreDelta) {
        let prev = self.cell.load();
        self.swap_in(|epoch| Snapshot::apply_delta(&prev, model, delta, &self.params.index, epoch));
    }

    /// Builds the next epoch's snapshot, swaps it in and drops the cached
    /// answers of older epochs.
    fn swap_in(&self, build: impl FnOnce(u64) -> Snapshot) {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        self.cell.store(Arc::new(build(epoch)));
        self.cache.clear();
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.publish_count.incr();
    }

    /// Answers a query against the current snapshot.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        let started = Instant::now();
        let snap = self.cell.load();
        let key = resolve(&snap, req)?;
        let response = match self.cache.get(&key) {
            Some(mut hit) => {
                hit.from_cache = true;
                hit
            }
            None => {
                let unit = plan(&snap, &key);
                let response =
                    SCRATCH.with(|scratch| answer(&snap, &unit, &key, &mut scratch.borrow_mut()));
                self.cache.insert(key, response.clone());
                response
            }
        };
        self.query_latency
            .record(started.elapsed().as_micros() as u64);
        self.query_count.incr();
        Ok(response)
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        let hits = self.cache.hits();
        let misses = self.cache.misses();
        EngineStats {
            epoch: self.cell.epoch(),
            queries: hits + misses,
            cache_hits: hits,
            cache_misses: misses,
            publishes: self.publishes.load(Ordering::Relaxed),
        }
    }
}

impl ModelSink for QueryEngine {
    fn publish(&self, model: &TrainedModel) {
        QueryEngine::publish(self, model);
    }

    fn publish_delta(&self, model: &TrainedModel, delta: &StoreDelta) {
        QueryEngine::publish_delta(self, model, delta);
    }
}

/// Resolves a request against the snapshot's artifacts: the nodes of its
/// observed second-of-day and point, and the ids of its keywords. A
/// non-finite second-of-day or a point off the globe is rejected here,
/// before it can reach hotspot assignment or the cache.
fn resolve(snap: &Snapshot, req: &QueryRequest) -> Result<CacheKey, QueryError> {
    let arts = snap.artifacts();
    let (second_of_day, point, words) = req.kind.parts();
    if second_of_day.is_none() && point.is_none() && words.is_empty() {
        return Err(QueryError::EmptyQuery);
    }
    if second_of_day.is_some_and(|s| !s.is_finite()) {
        return Err(QueryError::NonFiniteTime);
    }
    if let Some(p) = point {
        p.validate().map_err(QueryError::InvalidPoint)?;
    }
    let words = words
        .iter()
        .map(|w| {
            arts.vocab()
                .get(w)
                .ok_or_else(|| QueryError::UnknownWord(w.clone()))
        })
        .collect::<Result<Vec<KeywordId>, _>>()?;
    Ok(CacheKey {
        epoch: snap.epoch(),
        k: req.k,
        modalities: req.modalities,
        time: second_of_day.map(|s| arts.time_of_day_node(s)),
        place: point.map(|p| arts.location_node(p)),
        words,
    })
}

/// The unit §6.2.1 query vector of a resolved request: the mean of its
/// present parts (time row, location row, then the keywords' text
/// vector), normalized.
fn plan(snap: &Snapshot, key: &CacheKey) -> Vec<f32> {
    let text = (!key.words.is_empty()).then(|| snap.text_vector(&key.words));
    let parts: Vec<&[f32]> = key
        .time
        .into_iter()
        .chain(key.place)
        .map(|node| snap.vector(node))
        .chain(text.as_deref())
        .collect();
    let raw = snap.query_vector(&parts);
    let mut unit = vec![0.0; raw.len()];
    normalize_into(&raw, &mut unit);
    unit
}

/// Runs the requested per-modality searches and renders hotspot centers /
/// vocabulary words.
fn answer(
    snap: &Snapshot,
    unit: &[f32],
    key: &CacheKey,
    scratch: &mut SearchScratch,
) -> QueryResponse {
    let arts = snap.artifacts();
    let local = |n| arts.space().local_of(n);
    let (temporal, spatial) = (arts.temporal_hotspots(), arts.spatial_hotspots());
    let mut top = |wanted: bool, ty| {
        if wanted {
            snap.top_k(ty, unit, key.k, None, scratch)
        } else {
            Vec::new()
        }
    };
    QueryResponse {
        epoch: snap.epoch(),
        from_cache: false,
        words: top(key.modalities.words, NodeType::Word)
            .into_iter()
            .map(|(n, s)| (arts.vocab().word(KeywordId(local(n))).to_string(), s))
            .collect(),
        times: top(key.modalities.times, NodeType::Time)
            .into_iter()
            .map(|(n, s)| (temporal.center(TemporalHotspotId(local(n))), s))
            .collect(),
        places: top(key.modalities.places, NodeType::Location)
            .into_iter()
            .map(|(n, s)| (spatial.center(SpatialHotspotId(local(n))), s))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ModalityMask;
    use actor_core::ActorConfig;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CoordinateFault, CorpusSplit, GeoPoint, SplitSpec};

    fn model() -> TrainedModel {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(51)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        actor_core::fit(&corpus, &split.train, &ActorConfig::fast())
            .unwrap()
            .0
    }

    #[test]
    fn spatial_query_matches_model_reference_ranking() {
        let m = model();
        let engine = QueryEngine::with_defaults(&m);
        let p = GeoPoint::new(40.75, -73.99);
        let r = engine.query(&QueryRequest::spatial(p, 5)).unwrap();
        assert_eq!(r.words.len(), 5);
        assert!(!r.from_cache);
        assert_eq!(r.epoch, 1);

        // Reference semantics: cosine ranking over the raw model.
        let raw = m.vector(m.location_node(p)).to_vec();
        let reference = m.nearest_words(&raw, 5);
        assert_eq!(
            r.words.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>(),
            reference.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>()
        );
        for (a, b) in r.words.iter().zip(&reference) {
            assert!((a.1 - b.1).abs() < 1e-5);
        }
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let engine = QueryEngine::with_defaults(&model());
        let req = QueryRequest::temporal(20.0 * 3600.0, 4);
        let first = engine.query(&req).unwrap();
        assert!(!first.from_cache);
        let second = engine.query(&req).unwrap();
        assert!(second.from_cache);
        assert_eq!(first.words, second.words);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.queries, 2);
    }

    #[test]
    fn zero_capacity_still_caches_one_entry_per_shard() {
        let params = EngineParams {
            cache_capacity: 0,
            cache_shards: 1,
            ..EngineParams::default()
        };
        let engine = QueryEngine::new(&model(), params);
        let req = QueryRequest::temporal(20.0 * 3600.0, 4);
        assert!(!engine.query(&req).unwrap().from_cache);
        assert!(engine.query(&req).unwrap().from_cache);
    }

    #[test]
    fn unknown_words_and_empty_composites_error() {
        let engine = QueryEngine::with_defaults(&model());
        let err = engine
            .query(&QueryRequest::keyword("definitely_not_a_word_xyz", 3))
            .unwrap_err();
        assert!(matches!(err, QueryError::UnknownWord(_)));
        let err = engine
            .query(&QueryRequest::composite(None, None, Vec::new()))
            .unwrap_err();
        assert_eq!(err, QueryError::EmptyQuery);
    }

    #[test]
    fn non_finite_and_off_globe_inputs_error_and_are_not_cached() {
        let engine = QueryEngine::with_defaults(&crate::testkit::synthetic_model(50, 8, 3));
        let off_globe = |lat, lon| QueryRequest::spatial(GeoPoint::new(lat, lon), 3);
        let composite = |s, p| QueryRequest::composite(s, p, Vec::new());
        let cases = [
            (
                QueryRequest::temporal(f64::NAN, 3),
                QueryError::NonFiniteTime,
            ),
            (
                QueryRequest::temporal(f64::INFINITY, 3),
                QueryError::NonFiniteTime,
            ),
            (
                off_globe(f64::NAN, f64::NAN),
                QueryError::InvalidPoint(CoordinateFault::NonFinite),
            ),
            (
                off_globe(f64::INFINITY, 0.0),
                QueryError::InvalidPoint(CoordinateFault::NonFinite),
            ),
            (
                off_globe(500.0, 900.0),
                QueryError::InvalidPoint(CoordinateFault::OutOfRange),
            ),
            (
                composite(Some(f64::NEG_INFINITY), Some(GeoPoint::new(34.0, -118.2))),
                QueryError::NonFiniteTime,
            ),
            (
                composite(Some(3600.0), Some(GeoPoint::new(34.0, 200.0))),
                QueryError::InvalidPoint(CoordinateFault::OutOfRange),
            ),
        ];
        for (req, want) in cases {
            assert_eq!(engine.query(&req).unwrap_err(), want, "{}", req.kind);
        }
        assert_eq!(
            engine.stats().queries,
            0,
            "a rejected request reached the cache"
        );

        // A finite second-of-day outside the day still wraps.
        let wrapped = engine.query(&QueryRequest::temporal(-3600.0, 3)).unwrap();
        let plain = engine.query(&QueryRequest::temporal(82_800.0, 3)).unwrap();
        assert_eq!(wrapped.words, plain.words);
    }

    #[test]
    fn composite_query_averages_modalities() {
        let m = model();
        let engine = QueryEngine::with_defaults(&m);
        let p = GeoPoint::new(40.7, -74.0);
        let s = 9.0 * 3600.0;
        let r = engine
            .query(&QueryRequest::composite(Some(s), Some(p), Vec::new()).with_k(3))
            .unwrap();
        let tv = m.vector(m.time_of_day_node(s)).to_vec();
        let lv = m.vector(m.location_node(p)).to_vec();
        let q = m.query_vector(&[&tv, &lv]);
        let reference = m.nearest_words(&q, 3);
        assert_eq!(
            r.words.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>(),
            reference.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn modality_mask_skips_unrequested_modalities() {
        let engine = QueryEngine::with_defaults(&model());
        let r = engine
            .query(
                &QueryRequest::temporal(3600.0, 5).with_modalities(ModalityMask {
                    words: true,
                    times: false,
                    places: false,
                }),
            )
            .unwrap();
        assert!(!r.words.is_empty());
        assert!(r.times.is_empty());
        assert!(r.places.is_empty());
    }

    #[test]
    fn publish_bumps_epoch_and_invalidates_cache() {
        let m = model();
        let engine = QueryEngine::with_defaults(&m);
        let req = QueryRequest::keyword("beach", 3);
        // Skip if the synthetic vocab lacks the word.
        if engine.query(&req).is_err() {
            return;
        }
        assert!(engine.query(&req).unwrap().from_cache);
        engine.publish(&m);
        assert_eq!(engine.epoch(), 2);
        let after = engine.query(&req).unwrap();
        assert!(!after.from_cache, "publish must invalidate cached answers");
        assert_eq!(after.epoch, 2);
        assert_eq!(engine.stats().publishes, 1);
    }

    #[test]
    fn delta_publish_serves_the_updated_rows() {
        let mut m = model();
        let engine = QueryEngine::with_defaults(&m);
        // Drift one word row, then publish only the delta.
        let node = m.space().node(NodeType::Word, 1);
        m.store_mut().centers.row_mut(node.idx())[0] += 0.5;
        let delta = StoreDelta {
            centers: vec![node.0],
        };
        engine.publish_delta(&m, &delta);
        assert_eq!(engine.epoch(), 2);
        assert_eq!(engine.stats().publishes, 1);
        // The served snapshot carries the drifted row.
        assert_eq!(engine.snapshot().vector(node), m.vector(node));
    }

    #[test]
    fn engine_is_a_model_sink() {
        let m = model();
        let engine = QueryEngine::with_defaults(&m);
        let sink: &dyn ModelSink = &engine;
        sink.publish(&m);
        assert_eq!(engine.epoch(), 2);
        sink.publish_delta(&m, &StoreDelta::default());
        assert_eq!(engine.epoch(), 3);
    }
}
