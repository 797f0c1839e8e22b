//! The query engine: planner + snapshot cell + cache, behind one handle.
//!
//! A [`QueryEngine`] is cheap to share (`Arc` it across however many
//! worker threads the server runs). A query takes two brief locks: the
//! snapshot cell's, to clone the current `Arc`
//! ([`crate::swap::SnapshotCell`]), and one cache shard's. Search scratch
//! is thread-local, and no lock is held while a query searches.
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
use mobility::{GeoPoint, KeywordId};
use stgraph::{NodeId, NodeType};

use crate::cache::{CacheKey, QueryCache};
use crate::hnsw::SearchScratch;
use crate::query::{QueryError, QueryKind, QueryRequest, QueryResponse};
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
    /// Per-thread search scratch + query-vector buffers: queries allocate
    /// nothing once a thread has warmed up.
    static SCRATCH: RefCell<(SearchScratch, Vec<f32>, Vec<f32>)> =
        RefCell::new((SearchScratch::new(), Vec::new(), Vec::new()));
}

/// A concurrent cross-modal query engine over hot-swappable snapshots.
pub struct QueryEngine {
    cell: SnapshotCell,
    cache: QueryCache,
    params: EngineParams,
    next_epoch: AtomicU64,
    publishes: AtomicU64,
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
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(Snapshot::build(model, &self.params.index, epoch));
        self.cell.store(snap);
        self.cache.clear();
        self.publishes.fetch_add(1, Ordering::Relaxed);
        obs::counter("serve.publish").incr();
    }

    /// Publishes an incrementally updated model generation: applies
    /// `delta` on top of the currently served snapshot
    /// ([`Snapshot::apply_delta`]) instead of rebuilding from scratch, so
    /// a streaming publish costs time proportional to the rows that
    /// actually changed. Falls back to a full build automatically when the
    /// model does not descend from the served snapshot.
    pub fn publish_delta(&self, model: &TrainedModel, delta: &StoreDelta) {
        let prev = self.cell.load();
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(Snapshot::apply_delta(
            &prev,
            model,
            delta,
            &self.params.index,
            epoch,
        ));
        self.cell.store(snap);
        self.cache.clear();
        self.publishes.fetch_add(1, Ordering::Relaxed);
        obs::counter("serve.publish").incr();
    }

    /// Answers a query against the current snapshot.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        let started = Instant::now();
        let snap = self.cell.load();
        let response = SCRATCH.with(|cells| {
            let (scratch, raw, unit) = &mut *cells.borrow_mut();
            let desc = plan_query_vector(&snap, &req.kind, raw)?;
            unit.resize(raw.len(), 0.0);
            normalize_into(raw, unit);

            let key = CacheKey::new(snap.epoch(), req.k, req.modalities.bits(), unit);
            if let Some(mut hit) = self.cache.get(&key) {
                hit.from_cache = true;
                return Ok(hit);
            }

            let response = answer(&snap, desc, unit, req, scratch);
            self.cache.insert(key, response.clone());
            Ok(response)
        })?;
        obs::histogram("serve.query.latency_us").record(started.elapsed().as_micros() as u64);
        obs::counter("serve.query.count").incr();
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

/// Resolves a query kind to its raw (un-normalized) §6.2.1 query vector,
/// written into `raw`, against the snapshot's frozen rows and shared
/// artifacts. Returns the display description.
fn plan_query_vector(
    snap: &Snapshot,
    kind: &QueryKind,
    raw: &mut Vec<f32>,
) -> Result<String, QueryError> {
    let arts = snap.artifacts();
    match kind {
        QueryKind::Spatial(p) => {
            copy_node_vector(snap, arts.location_node(*p), raw);
            Ok(format!("location ({:.4}, {:.4})", p.lat, p.lon))
        }
        QueryKind::Temporal(s) => {
            copy_node_vector(snap, arts.time_of_day_node(*s), raw);
            Ok(format!("time {}", mobility::types::format_time_of_day(*s)))
        }
        QueryKind::Keyword(w) => {
            let kw = lookup_word(snap, w)?;
            copy_node_vector(snap, arts.word_node(kw), raw);
            Ok(format!("keyword {w:?}"))
        }
        QueryKind::Composite {
            second_of_day,
            point,
            words,
        } => {
            let kws: Vec<KeywordId> = words
                .iter()
                .map(|w| lookup_word(snap, w))
                .collect::<Result<_, _>>()?;
            let mut parts: Vec<Vec<f32>> = Vec::new();
            let mut desc: Vec<String> = Vec::new();
            if let Some(s) = second_of_day {
                parts.push(snap.vector(arts.time_of_day_node(*s)).to_vec());
                desc.push(mobility::types::format_time_of_day(*s));
            }
            if let Some(p) = point {
                parts.push(snap.vector(arts.location_node(*p)).to_vec());
                desc.push(format!("({:.4}, {:.4})", p.lat, p.lon));
            }
            if !kws.is_empty() {
                parts.push(snap.text_vector(&kws));
                desc.push(words.join(" "));
            }
            if parts.is_empty() {
                return Err(QueryError::EmptyQuery);
            }
            let views: Vec<&[f32]> = parts.iter().map(|v| v.as_slice()).collect();
            let q = snap.query_vector(&views);
            raw.clear();
            raw.extend_from_slice(&q);
            Ok(desc.join(" + "))
        }
    }
}

fn lookup_word(snap: &Snapshot, w: &str) -> Result<KeywordId, QueryError> {
    snap.artifacts()
        .vocab()
        .get(w)
        .ok_or_else(|| QueryError::UnknownWord(w.to_string()))
}

fn copy_node_vector(snap: &Snapshot, node: NodeId, raw: &mut Vec<f32>) {
    raw.clear();
    raw.extend_from_slice(snap.vector(node));
}

/// Runs the requested per-modality searches and renders hotspot centers /
/// vocabulary words.
fn answer(
    snap: &Snapshot,
    desc: String,
    unit: &[f32],
    req: &QueryRequest,
    scratch: &mut SearchScratch,
) -> QueryResponse {
    let arts = snap.artifacts();
    let words = if req.modalities.words {
        snap.top_k(NodeType::Word, unit, req.k, None, scratch)
            .into_iter()
            .map(|(n, s)| {
                let kw = KeywordId(arts.space().local_of(n));
                (arts.vocab().word(kw).to_string(), s)
            })
            .collect()
    } else {
        Vec::new()
    };
    let times = if req.modalities.times {
        snap.top_k(NodeType::Time, unit, req.k, None, scratch)
            .into_iter()
            .map(|(n, s)| {
                let local = arts.space().local_of(n);
                (
                    arts.temporal_hotspots().center(hotspot::TemporalHotspotId(local)),
                    s,
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let places: Vec<(GeoPoint, f64)> = if req.modalities.places {
        snap.top_k(NodeType::Location, unit, req.k, None, scratch)
            .into_iter()
            .map(|(n, s)| {
                let local = arts.space().local_of(n);
                (
                    arts.spatial_hotspots().center(hotspot::SpatialHotspotId(local)),
                    s,
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    QueryResponse {
        query: desc,
        epoch: snap.epoch(),
        from_cache: false,
        words,
        times,
        places,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ModalityMask;
    use actor_core::ActorConfig;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

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
            .query(&QueryRequest::temporal(3600.0, 5).with_modalities(ModalityMask {
                words: true,
                times: false,
                places: false,
            }))
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
            contexts: vec![],
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
