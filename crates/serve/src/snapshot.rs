//! Immutable serving snapshots: frozen rows + per-modality ANN indexes.
//!
//! A [`Snapshot`] is everything one query needs, frozen at publish time:
//! the shared [`ModelArtifacts`] (hotspot assignment, vocabulary — one
//! `Arc`, never copied), a raw copy of every center row (query vectors are
//! built from *raw* embeddings, §6.2.1), a unit-normalized copy of the
//! same rows ([`embed::NormalizedRows`]) for ranking, and one index per
//! node type so a modality-filtered top-k (`words` / `times` / `places`)
//! never scans the other modalities. Small modalities keep the exact
//! linear scan — below [`IndexParams::ann_threshold`] elements a scan
//! beats an HNSW walk and is exact for free; large modalities get an HNSW
//! graph.
//!
//! [`Snapshot::build`] builds the HNSW graphs of the indexed modalities
//! concurrently, one graph per task on [`par::par_map`] (so on up to
//! [`par::threads`] threads). Each graph is built single-threaded from a
//! fixed seed, so the graphs are the same at every thread count; a
//! snapshot with at most one indexed modality spawns no thread.
//!
//! Snapshots come in two flavors: [`Snapshot::build`] freezes a model from
//! scratch, and [`Snapshot::apply_delta`] re-freezes only the rows a
//! [`StoreDelta`] says changed since the previous snapshot — clean rows
//! (raw and normalized) are carried over bit-identically and dirty nodes
//! are re-inserted into the previous HNSW graphs in place, which is what
//! makes a streaming publish cost proportional to the drift, not the
//! model. Delta applies stay on the calling thread: their patches are
//! small, and a thread spawn would cost more than it saves.

use std::sync::Arc;
use std::time::Instant;

use actor_core::{ModelArtifacts, StoreDelta, TrainedModel};
use embed::math::mean_of;
use embed::NormalizedRows;
use mobility::KeywordId;
use stgraph::{NodeId, NodeSpace, NodeType};

use crate::hnsw::{exact_top_k, HnswIndex, SearchScratch, VectorSource};

/// Index-build policy for snapshots.
#[derive(Debug, Clone, Copy)]
pub struct IndexParams {
    /// Modalities with at least this many units get an HNSW index;
    /// smaller ones use the exact scan (which is both faster and exact at
    /// that size). Set to 0 to force ANN everywhere (conformance tests),
    /// `usize::MAX` to force exact everywhere (reference behavior).
    pub ann_threshold: usize,
}

impl Default for IndexParams {
    fn default() -> Self {
        Self {
            ann_threshold: 2048,
        }
    }
}

/// Ceiling on the per-modality dirty fraction a delta apply patches
/// incrementally; above it the modality's HNSW graph is rebuilt from
/// scratch instead (rebuilding is cheaper than re-inserting most of the
/// elements, and yields a fresher graph).
const REBUILD_FRACTION: f64 = 0.3;

/// One modality's slice of the normalized row store.
struct ModalView<'a> {
    norms: &'a NormalizedRows,
    offset: usize,
    count: usize,
}

impl<'a> ModalView<'a> {
    fn new(norms: &'a NormalizedRows, space: &NodeSpace, ty: NodeType) -> Self {
        Self {
            norms,
            offset: space.offset(ty) as usize,
            count: space.count(ty) as usize,
        }
    }
}

impl VectorSource for ModalView<'_> {
    fn len(&self) -> usize {
        self.count
    }
    fn vector(&self, i: u32) -> &[f32] {
        self.norms.row(self.offset + i as usize)
    }
}

/// Per-modality retrieval structure.
#[derive(Clone)]
#[cfg_attr(test, derive(PartialEq))]
enum ModalIndex {
    /// Exact linear scan (small or forced-exact modalities).
    Exact,
    /// HNSW graph (built at snapshot construction, patched by deltas).
    Ann(HnswIndex),
}

/// A frozen, immutable view of one model generation, safe to share across
/// every query thread. Building one is the *only* expensive step of a
/// publish and happens off the query path.
pub struct Snapshot {
    artifacts: Arc<ModelArtifacts>,
    epoch: u64,
    dim: usize,
    /// Frozen raw center rows (row-major, global node order) — the source
    /// for query-vector construction.
    raw: Vec<f32>,
    /// Unit-normalized copies of the same rows — the source for ranking.
    norms: NormalizedRows,
    indexes: [ModalIndex; 4],
}

impl Snapshot {
    /// Freezes `model` under `params`, tagging it with `epoch` (the engine
    /// assigns monotonically increasing epochs at publish time). The model
    /// is borrowed: only its center rows are copied, and the artifacts are
    /// shared through their `Arc`.
    pub fn build(model: &TrainedModel, params: &IndexParams, epoch: u64) -> Self {
        let _span = obs::span!("serve.snapshot.build");
        let store = model.store();
        let (n, dim) = (store.n_nodes(), store.dim());
        // Copy raw rows first, then normalize from the frozen copy, so the
        // two views agree row-for-row even if a hogwild trainer is still
        // writing to the live store.
        let mut raw = Vec::with_capacity(n * dim);
        for i in 0..n {
            raw.extend_from_slice(store.centers.row(i));
        }
        let norms = NormalizedRows::from_flat(&raw, dim);
        let artifacts = Arc::clone(model.artifacts());
        let space = *artifacts.space();
        let indexed: Vec<NodeType> = NodeType::ALL
            .into_iter()
            .filter(|&ty| {
                let count = space.count(ty) as usize;
                count > 0 && count >= params.ann_threshold
            })
            .collect();
        let mut graphs = par::par_map(&indexed, |_, &ty| {
            HnswIndex::build(&ModalView::new(&norms, &space, ty))
        })
        .into_iter();
        let indexes = NodeType::ALL.map(|ty| {
            if indexed.contains(&ty) {
                ModalIndex::Ann(graphs.next().expect("one graph per indexed modality"))
            } else {
                ModalIndex::Exact
            }
        });
        obs::counter("serve.snapshot.built").incr();
        Self {
            artifacts,
            epoch,
            dim,
            raw,
            norms,
            indexes,
        }
    }

    /// The incremental publish path: produces the next snapshot from
    /// `prev` by re-freezing only the center rows `delta` marks dirty.
    /// Clean rows — raw and normalized — are carried over bit-identically,
    /// and each dirty node is re-inserted into the previous HNSW graph
    /// ([`HnswIndex::update_row`]); a modality whose dirty fraction
    /// exceeds 30% is rebuilt from scratch instead.
    ///
    /// Falls back to a full [`Snapshot::build`] when the model does not
    /// descend from `prev` — different artifact `Arc` (a new training
    /// run) or a different store shape. A delta lists center rows only,
    /// the only rows serving reads.
    pub fn apply_delta(
        prev: &Snapshot,
        model: &TrainedModel,
        delta: &StoreDelta,
        params: &IndexParams,
        epoch: u64,
    ) -> Self {
        let store = model.store();
        if !Arc::ptr_eq(&prev.artifacts, model.artifacts())
            || store.dim() != prev.dim
            || store.n_nodes() * store.dim() != prev.raw.len()
        {
            return Self::build(model, params, epoch);
        }
        let started = Instant::now();
        let _span = obs::span!("serve.snapshot.apply");
        let dim = prev.dim;
        let mut raw = prev.raw.clone();
        for &r in &delta.centers {
            let i = r as usize;
            raw[i * dim..(i + 1) * dim].copy_from_slice(store.centers.row(i));
        }
        let mut norms = prev.norms.clone();
        norms.refresh_rows_from_flat(&raw, &delta.centers);

        let space = *prev.artifacts.space();
        let mut scratch = SearchScratch::new();
        let indexes = NodeType::ALL.map(|ty| match &prev.indexes[ty.index()] {
            ModalIndex::Exact => ModalIndex::Exact,
            ModalIndex::Ann(index) => {
                let view = ModalView::new(&norms, &space, ty);
                let (offset, count) = (view.offset, view.count);
                let dirty: Vec<u32> = delta
                    .centers
                    .iter()
                    .map(|&r| r as usize)
                    .filter(|&r| r >= offset && r < offset + count)
                    .map(|r| (r - offset) as u32)
                    .collect();
                if dirty.len() as f64 > REBUILD_FRACTION * count as f64 {
                    ModalIndex::Ann(HnswIndex::build(&view))
                } else {
                    let mut index = index.clone();
                    for &id in &dirty {
                        index.update_row(&view, id, &mut scratch);
                    }
                    ModalIndex::Ann(index)
                }
            }
        });
        obs::counter("serve.snapshot.applied").incr();
        obs::histogram("serve.snapshot.apply_us").record(started.elapsed().as_micros() as u64);
        Self {
            artifacts: Arc::clone(&prev.artifacts),
            epoch,
            dim,
            raw,
            norms,
            indexes,
        }
    }

    /// The shared immutable artifacts (node layout, hotspots, vocabulary).
    pub fn artifacts(&self) -> &Arc<ModelArtifacts> {
        &self.artifacts
    }

    /// The publish epoch this snapshot carries.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Row width of the frozen embeddings.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The unit-normalized center rows (global node ids).
    pub fn normalized(&self) -> &NormalizedRows {
        &self.norms
    }

    /// The frozen raw center vector of a graph vertex.
    pub fn vector(&self, node: NodeId) -> &[f32] {
        let i = node.idx();
        &self.raw[i * self.dim..(i + 1) * self.dim]
    }

    /// Mean raw center vector of a bag of keywords (mirrors
    /// [`TrainedModel::text_vector`] over the frozen rows).
    pub fn text_vector(&self, words: &[KeywordId]) -> Vec<f32> {
        let rows: Vec<&[f32]> = words
            .iter()
            .map(|w| self.vector(self.artifacts.word_node(*w)))
            .collect();
        mean_of(&rows, self.dim)
    }

    /// Mean of the given vectors: the §6.2.1 query representation when
    /// several modalities are observed.
    pub fn query_vector(&self, parts: &[&[f32]]) -> Vec<f32> {
        mean_of(parts, self.dim)
    }

    /// Whether `ty` is served by the ANN index (false = exact scan).
    pub fn is_ann(&self, ty: NodeType) -> bool {
        matches!(self.indexes[ty.index()], ModalIndex::Ann(_))
    }

    fn view(&self, ty: NodeType) -> ModalView<'_> {
        ModalView::new(&self.norms, self.artifacts.space(), ty)
    }

    /// Top-`k` vertices of `ty` by similarity to the **unit** query
    /// vector, most similar first, as `(global id, cosine)`. Served by the
    /// modality's index (ANN or exact).
    pub fn top_k(
        &self,
        ty: NodeType,
        unit_query: &[f32],
        k: usize,
        ef: Option<usize>,
        scratch: &mut SearchScratch,
    ) -> Vec<(NodeId, f64)> {
        let view = self.view(ty);
        if view.is_empty() {
            return Vec::new();
        }
        let local = match &self.indexes[ty.index()] {
            ModalIndex::Exact => exact_top_k(&view, unit_query, k, scratch),
            ModalIndex::Ann(index) => index.search(&view, unit_query, k, ef, scratch),
        };
        self.globalize(ty, local)
    }

    /// Exact (brute-force) top-`k` regardless of the index mode — the
    /// conformance reference for ANN answers.
    pub fn top_k_exact(
        &self,
        ty: NodeType,
        unit_query: &[f32],
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<(NodeId, f64)> {
        let view = self.view(ty);
        if view.is_empty() {
            return Vec::new();
        }
        let local = exact_top_k(&view, unit_query, k, scratch);
        self.globalize(ty, local)
    }

    fn globalize(&self, ty: NodeType, local: Vec<(u32, f64)>) -> Vec<(NodeId, f64)> {
        let off = self.artifacts.space().offset(ty);
        local
            .into_iter()
            .map(|(i, sim)| (NodeId(off + i), sim))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actor_core::ActorConfig;
    use embed::math::normalize_into;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    fn model() -> TrainedModel {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(31)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        actor_core::fit(&corpus, &split.train, &ActorConfig::fast())
            .unwrap()
            .0
    }

    #[test]
    fn exact_top_k_matches_model_nearest_of_type() {
        let m = model();
        let snap = Snapshot::build(&m, &IndexParams::default(), 1);
        let mut scratch = SearchScratch::new();
        let raw = m.vector(m.space().node(NodeType::Word, 3)).to_vec();
        let mut unit = vec![0.0f32; raw.len()];
        normalize_into(&raw, &mut unit);
        for ty in [NodeType::Word, NodeType::Location, NodeType::Time] {
            let ours = snap.top_k(ty, &unit, 5, None, &mut scratch);
            let reference = m.nearest_of_type(&raw, ty, 5);
            assert_eq!(
                ours.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                reference.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                "{ty:?}"
            );
            for (a, b) in ours.iter().zip(&reference) {
                assert!((a.1 - b.1).abs() < 1e-5, "{} vs {}", a.1, b.1);
            }
        }
    }

    #[test]
    fn forced_ann_still_finds_the_query_node_itself() {
        let m = model();
        let forced = IndexParams { ann_threshold: 0 };
        let snap = Snapshot::build(&m, &forced, 2);
        assert!(snap.is_ann(NodeType::Word));
        let mut scratch = SearchScratch::new();
        let node = m.space().node(NodeType::Word, 7);
        let raw = m.vector(node).to_vec();
        let mut unit = vec![0.0f32; raw.len()];
        normalize_into(&raw, &mut unit);
        let top = snap.top_k(NodeType::Word, &unit, 3, None, &mut scratch);
        assert_eq!(top[0].0, node);
        assert!((top[0].1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn concurrent_builds_give_the_same_graphs_at_any_thread_count() {
        let m = crate::testkit::synthetic_model(400, 16, 5);
        let forced = IndexParams { ann_threshold: 0 };
        let build = |threads| {
            let _threads = par::override_threads(threads);
            Snapshot::build(&m, &forced, 1)
        };
        let (one, two) = (build(1), build(2));
        for ty in NodeType::ALL {
            assert!(one.is_ann(ty), "{ty:?}");
            let slot = ty.index();
            assert!(
                one.indexes[slot] == two.indexes[slot],
                "{ty:?} graph differs"
            );
        }
    }

    #[test]
    fn snapshot_is_frozen_against_later_model_mutation() {
        let mut m = model();
        let snap = Snapshot::build(&m, &IndexParams::default(), 3);
        let mut scratch = SearchScratch::new();
        let node = m.space().node(NodeType::Word, 0);
        let raw = m.vector(node).to_vec();
        let mut unit = vec![0.0f32; raw.len()];
        normalize_into(&raw, &mut unit);
        let before = snap.top_k(NodeType::Word, &unit, 5, None, &mut scratch);
        // `build` copied the rows; mutating the original must not leak in.
        m.store_mut().centers.row_mut(node.idx()).fill(7.0);
        let after = snap.top_k(NodeType::Word, &unit, 5, None, &mut scratch);
        assert_eq!(
            before.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            after.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(snap.epoch(), 3);
        assert!(Arc::ptr_eq(snap.artifacts(), m.artifacts()));
    }

    #[test]
    fn apply_delta_refreshes_dirty_rows_and_keeps_clean_rows_bit_identical() {
        let mut m = model();
        let snap = Snapshot::build(&m, &IndexParams::default(), 1);
        let node = m.space().node(NodeType::Word, 2);
        m.store_mut().centers.row_mut(node.idx()).fill(0.25);
        let delta = StoreDelta {
            centers: vec![node.0],
        };

        let next = Snapshot::apply_delta(&snap, &m, &delta, &IndexParams::default(), 2);
        assert_eq!(next.epoch(), 2);
        // The dirty row tracks the live store...
        assert_eq!(next.vector(node), m.vector(node));
        assert_ne!(snap.vector(node), next.vector(node));
        // ...and every clean row is bit-identical to the previous snapshot,
        // raw and normalized.
        for i in 0..m.space().len() {
            if i == node.idx() {
                continue;
            }
            assert_eq!(snap.vector(NodeId(i as u32)), next.vector(NodeId(i as u32)));
            assert_eq!(snap.normalized().row(i), next.normalized().row(i));
        }
    }

    #[test]
    fn apply_delta_records_its_time_in_microseconds() {
        // A one-row apply on a forced-ANN model takes well under a
        // millisecond, so a histogram in whole milliseconds would read 0.
        let mut m = crate::testkit::synthetic_model(200, 16, 7);
        let forced = IndexParams { ann_threshold: 0 };
        let snap = Snapshot::build(&m, &forced, 1);
        let node = m.space().node(NodeType::Word, 3);
        m.store_mut().centers.row_mut(node.idx()).fill(0.5);
        let delta = StoreDelta {
            centers: vec![node.0],
        };
        let hist = obs::histogram("serve.snapshot.apply_us");
        let before = hist.snapshot();
        Snapshot::apply_delta(&snap, &m, &delta, &forced, 2);
        let after = hist.snapshot();
        assert!(after.count > before.count);
        assert!(after.sum > before.sum, "the apply recorded 0 µs");
    }

    #[test]
    fn apply_delta_falls_back_to_full_build_for_foreign_models() {
        let m = model();
        let snap = Snapshot::build(&m, &IndexParams::default(), 1);
        // A second fit: same corpus shape, different artifact Arc.
        let other = model();
        assert!(!Arc::ptr_eq(m.artifacts(), other.artifacts()));
        let delta = StoreDelta {
            centers: (0..other.space().len() as u32).collect(),
        };
        let next = Snapshot::apply_delta(&snap, &other, &delta, &IndexParams::default(), 2);
        assert!(Arc::ptr_eq(next.artifacts(), other.artifacts()));
        assert_eq!(next.vector(NodeId(0)), other.vector(NodeId(0)));
    }
}
