//! The trained ACTOR model and its cross-modal query API (§3, §6.2.1).

use std::sync::Arc;

use embed::math::{cosine, mean_of};
use embed::EmbeddingStore;
use hotspot::{SpatialHotspots, TemporalHotspots};
use mobility::{GeoPoint, KeywordId, Timestamp, UserId, Vocabulary};
use stgraph::{NodeId, NodeSpace, NodeType};

use crate::config::ActorConfig;

/// The immutable components of a trained model: the node layout, the
/// detected hotspots, the vocabulary, and the training configuration.
///
/// Training mutates embedding *rows*, never these — they are fixed the
/// moment `prepare` runs. Splitting them out of [`TrainedModel`] behind an
/// `Arc` means publishing, snapshotting, and checkpointing share one copy
/// instead of deep-cloning hotspot tables and vocabularies alongside every
/// store: after `prepare` builds them once, they are never copied again.
#[derive(Debug)]
pub struct ModelArtifacts {
    pub(crate) space: NodeSpace,
    pub(crate) spatial: SpatialHotspots,
    pub(crate) temporal: TemporalHotspots,
    pub(crate) vocab: Vocabulary,
    pub(crate) config: ActorConfig,
}

impl ModelArtifacts {
    /// Assembles the immutable artifact set.
    pub fn new(
        space: NodeSpace,
        spatial: SpatialHotspots,
        temporal: TemporalHotspots,
        vocab: Vocabulary,
        config: ActorConfig,
    ) -> Self {
        Self {
            space,
            spatial,
            temporal,
            vocab,
            config,
        }
    }

    /// The node layout.
    pub fn space(&self) -> &NodeSpace {
        &self.space
    }

    /// Detected spatial hotspots.
    pub fn spatial_hotspots(&self) -> &SpatialHotspots {
        &self.spatial
    }

    /// Detected temporal hotspots.
    pub fn temporal_hotspots(&self) -> &TemporalHotspots {
        &self.temporal
    }

    /// The training vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &ActorConfig {
        &self.config
    }

    /// Vertex for a raw location: its nearest spatial hotspot.
    pub fn location_node(&self, p: GeoPoint) -> NodeId {
        self.space
            .node(NodeType::Location, self.spatial.assign(p).0)
    }

    /// Vertex for a raw timestamp: its nearest temporal hotspot (wrapped
    /// by the detector's period — daily by default, weekly if the model
    /// was trained with `temporal_period = SECONDS_PER_WEEK`).
    pub fn time_node(&self, t: Timestamp) -> NodeId {
        self.space
            .node(NodeType::Time, self.temporal.assign_timestamp(t).0)
    }

    /// Vertex for a second-of-day value.
    pub fn time_of_day_node(&self, seconds: f64) -> NodeId {
        self.space
            .node(NodeType::Time, self.temporal.assign(seconds).0)
    }

    /// Vertex for a keyword id.
    pub fn word_node(&self, w: KeywordId) -> NodeId {
        self.space.node(NodeType::Word, w.0)
    }

    /// Vertex for a user id, if users were embedded.
    pub fn user_node(&self, u: UserId) -> Option<NodeId> {
        (u.0 < self.space.n_user).then(|| self.space.node(NodeType::User, u.0))
    }
}

/// A trained cross-modal embedding model.
///
/// Every spatial hotspot, temporal hotspot, keyword, and user owns a
/// center vector; queries map raw modalities (a point, a timestamp, a bag
/// of words) onto unit vectors and rank candidates by cosine similarity,
/// exactly the prediction procedure of §6.2.1.
///
/// Structurally the model is an `Arc<`[`ModelArtifacts`]`>` (shared,
/// immutable) plus the mutable [`EmbeddingStore`]. `Clone` deep-copies
/// only the store — the artifacts are reference-shared — which is what
/// lets a frozen copy coexist with a training original at the cost of the
/// embedding rows alone.
#[derive(Clone)]
pub struct TrainedModel {
    pub(crate) artifacts: Arc<ModelArtifacts>,
    pub(crate) store: EmbeddingStore,
}

impl TrainedModel {
    /// Assembles a model from parts.
    ///
    /// Used by the baseline trainers (LINE, CrossMap, metapath2vec), which
    /// share ACTOR's hotspot-and-graph substrate and scoring rule but
    /// produce their stores through different training objectives.
    pub fn from_parts(
        store: EmbeddingStore,
        space: NodeSpace,
        spatial: SpatialHotspots,
        temporal: TemporalHotspots,
        vocab: Vocabulary,
        config: ActorConfig,
    ) -> Self {
        Self::from_shared(
            Arc::new(ModelArtifacts::new(space, spatial, temporal, vocab, config)),
            store,
        )
    }

    /// Assembles a model around an already-shared artifact set (the
    /// zero-copy constructor the training pipeline and delta publishers
    /// use).
    pub fn from_shared(artifacts: Arc<ModelArtifacts>, store: EmbeddingStore) -> Self {
        assert_eq!(
            store.n_nodes(),
            artifacts.space.len(),
            "store/space size mismatch"
        );
        Self { artifacts, store }
    }

    /// The shared immutable artifacts.
    pub fn artifacts(&self) -> &Arc<ModelArtifacts> {
        &self.artifacts
    }

    /// The embedding store (centers + contexts).
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// Mutable access to the embedding store (streaming updaters, tests,
    /// and benches that simulate them; touched rows are dirty-tracked as
    /// usual).
    pub fn store_mut(&mut self) -> &mut EmbeddingStore {
        &mut self.store
    }

    /// The node layout.
    pub fn space(&self) -> &NodeSpace {
        &self.artifacts.space
    }

    /// Detected spatial hotspots.
    pub fn spatial_hotspots(&self) -> &SpatialHotspots {
        &self.artifacts.spatial
    }

    /// Detected temporal hotspots.
    pub fn temporal_hotspots(&self) -> &TemporalHotspots {
        &self.artifacts.temporal
    }

    /// The training vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.artifacts.vocab
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &ActorConfig {
        &self.artifacts.config
    }

    /// Center vector of a graph vertex.
    pub fn vector(&self, node: NodeId) -> &[f32] {
        self.store.centers.row(node.idx())
    }

    /// Vertex for a raw location: its nearest spatial hotspot.
    pub fn location_node(&self, p: GeoPoint) -> NodeId {
        self.artifacts.location_node(p)
    }

    /// Vertex for a raw timestamp (see [`ModelArtifacts::time_node`]).
    pub fn time_node(&self, t: Timestamp) -> NodeId {
        self.artifacts.time_node(t)
    }

    /// Vertex for a second-of-day value.
    pub fn time_of_day_node(&self, seconds: f64) -> NodeId {
        self.artifacts.time_of_day_node(seconds)
    }

    /// Vertex for a keyword id.
    pub fn word_node(&self, w: KeywordId) -> NodeId {
        self.artifacts.word_node(w)
    }

    /// Vertex for a user id, if users were embedded.
    pub fn user_node(&self, u: UserId) -> Option<NodeId> {
        self.artifacts.user_node(u)
    }

    /// Mean center vector of a bag of keywords (the text representation
    /// used at query time; zeros for an empty bag).
    pub fn text_vector(&self, words: &[KeywordId]) -> Vec<f32> {
        let rows: Vec<&[f32]> = words
            .iter()
            .map(|w| self.vector(self.word_node(*w)))
            .collect();
        mean_of(&rows, self.store.dim())
    }

    /// Mean of the given vectors: the query representation when several
    /// modalities are observed (§6.2.1 averages the observed units).
    pub fn query_vector(&self, parts: &[&[f32]]) -> Vec<f32> {
        mean_of(parts, self.store.dim())
    }

    /// Cosine score of `candidate` against a prepared query vector.
    pub fn score(&self, query: &[f32], candidate: NodeId) -> f64 {
        cosine(query, self.vector(candidate))
    }

    /// Top-`k` vertices of `ty` by cosine similarity to `query`
    /// (the neighbor-search operation of §6.4).
    pub fn nearest_of_type(&self, query: &[f32], ty: NodeType, k: usize) -> Vec<(NodeId, f64)> {
        let mut scored: Vec<(NodeId, f64)> = self
            .artifacts
            .space
            .nodes_of(ty)
            .map(|n| (n, cosine(query, self.vector(n))))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite cosines"));
        scored.truncate(k);
        scored
    }

    /// Like [`TrainedModel::nearest_of_type`] for keywords, returning the
    /// words themselves — convenient for the Figs. 9–11 style reports.
    pub fn nearest_words(&self, query: &[f32], k: usize) -> Vec<(String, f64)> {
        self.nearest_of_type(query, NodeType::Word, k)
            .into_iter()
            .map(|(n, s)| {
                let kw = KeywordId(self.artifacts.space.local_of(n));
                (self.artifacts.vocab.word(kw).to_string(), s)
            })
            .collect()
    }

    /// A user's activity profile: the keywords most aligned with the
    /// user's embedding (empty if the user was not embedded or never
    /// interacted). Powers "who is this user" style queries.
    pub fn user_profile(&self, user: UserId, k: usize) -> Vec<(String, f64)> {
        match self.user_node(user) {
            Some(node) => {
                let uv = self.vector(node).to_vec();
                self.nearest_words(&uv, k)
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    // The model is exercised end-to-end in `pipeline::tests` (constructing
    // a meaningful TrainedModel requires a fitted pipeline); unit-level
    // checks of the pure helpers live here via a hand-built model.
    use super::*;
    use hotspot::MeanShiftParams;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_model() -> TrainedModel {
        let spatial = SpatialHotspots::detect(
            &[
                GeoPoint::new(0.0, 0.0),
                GeoPoint::new(0.0, 0.001),
                GeoPoint::new(1.0, 1.0),
                GeoPoint::new(1.0, 1.001),
            ],
            MeanShiftParams::with_bandwidth(0.05),
            1,
        );
        let temporal = TemporalHotspots::detect(
            &[3600.0, 3700.0, 72000.0, 72100.0],
            MeanShiftParams::with_bandwidth(1800.0),
            1,
        );
        let mut vocab = Vocabulary::new();
        vocab.intern("alpha");
        vocab.intern("bravo");
        let space = NodeSpace {
            n_time: temporal.len() as u32,
            n_location: spatial.len() as u32,
            n_word: 2,
            n_user: 1,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let store = EmbeddingStore::init(space.len(), 8, &mut rng);
        TrainedModel::from_parts(store, space, spatial, temporal, vocab, ActorConfig::fast())
    }

    #[test]
    fn clone_shares_artifacts_and_copies_the_store() {
        let mut m = tiny_model();
        let frozen = m.clone();
        assert!(Arc::ptr_eq(m.artifacts(), frozen.artifacts()));
        // Mutating the original's store must not reach the clone.
        let before = frozen.vector(NodeId(0)).to_vec();
        m.store_mut().centers.row_mut(0)[0] += 1.0;
        assert_eq!(frozen.vector(NodeId(0)), before.as_slice());
        assert_ne!(m.vector(NodeId(0)), before.as_slice());
    }

    #[test]
    fn raw_modality_lookups_assign_to_hotspots() {
        let m = tiny_model();
        let near_origin = m.location_node(GeoPoint::new(0.01, 0.01));
        let near_one = m.location_node(GeoPoint::new(0.99, 0.99));
        assert_ne!(near_origin, near_one);
        assert_eq!(m.space().type_of(near_origin), NodeType::Location);

        let morning = m.time_of_day_node(3650.0);
        let evening = m.time_of_day_node(71900.0);
        assert_ne!(morning, evening);
    }

    #[test]
    fn time_node_uses_second_of_day() {
        let m = tiny_model();
        let a = m.time_node(3600); // 01:00 on day zero
        let b = m.time_node(86_400 + 3600); // 01:00 next day
        assert_eq!(a, b);
    }

    #[test]
    fn text_vector_is_mean_of_word_vectors() {
        let m = tiny_model();
        let w0 = KeywordId(0);
        let w1 = KeywordId(1);
        let tv = m.text_vector(&[w0, w1]);
        let v0 = m.vector(m.word_node(w0));
        let v1 = m.vector(m.word_node(w1));
        for i in 0..tv.len() {
            assert!((tv[i] - 0.5 * (v0[i] + v1[i])).abs() < 1e-6);
        }
        assert_eq!(m.text_vector(&[]), vec![0.0; 8]);
    }

    #[test]
    fn nearest_of_type_returns_sorted_scores() {
        let m = tiny_model();
        let query = m.vector(m.word_node(KeywordId(0))).to_vec();
        let top = m.nearest_of_type(&query, NodeType::Word, 2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
        // The word itself is its own nearest neighbor.
        assert_eq!(top[0].0, m.word_node(KeywordId(0)));
        let words = m.nearest_words(&query, 1);
        assert_eq!(words[0].0, "alpha");
    }

    #[test]
    fn user_node_bounds() {
        let m = tiny_model();
        assert!(m.user_node(UserId(0)).is_some());
        assert!(m.user_node(UserId(1)).is_none());
    }

    #[test]
    fn user_profile_is_empty_for_unknown_users() {
        let m = tiny_model();
        assert!(m.user_profile(UserId(9), 5).is_empty());
        let profile = m.user_profile(UserId(0), 2);
        assert_eq!(profile.len(), 2);
    }
}
