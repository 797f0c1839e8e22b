//! Qualitative neighbor search (§6.4, Figs. 9–11).
//!
//! Given a spatial, temporal, or textual query, return the most similar
//! units of each modality — the tables the paper prints next to the LA
//! map (top words and times for a place; top words for a time of day;
//! top words, places, and times for a venue keyword).
//!
//! Since the serving engine landed, this module is a presentation layer
//! over [`serve::QueryEngine`]: the engine owns the scoring kernel
//! (`embed::math::dot_unit` over rows normalized once per snapshot), the
//! reusable search scratch, and the result cache, so repeated queries no
//! longer clone query vectors or rebuild candidate lists per call. Build a
//! [`NeighborSearcher`] once and reuse it for every query.

use actor_core::TrainedModel;
use mobility::{types::format_time_of_day, GeoPoint};
use serve::{EngineParams, QueryEngine, QueryError, QueryRequest};

/// Result of a neighbor query: top-k per modality.
#[derive(Debug, Clone)]
pub struct NeighborReport {
    /// Query description for display (the request's `QueryKind`).
    pub query: String,
    /// Top keywords with scores.
    pub words: Vec<(String, f64)>,
    /// Top temporal hotspots as `HH:MM:SS` with scores.
    pub times: Vec<(String, f64)>,
    /// Top spatial hotspot centers with scores.
    pub places: Vec<(GeoPoint, f64)>,
}

/// A reusable neighbor-search handle: one frozen snapshot of the model,
/// one set of per-thread scratch buffers, one cache — amortized across
/// every query it answers.
pub struct NeighborSearcher {
    engine: QueryEngine,
}

impl NeighborSearcher {
    /// Freezes `model` into a serving snapshot. Eval-sized models sit
    /// below the ANN threshold, so answers stay exact (identical ranking
    /// to scanning the model directly).
    pub fn new(model: &TrainedModel) -> Self {
        Self {
            engine: QueryEngine::new(model, EngineParams::default()),
        }
    }

    /// The engine underneath (e.g. for stats).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Answers `req` and describes it by its own kind, so two requests
    /// that share a cached answer still read as what each asked.
    fn ask(&self, req: QueryRequest) -> Result<NeighborReport, QueryError> {
        let r = self.engine.query(&req)?;
        Ok(NeighborReport {
            query: req.kind.to_string(),
            words: r.words,
            times: r
                .times
                .into_iter()
                .map(|(s, score)| (format_time_of_day(s), score))
                .collect(),
            places: r.places,
        })
    }

    /// Spatial query: the hotspot nearest `point` (Fig. 9).
    pub fn spatial(&self, point: GeoPoint, k: usize) -> NeighborReport {
        self.ask(QueryRequest::spatial(point, k))
            .expect("spatial queries cannot fail")
    }

    /// Temporal query: the hotspot nearest a second-of-day (Fig. 10).
    pub fn temporal(&self, second_of_day: f64, k: usize) -> NeighborReport {
        self.ask(QueryRequest::temporal(second_of_day, k))
            .expect("temporal queries cannot fail")
    }

    /// Textual query on a vocabulary keyword (Fig. 11); `None` for
    /// out-of-vocabulary words.
    pub fn textual(&self, word: &str, k: usize) -> Option<NeighborReport> {
        self.ask(QueryRequest::keyword(word, k)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actor_core::ActorConfig;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};
    use stgraph::NodeType;

    fn model() -> TrainedModel {
        let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(21)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        actor_core::fit(&corpus, &split.train, &ActorConfig::fast())
            .unwrap()
            .0
    }

    #[test]
    fn queries_return_k_results_per_modality() {
        let searcher = NeighborSearcher::new(&model());
        let r = searcher.spatial(GeoPoint::new(30.3, -97.7), 5);
        assert_eq!(r.words.len(), 5);
        assert_eq!(r.places.len(), 5);
        assert!(r.times.len() <= 5 && !r.times.is_empty());
        assert!(r.query.starts_with("location"));

        let r = searcher.temporal(22.0 * 3600.0, 4);
        assert_eq!(r.words.len(), 4);
        assert!(r.query.starts_with("time 22:00"));
    }

    #[test]
    fn textual_query_handles_oov() {
        let searcher = NeighborSearcher::new(&model());
        assert!(searcher.textual("definitely_not_a_word_xyz", 3).is_none());
        let r = searcher.textual("beach", 3).unwrap();
        // The query word itself tops its own neighbor list.
        assert_eq!(r.words[0].0, "beach");
        assert!(r.words[0].1 > 0.99);
    }

    #[test]
    fn scores_are_sorted_descending() {
        let r = NeighborSearcher::new(&model()).spatial(GeoPoint::new(30.2, -97.8), 8);
        for pair in r.words.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        for pair in r.places.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn searcher_matches_direct_model_ranking() {
        // The engine path must reproduce §6.2.1 semantics: cosine ranking
        // against the raw model, word for word, score for score.
        let m = model();
        let searcher = NeighborSearcher::new(&m);
        let p = GeoPoint::new(30.25, -97.75);
        let got = searcher.spatial(p, 6);
        let raw = m.vector(m.location_node(p)).to_vec();
        let reference = m.nearest_words(&raw, 6);
        assert_eq!(
            got.words.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>(),
            reference.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>()
        );
        for (a, b) in got.words.iter().zip(&reference) {
            assert!((a.1 - b.1).abs() < 1e-5, "{} vs {}", a.1, b.1);
        }
        let ref_places = m.nearest_of_type(&raw, NodeType::Location, 6);
        assert_eq!(got.places.len(), ref_places.len());
        for (a, b) in got.places.iter().zip(&ref_places) {
            assert!((a.1 - b.1).abs() < 1e-5);
        }
    }

    #[test]
    fn points_in_one_hotspot_share_an_answer_but_not_a_description() {
        let m = model();
        let searcher = NeighborSearcher::new(&m);
        let a = GeoPoint::new(30.25, -97.75);
        let b = GeoPoint::new(30.251, -97.751);
        assert_eq!(m.location_node(a), m.location_node(b), "one hotspot");
        let ra = searcher.spatial(a, 5);
        let rb = searcher.spatial(b, 5);
        assert_eq!(searcher.engine().stats().cache_hits, 1);
        assert_eq!(ra.words, rb.words);
        assert_eq!(ra.query, "location (30.2500, -97.7500)");
        assert_eq!(rb.query, "location (30.2510, -97.7510)");
    }

    #[test]
    fn searcher_reuse_hits_the_cache() {
        let m = model();
        let searcher = NeighborSearcher::new(&m);
        let _ = searcher.temporal(9.0 * 3600.0, 5);
        let _ = searcher.temporal(9.0 * 3600.0, 5);
        assert!(searcher.engine().stats().cache_hits >= 1);
    }
}
