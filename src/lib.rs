//! # actor-st
//!
//! A from-scratch Rust reproduction of **"Spatiotemporal Activity Modeling
//! via Hierarchical Cross-Modal Embedding"** (Liu et al., TKDE 2020 /
//! ICDE 2023 extended abstract): the ACTOR hierarchical cross-modal
//! embedding framework plus every substrate it depends on — synthetic
//! mobile-data generation, mean-shift hotspot detection, heterogeneous
//! activity graphs, a Hogwild negative-sampling embedding engine, all
//! seven Table 2 baselines, and the full evaluation harness.
//!
//! ## Quickstart
//!
//! ```
//! use actor_st::prelude::*;
//!
//! // 1. Data: a synthetic geo-tagged corpus (stands in for the paper's
//! //    Twitter/Foursquare datasets; see DESIGN.md §3).
//! let (corpus, _truth) = generate(DatasetPreset::Foursquare.small_config(7)).unwrap();
//! let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
//!
//! // 2. Fit ACTOR (Algorithm 1) with a fast test configuration.
//! let (model, report) = fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();
//! assert!(report.n_spatial > 0);
//!
//! // 3. Cross-modal prediction: score how well a record's own location
//! //    matches its time and text.
//! let r = corpus.record(split.test[0]);
//! let score = model.score_location(r.timestamp, &r.keywords, r.location);
//! assert!(score.is_finite());
//! ```
//!
//! The crates are re-exported under their subsystem names:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`mobility`] | records, corpora, vocabulary, the synthetic generator |
//! | [`hotspot`] | mean-shift spatial/temporal hotspot detection |
//! | [`stgraph`] | activity graph, user graph, alias sampling, meta-graphs |
//! | [`embed`] | negative-sampling SGD, Hogwild, LINE |
//! | [`core`] | the ACTOR pipeline, model, and ablation variants |
//! | [`baselines`] | LGTA, MGTM, metapath2vec, LINE(U), CrossMap(U) |
//! | [`eval`] | MRR, prediction tasks, neighbor search, case studies |
//! | [`resilience`] | checkpoint envelopes, retry/divergence policies, fault injection |
//! | [`serve`] | online query engine: ANN index, query cache, snapshot hot-swap |
//! | [`par`] | deterministic scoped-thread data parallelism for preprocessing |

pub use actor_core as core;
pub use baselines;
pub use embed;
pub use evalkit as eval;
pub use hotspot;
pub use mobility;
pub use par;
pub use resilience;
pub use serve;
pub use stgraph;

/// The most commonly used items in one import.
pub mod prelude {
    pub use actor_core::{
        fit, fit_checkpointed, fit_resume, ActorConfig, ResilienceOptions, ResilienceReport,
        TrainedModel, Variant,
    };
    pub use evalkit::{evaluate_mrr, CrossModalModel, EvalParams, PredictionTask};
    pub use mobility::synth::{generate, DatasetPreset};
    pub use mobility::{Corpus, CorpusSplit, GeoPoint, Record, SplitSpec};
    pub use resilience::{CheckpointPolicy, FaultPlan, RetryPolicy};
    pub use serve::{EngineParams, QueryEngine, QueryRequest, QueryResponse};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let cfg = ActorConfig::fast();
        assert!(cfg.validate().is_ok());
        assert_eq!(PredictionTask::ALL.len(), 3);
        let _ = DatasetPreset::ALL;
    }
}
