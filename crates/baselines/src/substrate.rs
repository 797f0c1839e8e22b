//! The shared preprocessing substrate for all baselines.
//!
//! Hotspot detection and graph construction are deterministic given the
//! corpus and bandwidths, so they are computed once per dataset and
//! shared by every method in a Table 2 run.

use actor_core::ActorConfig;
use hotspot::{SpatialHotspots, TemporalHotspots};
use mobility::{Corpus, RecordId};
use stgraph::build::RecordUnits;
use stgraph::{ActivityGraph, ActivityGraphBuilder, BuildOptions, UserGraph};

/// Hotspots plus both activity-graph variants (with and without user
/// vertices) and the user interaction graph.
pub struct Substrate {
    /// Spatial hotspots detected on the training split.
    pub spatial: SpatialHotspots,
    /// Temporal hotspots detected on the training split.
    pub temporal: TemporalHotspots,
    /// Activity graph without user vertices (LINE, CrossMap, metapath2vec).
    pub graph_plain: ActivityGraph,
    /// Record unit assignments under `graph_plain`'s node space.
    pub units_plain: Vec<RecordUnits>,
    /// Activity graph with user vertices (LINE(U), CrossMap(U)).
    pub graph_user: ActivityGraph,
    /// Record unit assignments under `graph_user`'s node space.
    pub units_user: Vec<RecordUnits>,
    /// The user interaction graph.
    pub user_graph: UserGraph,
}

impl Substrate {
    /// Builds the substrate with the hotspot settings of `config`.
    pub fn build(corpus: &Corpus, train_ids: &[RecordId], config: &ActorConfig) -> Self {
        let (spatial, temporal) = actor_core::detect_hotspots(corpus, train_ids, config);
        let (graph_plain, units_plain) = ActivityGraphBuilder::new(
            corpus,
            &spatial,
            &temporal,
            BuildOptions {
                include_users: false,
                include_mentioned_users: false,
            },
        )
        .build(train_ids);
        let (graph_user, units_user) = ActivityGraphBuilder::new(
            corpus,
            &spatial,
            &temporal,
            BuildOptions {
                include_users: true,
                include_mentioned_users: true,
            },
        )
        .build(train_ids);
        let user_graph = UserGraph::build(corpus, train_ids);
        Self {
            spatial,
            temporal,
            graph_plain,
            units_plain,
            graph_user,
            units_user,
            user_graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    #[test]
    fn substrate_builds_both_graph_variants() {
        let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(31)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let s = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
        assert_eq!(s.graph_plain.space().n_user, 0);
        assert!(s.graph_user.space().n_user > 0);
        assert_eq!(s.units_plain.len(), split.train.len());
        assert_eq!(s.units_user.len(), split.train.len());
        assert!(s.user_graph.n_edges() > 0);
        // Same hotspot layout underneath both graphs.
        assert_eq!(
            s.graph_plain.space().n_location,
            s.graph_user.space().n_location
        );
        assert_eq!(s.graph_plain.space().n_time, s.graph_user.space().n_time);
    }
}
