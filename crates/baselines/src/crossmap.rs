//! CrossMap and CrossMap(U) baselines \[7\].
//!
//! CrossMap is the strongest competitor in Table 2: a type-aware
//! cross-modal embedding that models (a) co-occurrence within records and
//! (b) *spatiotemporal continuity* — adjacent regions and adjacent time
//! periods should embed nearby (the "neighborhood relationship" §4.2
//! contrasts against). It does **not** model user interactions or
//! high-order meta-graph structure, which is precisely the gap ACTOR
//! fills. CrossMap(U) additionally rotates over the user-to-unit edge
//! types on the augmented graph.

use actor_core::TrainedModel;
use embed::{annealed, EmbeddingStore, NegativeSamplingUpdate};
use mobility::{Corpus, SECONDS_PER_DAY};
use rand::Rng;
use stgraph::{EdgeTables, EdgeType, NodeType, NEGATIVE_POWER};

use crate::line_family::placeholder_config;
use crate::params::BaselineParams;
use crate::substrate::Substrate;
use crate::wrapper::EmbeddingBaseline;

/// Whether CrossMap sees the user-augmented graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossMapVariant {
    /// Original CrossMap on the plain activity graph.
    Plain,
    /// CrossMap(U): auxiliary user vertices and `UT/UW/UL` edge types.
    WithUsers,
}

impl CrossMapVariant {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            CrossMapVariant::Plain => "CrossMap",
            CrossMapVariant::WithUsers => "CrossMap(U)",
        }
    }
}

/// Index pairs for the continuity objective, one list per modality.
type SmoothingPairs = (Vec<(usize, usize)>, Vec<(usize, usize)>);

/// Spatial/temporal adjacency pairs used for the continuity objective.
fn smoothing_pairs(substrate: &Substrate, space: &stgraph::NodeSpace) -> SmoothingPairs {
    // Temporal: each hotspot with its circular successor.
    let n_t = substrate.temporal.len();
    let mut t_pairs = Vec::with_capacity(n_t);
    for i in 0..n_t {
        let j = (i + 1) % n_t;
        if i != j {
            let a = space.node(NodeType::Time, i as u32).idx();
            let b = space.node(NodeType::Time, j as u32).idx();
            t_pairs.push((a, b));
        }
    }
    // Also link hotspots whose centers are within one hour.
    let centers = substrate.temporal.centers();
    for i in 0..n_t {
        for j in (i + 1)..n_t {
            let d = (centers[i] - centers[j]).abs();
            let circ = d.min(SECONDS_PER_DAY as f64 - d);
            if circ < 3600.0 && (i + 1) % n_t != j {
                t_pairs.push((
                    space.node(NodeType::Time, i as u32).idx(),
                    space.node(NodeType::Time, j as u32).idx(),
                ));
            }
        }
    }

    // Spatial: each hotspot with its 2 nearest neighbors.
    let centers = substrate.spatial.centers();
    let mut l_pairs = Vec::new();
    for (i, c) in centers.iter().enumerate() {
        let mut dists: Vec<(usize, f64)> = centers
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, p)| (j, c.dist2(p)))
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        for &(j, _) in dists.iter().take(2) {
            l_pairs.push((
                space.node(NodeType::Location, i as u32).idx(),
                space.node(NodeType::Location, j as u32).idx(),
            ));
        }
    }
    (t_pairs, l_pairs)
}

/// Trains a CrossMap baseline on the substrate.
pub fn train_crossmap(
    corpus: &Corpus,
    substrate: &Substrate,
    variant: CrossMapVariant,
    params: &BaselineParams,
) -> EmbeddingBaseline {
    let graph = match variant {
        CrossMapVariant::Plain => &substrate.graph_plain,
        CrossMapVariant::WithUsers => &substrate.graph_user,
    };
    let space = *graph.space();

    let edge_types: &[EdgeType] = match variant {
        CrossMapVariant::Plain => &EdgeType::INTRA,
        CrossMapVariant::WithUsers => &EdgeType::ALL,
    };
    let tables = EdgeTables::build(graph, edge_types, NEGATIVE_POWER);
    let (t_pairs, l_pairs) = smoothing_pairs(substrate, &space);

    let mut init_rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(params.seed);
    let store = EmbeddingStore::init(space.len(), params.dim, &mut init_rng);

    // Budget: per-type batches follow each type's share of the total
    // co-occurrence weight, as ACTOR's do, plus ~1/14 of the budget on
    // continuity smoothing.
    let batch = 256u64;
    let n_types = edge_types
        .iter()
        .filter(|&&t| tables.sampler(t).is_some())
        .count()
        .max(1) as u64;
    let total_w: f64 = edge_types
        .iter()
        .map(|&t| tables.weight(t))
        .sum::<f64>()
        .max(1e-12);
    let batches = tables.batches(edge_types, (n_types * batch) as f64, total_w);
    let smooth_per_round = batch / 4;
    let per_round = n_types * batch + 2 * smooth_per_round;
    let rounds = (params.samples / per_round).max(1);

    par::run_seeded(params.threads, rounds, params.seed ^ 0xC0, |rng, n| {
        let mut upd = NegativeSamplingUpdate::new(params.dim, params.sgd);
        let lr0 = params.sgd.learning_rate;
        for round in 0..n {
            upd.set_learning_rate(annealed(lr0, round as f32 / n as f32));
            for &(ty, count) in &batches {
                for _ in 0..count {
                    if let Some((center, context, noise)) = tables.draw(ty, rng) {
                        upd.step(&store, center.idx(), context.idx(), rng, |r| {
                            noise.sample(r).idx()
                        });
                    }
                }
            }
            // Continuity smoothing: adjacent times and nearby regions.
            if let Some(nt) = tables.negatives(EdgeType::TL, NodeType::Time) {
                for _ in 0..smooth_per_round {
                    if t_pairs.is_empty() {
                        break;
                    }
                    let &(a, b) = &t_pairs[rng.random_range(0..t_pairs.len())];
                    upd.step(&store, a, b, rng, |r| nt.sample(r).idx());
                }
            }
            if let Some(nl) = tables.negatives(EdgeType::TL, NodeType::Location) {
                for _ in 0..smooth_per_round {
                    if l_pairs.is_empty() {
                        break;
                    }
                    let &(a, b) = &l_pairs[rng.random_range(0..l_pairs.len())];
                    upd.step(&store, a, b, rng, |r| nl.sample(r).idx());
                }
            }
        }
    });

    let model = TrainedModel::from_parts(
        store,
        space,
        substrate.spatial.clone(),
        substrate.temporal.clone(),
        corpus.vocab().clone(),
        placeholder_config(params),
    );
    EmbeddingBaseline::new(variant.name(), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actor_core::ActorConfig;
    use evalkit::CrossModalModel;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    #[test]
    fn crossmap_trains_and_beats_constant_scoring() {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(35)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let substrate = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
        let params = BaselineParams::fast();
        let cm = train_crossmap(&corpus, &substrate, CrossMapVariant::Plain, &params);
        assert_eq!(cm.name(), "CrossMap");

        let eval_params = evalkit::EvalParams {
            max_queries: 40,
            ..Default::default()
        };
        let mrr = evalkit::evaluate_mrr(
            &cm,
            &corpus,
            &split.test,
            evalkit::PredictionTask::Location,
            &eval_params,
        );
        // Must clearly beat the 1/11 ≈ 0.09 constant-score floor.
        assert!(mrr > 0.2, "CrossMap location MRR too low: {mrr}");
    }

    #[test]
    fn crossmap_u_embeds_users() {
        let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(36)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let substrate = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
        let params = BaselineParams::fast();
        let cm = train_crossmap(&corpus, &substrate, CrossMapVariant::WithUsers, &params);
        assert_eq!(cm.name(), "CrossMap(U)");
        assert!(cm.model().space().n_user > 0);
    }

    #[test]
    fn smoothing_pairs_reference_valid_nodes() {
        let (corpus, _) = generate(DatasetPreset::Tweet.small_config(37)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let substrate = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
        let space = *substrate.graph_plain.space();
        let (t_pairs, l_pairs) = smoothing_pairs(&substrate, &space);
        assert!(!l_pairs.is_empty());
        for &(a, b) in t_pairs.iter().chain(&l_pairs) {
            assert!(a < space.len() && b < space.len());
            assert_ne!(a, b);
        }
        // Temporal pairs stay inside the Time range, spatial inside Location.
        for &(a, _) in &t_pairs {
            assert_eq!(space.type_of(stgraph::NodeId(a as u32)), NodeType::Time);
        }
        for &(a, _) in &l_pairs {
            assert_eq!(space.type_of(stgraph::NodeId(a as u32)), NodeType::Location);
        }
    }
}
