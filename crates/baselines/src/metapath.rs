//! metapath2vec baseline \[25\].
//!
//! Heterogeneous random walks follow a meta-path pattern over vertex
//! types; the resulting node sequences feed a skip-gram with negative
//! sampling. The paper reports its best results with the meta-path
//! `L–W–T–W` (window 3, 5 negatives, §6.2.3), which this module defaults
//! to. Walks cannot leverage edge types beyond the path pattern and the
//! user graph is too sparse to walk (§6.2.3), hence its mid-table rank.

use actor_core::TrainedModel;
use embed::{annealed, EmbeddingStore, NegativeSamplingUpdate, SgdParams};
use mobility::Corpus;
use rand::Rng;
use stgraph::{ActivityGraph, AliasTable, EdgeType, NegativeTable, NodeId, NodeType};

use crate::line_family::{flatten_edges, placeholder_config};
use crate::params::BaselineParams;
use crate::substrate::Substrate;
use crate::wrapper::EmbeddingBaseline;

/// metapath2vec hyper-parameters.
#[derive(Debug, Clone)]
pub struct MetapathParams {
    /// The vertex-type pattern walks repeat (cyclically).
    pub path: Vec<NodeType>,
    /// Walk length in vertices.
    pub walk_length: usize,
    /// Skip-gram window (the paper's baseline uses 3).
    pub window: usize,
    /// Negatives per pair (the paper's baseline uses 5).
    pub negatives: usize,
}

impl Default for MetapathParams {
    fn default() -> Self {
        Self {
            path: vec![
                NodeType::Location,
                NodeType::Word,
                NodeType::Time,
                NodeType::Word,
            ],
            walk_length: 40,
            window: 3,
            negatives: 5,
        }
    }
}

/// One node's outgoing transition table toward one vertex type.
type Transition = Option<(Vec<NodeId>, AliasTable)>;

/// Per-node typed transition tables: for node `v` and target type `ty`,
/// an alias table over `v`'s neighbors of that type.
struct TypedTransitions {
    // Indexed [node][type-index] → (neighbors, alias).
    tables: Vec<[Transition; 4]>,
}

impl TypedTransitions {
    fn build(graph: &ActivityGraph) -> Self {
        let space = graph.space();
        let n = space.len();
        let mut tables: Vec<[Transition; 4]> = (0..n).map(|_| [None, None, None, None]).collect();
        for (node_idx, table_row) in tables.iter_mut().enumerate() {
            let node = NodeId(node_idx as u32);
            let from_ty = space.type_of(node);
            for to_ty in NodeType::ALL {
                let Some(edge_ty) = EdgeType::between(from_ty, to_ty) else {
                    continue;
                };
                let Some(te) = graph.edges(edge_ty) else {
                    continue;
                };
                let (neighbors, weights) = te.csr.row(node);
                // WW rows contain only words; other rows may mix? No —
                // each edge type's CSR only contains that type's edges, so
                // neighbors here are all of `to_ty` (or Word for WW).
                if neighbors.is_empty() {
                    continue;
                }
                if let Some(alias) = AliasTable::new(weights) {
                    table_row[to_ty.index()] = Some((neighbors.to_vec(), alias));
                }
            }
        }
        Self { tables }
    }

    fn step<R: Rng + ?Sized>(&self, from: NodeId, to_ty: NodeType, rng: &mut R) -> Option<NodeId> {
        let slot = self.tables[from.idx()][to_ty.index()].as_ref()?;
        Some(slot.0[slot.1.sample(rng)])
    }
}

/// Trains metapath2vec on the plain activity graph.
pub fn train_metapath2vec(
    corpus: &Corpus,
    substrate: &Substrate,
    mp: &MetapathParams,
    params: &BaselineParams,
) -> EmbeddingBaseline {
    let graph = &substrate.graph_plain;
    let space = *graph.space();
    let transitions = TypedTransitions::build(graph);

    // Start nodes: all vertices of the path's first type that can step.
    let starts: Vec<NodeId> = space
        .nodes_of(mp.path[0])
        .filter(|&n| transitions.tables[n.idx()][mp.path[1 % mp.path.len()].index()].is_some())
        .collect();

    // Negative table over all vertices by total weighted degree^{3/4}.
    let noise =
        NegativeTable::over_edges(space.len(), &flatten_edges(graph)).expect("graph has edges");

    let mut init_rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(params.seed);
    let store = EmbeddingStore::init(space.len(), params.dim, &mut init_rng);

    // Budget: each walk yields ≈ walk_length × window pairs, and each
    // pair costs (negatives+1) gradient updates versus the other
    // methods' (K+1); scale the walk count so total gradient work —
    // not pair count — matches the shared budget.
    let work_ratio = (mp.negatives + 1) as u64 / (params.sgd.negatives + 1).max(1) as u64;
    let pairs_per_walk = (mp.walk_length * mp.window) as u64 * work_ratio.max(1);
    let n_walks = (params.samples / pairs_per_walk).max(1);

    if !starts.is_empty() {
        par::run_seeded(params.threads, n_walks, params.seed ^ 0x3e7a, |rng, n| {
            let sgd = SgdParams {
                negatives: mp.negatives,
                ..params.sgd
            };
            let mut upd = NegativeSamplingUpdate::new(params.dim, sgd);
            let lr0 = params.sgd.learning_rate;
            let mut walk: Vec<NodeId> = Vec::with_capacity(mp.walk_length);
            for walk_idx in 0..n {
                let progress = walk_idx as f32 / n as f32;
                upd.set_learning_rate(annealed(lr0, progress));
                // Generate one walk following the cyclic type pattern.
                walk.clear();
                let mut cur = starts[rng.random_range(0..starts.len())];
                walk.push(cur);
                let mut pos = 0usize;
                while walk.len() < mp.walk_length {
                    pos += 1;
                    let next_ty = mp.path[pos % mp.path.len()];
                    match transitions.step(cur, next_ty, rng) {
                        Some(next) => {
                            walk.push(next);
                            cur = next;
                        }
                        None => break,
                    }
                }
                // Skip-gram over the walk.
                for (i, &center) in walk.iter().enumerate() {
                    let lo = i.saturating_sub(mp.window);
                    let hi = (i + mp.window).min(walk.len() - 1);
                    for (j, &context) in walk.iter().enumerate().take(hi + 1).skip(lo) {
                        if j == i {
                            continue;
                        }
                        upd.step(&store, center.idx(), context.idx(), rng, |r| {
                            noise.sample(r).idx()
                        });
                    }
                }
            }
        });
    }

    let model = TrainedModel::from_parts(
        store,
        space,
        substrate.spatial.clone(),
        substrate.temporal.clone(),
        corpus.vocab().clone(),
        placeholder_config(params),
    );
    EmbeddingBaseline::new("metapath2vec", model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actor_core::ActorConfig;
    use evalkit::CrossModalModel;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    fn substrate_and_corpus() -> (Corpus, Substrate, Vec<mobility::RecordId>) {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(38)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let substrate = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
        (corpus, substrate, split.test)
    }

    #[test]
    fn metapath_trains_and_scores() {
        let (corpus, substrate, test) = substrate_and_corpus();
        let mp = MetapathParams::default();
        let m = train_metapath2vec(&corpus, &substrate, &mp, &BaselineParams::fast());
        assert_eq!(m.name(), "metapath2vec");
        let r = corpus.record(test[0]);
        assert!(m
            .score_text(r.timestamp, r.location, &r.keywords)
            .is_finite());
    }

    #[test]
    fn typed_transitions_respect_types() {
        let (_, substrate, _) = substrate_and_corpus();
        let graph = &substrate.graph_plain;
        let space = graph.space();
        let trans = TypedTransitions::build(graph);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(1);
        let start = space.nodes_of(NodeType::Location).next().unwrap();
        for _ in 0..20 {
            if let Some(next) = trans.step(start, NodeType::Word, &mut rng) {
                assert_eq!(space.type_of(next), NodeType::Word);
            }
        }
        // A type with no connecting edge type yields None.
        assert!(trans.step(start, NodeType::Location, &mut rng).is_none());
    }

    #[test]
    fn default_path_is_lwtw() {
        let mp = MetapathParams::default();
        assert_eq!(
            mp.path,
            vec![
                NodeType::Location,
                NodeType::Word,
                NodeType::Time,
                NodeType::Word
            ]
        );
        assert_eq!(mp.window, 3);
        assert_eq!(mp.negatives, 5);
    }
}
