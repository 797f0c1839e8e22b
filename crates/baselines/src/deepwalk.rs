//! DeepWalk / node2vec-style homogeneous random-walk baseline.
//!
//! Not part of the paper's Table 2 (its §2.2 discusses DeepWalk \[22\] and
//! node2vec \[23\] as homogeneous predecessors of metapath2vec), but
//! included as an extension so the walk-based family is complete: uniform
//! type-blind walks over the flattened activity graph with a node2vec
//! return-bias knob, then skip-gram with negative sampling.

use actor_core::TrainedModel;
use embed::{EmbeddingStore, NegativeSamplingUpdate, SgdParams};
use mobility::Corpus;
use rand::Rng;
use stgraph::AliasTable;

use crate::line_family::{flatten_edges, placeholder_config};
use crate::params::BaselineParams;
use crate::substrate::Substrate;
use crate::wrapper::EmbeddingBaseline;

/// DeepWalk/node2vec hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeepWalkParams {
    /// Walk length in vertices.
    pub walk_length: usize,
    /// Skip-gram window.
    pub window: usize,
    /// Negatives per pair.
    pub negatives: usize,
    /// node2vec return parameter `p` (probability mass of stepping back
    /// to the previous vertex is divided by this; 1.0 = plain DeepWalk).
    pub return_param: f64,
}

impl Default for DeepWalkParams {
    fn default() -> Self {
        Self {
            walk_length: 40,
            window: 5,
            negatives: 5,
            return_param: 1.0,
        }
    }
}

/// Flat CSR over the whole node space for unbiased weighted walks.
struct FlatAdjacency {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    alias: Vec<Option<AliasTable>>,
}

impl FlatAdjacency {
    fn build(n_nodes: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut degree = vec![0u32; n_nodes];
        for &(a, b, _) in edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n_nodes].to_vec();
        let mut neighbors = vec![0u32; acc as usize];
        let mut weights = vec![0.0f64; acc as usize];
        for &(a, b, w) in edges {
            neighbors[cursor[a as usize] as usize] = b;
            weights[cursor[a as usize] as usize] = w;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize] as usize] = a;
            weights[cursor[b as usize] as usize] = w;
            cursor[b as usize] += 1;
        }
        let alias = (0..n_nodes)
            .map(|i| {
                let lo = offsets[i] as usize;
                let hi = offsets[i + 1] as usize;
                AliasTable::new(&weights[lo..hi])
            })
            .collect();
        Self {
            offsets,
            neighbors,
            alias,
        }
    }

    fn step<R: Rng + ?Sized>(
        &self,
        from: u32,
        prev: Option<u32>,
        return_param: f64,
        rng: &mut R,
    ) -> Option<u32> {
        let lo = self.offsets[from as usize] as usize;
        let table = self.alias[from as usize].as_ref()?;
        let mut next = self.neighbors[lo + table.sample(rng)];
        // node2vec return bias: re-draw a back-step with probability
        // 1 − 1/p (rejection-style approximation of the p-biased walk).
        if let Some(prev) = prev {
            if next == prev && return_param > 1.0 {
                let keep = 1.0 / return_param;
                if rng.random::<f64>() > keep {
                    next = self.neighbors[lo + table.sample(rng)];
                }
            }
        }
        Some(next)
    }
}

/// Trains the walk baseline on the plain activity graph.
pub fn train_deepwalk(
    corpus: &Corpus,
    substrate: &Substrate,
    dw: &DeepWalkParams,
    params: &BaselineParams,
) -> EmbeddingBaseline {
    let graph = &substrate.graph_plain;
    let space = *graph.space();
    let edges = flatten_edges(graph);
    let adj = FlatAdjacency::build(space.len(), &edges);

    // Negative table by total degree^{3/4}.
    let mut deg = vec![0.0f64; space.len()];
    for &(a, b, w) in &edges {
        deg[a as usize] += w;
        deg[b as usize] += w;
    }
    let mut neg_nodes = Vec::new();
    let mut neg_weights = Vec::new();
    for (i, &d) in deg.iter().enumerate() {
        if d > 0.0 {
            neg_nodes.push(i);
            neg_weights.push(d.powf(stgraph::sampler::NEGATIVE_POWER));
        }
    }
    let neg_alias = AliasTable::new(&neg_weights).expect("graph has edges");
    let starts: Vec<u32> = neg_nodes.iter().map(|&i| i as u32).collect();

    let mut init_rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(params.seed);
    let store = EmbeddingStore::init(space.len(), params.dim, &mut init_rng);

    let work_ratio = ((dw.negatives + 1) / (params.sgd.negatives + 1).max(1)).max(1) as u64;
    let pairs_per_walk = (dw.walk_length * dw.window) as u64 * work_ratio;
    let n_walks = (params.samples / pairs_per_walk).max(1);

    par::run_seeded(params.threads, n_walks, params.seed ^ 0xd33b, |rng, n| {
        let sgd = SgdParams {
            negatives: dw.negatives,
            ..params.sgd
        };
        let mut upd = NegativeSamplingUpdate::new(params.dim, sgd);
        let lr0 = params.sgd.learning_rate;
        let mut walk: Vec<u32> = Vec::with_capacity(dw.walk_length);
        for walk_idx in 0..n {
            let progress = walk_idx as f32 / n as f32;
            upd.set_learning_rate(lr0 * (1.0 - 0.9 * progress));
            walk.clear();
            let mut cur = starts[rng.random_range(0..starts.len())];
            let mut prev = None;
            walk.push(cur);
            while walk.len() < dw.walk_length {
                match adj.step(cur, prev, dw.return_param, rng) {
                    Some(next) => {
                        prev = Some(cur);
                        walk.push(next);
                        cur = next;
                    }
                    None => break,
                }
            }
            for (i, &center) in walk.iter().enumerate() {
                let lo = i.saturating_sub(dw.window);
                let hi = (i + dw.window).min(walk.len() - 1);
                for (j, &context) in walk.iter().enumerate().take(hi + 1).skip(lo) {
                    if j == i {
                        continue;
                    }
                    upd.step(&store, center as usize, context as usize, rng, |r| {
                        neg_nodes[neg_alias.sample(r)]
                    });
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
    let name = if dw.return_param == 1.0 {
        "DeepWalk"
    } else {
        "node2vec"
    };
    EmbeddingBaseline::new(name, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actor_core::ActorConfig;
    use evalkit::CrossModalModel;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    #[test]
    fn deepwalk_trains_and_clears_constant_floor() {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(70)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let substrate = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
        let mut params = BaselineParams::fast();
        // Walk pair budgets are divided by the gradient-work ratio, so
        // give the smoke test a little more headroom.
        params.samples = 600_000;
        let m = train_deepwalk(&corpus, &substrate, &DeepWalkParams::default(), &params);
        assert_eq!(m.name(), "DeepWalk");
        let mrr = evalkit::evaluate_mrr(
            &m,
            &corpus,
            &split.test,
            evalkit::PredictionTask::Location,
            &evalkit::EvalParams {
                max_queries: 40,
                ..Default::default()
            },
        );
        assert!(mrr > 0.25, "DeepWalk location MRR {mrr}");
    }

    #[test]
    fn node2vec_name_depends_on_return_param() {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(71)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let substrate = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
        let mut params = BaselineParams::fast();
        params.samples = 30_000;
        let m = train_deepwalk(
            &corpus,
            &substrate,
            &DeepWalkParams {
                return_param: 2.0,
                ..Default::default()
            },
            &params,
        );
        assert_eq!(m.name(), "node2vec");
    }

    #[test]
    fn flat_adjacency_walks_stay_in_graph() {
        let (corpus, _) = generate(DatasetPreset::Tweet.small_config(72)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let substrate = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
        let edges = flatten_edges(&substrate.graph_plain);
        let n = substrate.graph_plain.n_nodes();
        let adj = FlatAdjacency::build(n, &edges);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(5);
        let start = edges[0].0;
        let mut cur = start;
        let mut prev = None;
        for _ in 0..100 {
            match adj.step(cur, prev, 1.0, &mut rng) {
                Some(next) => {
                    assert!((next as usize) < n);
                    prev = Some(cur);
                    cur = next;
                }
                None => break,
            }
        }
    }

    #[test]
    fn isolated_node_has_no_step() {
        let adj = FlatAdjacency::build(3, &[(0, 1, 1.0)]);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(1);
        assert!(adj.step(2, None, 1.0, &mut rng).is_none());
        assert_eq!(adj.step(0, None, 1.0, &mut rng), Some(1));
    }
}
