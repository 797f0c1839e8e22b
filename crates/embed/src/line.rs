//! LINE: large-scale information network embedding \[24\].
//!
//! Used twice in this reproduction: to pre-train the user interaction
//! graph (Algorithm 1, line 3) and as the LINE / LINE(U) baselines of
//! Table 2. Works on any homogeneous weighted edge list and preserves
//! second-order proximity: the skip-gram-style center/context formulation.

use rand::Rng;

use crate::sgd::{annealed, NegativeSamplingUpdate, SgdParams};
use crate::store::EmbeddingStore;
use stgraph::{AliasTable, NegativeTable};

/// Which proximity LINE preserves. Only second order is implemented; the
/// type stays because the `perfbench` package names `LineOrder::Second`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOrder {
    /// Second-order: vertices with similar neighborhoods embed nearby
    /// (center + context sets).
    Second,
}

/// LINE hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct LineParams {
    /// Embedding width.
    pub dim: usize,
    /// Total edge samples.
    pub samples: u64,
    /// Hogwild worker threads.
    pub threads: usize,
    /// Per-step SGD parameters.
    pub sgd: SgdParams,
    /// Proximity order (second order is the only one).
    pub order: LineOrder,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LineParams {
    fn default() -> Self {
        Self {
            dim: 128,
            samples: 1_000_000,
            threads: 1,
            sgd: SgdParams::default(),
            order: LineOrder::Second,
            seed: 0x11E,
        }
    }
}

/// A LINE trainer over an undirected weighted edge list.
///
/// ```
/// use embed::{LineTrainer, LineParams, LineOrder};
///
/// // A triangle plus a pendant vertex.
/// let edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 0.5)];
/// let trainer = LineTrainer::new(4, &edges).unwrap();
/// let store = trainer.train(LineParams {
///     dim: 8,
///     samples: 20_000,
///     ..LineParams::default()
/// });
/// assert_eq!(store.n_nodes(), 4);
/// assert_eq!(store.dim(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct LineTrainer {
    n_nodes: usize,
    edges: Vec<(u32, u32)>,
    edge_alias: AliasTable,
    noise: NegativeTable,
}

impl LineTrainer {
    /// Builds samplers for `edges` over `n_nodes` vertices. Returns `None`
    /// when the edge list is empty or weightless.
    pub fn new(n_nodes: usize, edges: &[(u32, u32, f64)]) -> Option<Self> {
        let weights: Vec<f64> = edges.iter().map(|&(_, _, w)| w).collect();
        let edge_alias = AliasTable::new(&weights)?;
        let noise = NegativeTable::over_edges(n_nodes, edges)?;
        Some(Self {
            n_nodes,
            edges: edges.iter().map(|&(a, b, _)| (a, b)).collect(),
            edge_alias,
            noise,
        })
    }

    /// Number of vertices.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Trains and returns the embedding store: centers are the vertex
    /// embeddings and contexts the context vectors, as in the paper.
    pub fn train(&self, params: LineParams) -> EmbeddingStore {
        let mut init_rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(params.seed);
        let store = EmbeddingStore::init(self.n_nodes, params.dim, &mut init_rng);
        let _span = obs::span!("embed.line.train");
        let samples_done = obs::counter("embed.line.samples");
        par::run_seeded(params.threads, params.samples, params.seed, |rng, n| {
            let mut upd = NegativeSamplingUpdate::new(params.dim, params.sgd);
            let lr0 = params.sgd.learning_rate;
            let mut flushed = 0u64;
            for i in 0..n {
                // Annealing, tracked per thread. The same cadence batches
                // the live-progress counter flush.
                if i % 1024 == 0 {
                    let progress = i as f32 / n as f32;
                    upd.set_learning_rate(annealed(lr0, progress));
                    if i > 0 {
                        samples_done.add(1024);
                        flushed += 1024;
                    }
                }
                let (mut a, mut b) = self.edges[self.edge_alias.sample(rng)];
                if rng.random::<bool>() {
                    std::mem::swap(&mut a, &mut b);
                }
                upd.step(&store, a as usize, b as usize, rng, |r| {
                    self.noise.sample(r).idx()
                });
            }
            samples_done.add(n - flushed);
        });
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::cosine;

    /// Two 4-cliques joined by one weak edge.
    fn two_cliques() -> Vec<(u32, u32, f64)> {
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j, 5.0));
                }
            }
        }
        edges.push((0, 4, 0.2));
        edges
    }

    fn params() -> LineParams {
        LineParams {
            dim: 16,
            samples: 120_000,
            threads: 1,
            sgd: SgdParams {
                learning_rate: 0.05,
                negatives: 3,
                grad_clip: 0.0,
            },
            order: LineOrder::Second,
            seed: 42,
        }
    }

    #[test]
    fn second_order_separates_cliques() {
        let t = LineTrainer::new(8, &two_cliques()).unwrap();
        let mut p = params();
        p.samples = 400_000;
        let store = t.train(p);
        let intra = cosine(store.centers.row(0), store.centers.row(1));
        let inter = cosine(store.centers.row(0), store.centers.row(5));
        assert!(intra > inter + 0.1, "intra {intra} inter {inter}");
    }

    #[test]
    fn empty_graph_returns_none() {
        assert!(LineTrainer::new(5, &[]).is_none());
        assert!(LineTrainer::new(5, &[(0, 1, 0.0)]).is_none());
    }

    #[test]
    fn multithreaded_training_still_learns() {
        let t = LineTrainer::new(8, &two_cliques()).unwrap();
        let mut p = params();
        p.threads = 4;
        let store = t.train(p);
        let intra = cosine(store.centers.row(0), store.centers.row(1));
        let inter = cosine(store.centers.row(0), store.centers.row(5));
        assert!(intra > inter, "intra {intra} inter {inter}");
    }

    #[test]
    fn single_thread_training_is_deterministic() {
        let t = LineTrainer::new(8, &two_cliques()).unwrap();
        let a = t.train(params());
        let b = t.train(params());
        assert_eq!(a.centers.row(3), b.centers.row(3));
    }
}
