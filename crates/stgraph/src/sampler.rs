//! Edge and negative samplers for the training loops (§5.2.3).

use rand::Rng;

use crate::alias::AliasTable;
use crate::edge::EdgeType;
use crate::graph::ActivityGraph;
use crate::node::{NodeId, NodeType};

/// O(1) weighted edge sampler for one edge type of an activity graph.
#[derive(Debug, Clone)]
pub struct EdgeSampler {
    ty: EdgeType,
    edges: Vec<(NodeId, NodeId)>,
    alias: AliasTable,
}

impl EdgeSampler {
    /// Builds the sampler over `graph`'s edges of `ty`; `None` if that
    /// type has no edges.
    pub fn new(graph: &ActivityGraph, ty: EdgeType) -> Option<Self> {
        let typed = graph.edges(ty)?;
        let weights: Vec<f64> = typed.edges.iter().map(|e| e.weight).collect();
        let alias = AliasTable::new(&weights)?;
        Some(Self {
            ty,
            edges: typed.edges.iter().map(|e| (e.a, e.b)).collect(),
            alias,
        })
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the sampler has no edges (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Draws an edge proportionally to its weight, in canonical endpoint
    /// order.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (NodeId, NodeId) {
        self.edges[self.alias.sample(rng)]
    }

    /// Draws an edge as [`EdgeSampler::sample`] does and orients it for
    /// one skip-gram step: `(center, context, context side)`. An edge
    /// between two vertex types trains in both directions, so one fair
    /// coin, drawn after the edge, makes the first endpoint the context
    /// half of the time; a same-type edge (`WW`) draws no coin.
    #[inline]
    pub fn sample_oriented<R: Rng + ?Sized>(&self, rng: &mut R) -> (NodeId, NodeId, NodeType) {
        let (a, b) = self.sample(rng);
        let (ta, tb) = self.ty.endpoints();
        if ta != tb && rng.random::<bool>() {
            (b, a, ta)
        } else {
            (a, b, tb)
        }
    }

    /// The canonical edge list backing the sampler.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The underlying alias table (determinism checks).
    pub fn alias(&self) -> &AliasTable {
        &self.alias
    }
}

/// Negative-sample table for one (edge type, context side), or for a
/// whole homogeneous graph ([`NegativeTable::over_edges`]).
///
/// Implements `P(v) ∝ d_v^{3/4}` over the nodes that appear on the context
/// side of the edge type. The paper prints `d_v^4`; the ¾ power is the
/// standard word2vec/LINE noise distribution \[43\] and is what the `4`
/// abbreviates (see DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct NegativeTable {
    nodes: Vec<NodeId>,
    alias: AliasTable,
}

/// Exponent of the noise distribution.
pub const NEGATIVE_POWER: f64 = 0.75;

impl NegativeTable {
    /// Builds a table over all vertices of `side` weighted by their
    /// degree in `ty` raised to `power` ([`NEGATIVE_POWER`] by default;
    /// `0.0` = uniform over active vertices, `1.0` = proportional to
    /// degree). `None` when no vertex of that type has positive degree.
    pub fn with_power(
        graph: &ActivityGraph,
        ty: EdgeType,
        side: NodeType,
        power: f64,
    ) -> Option<Self> {
        let space = graph.space();
        let mut nodes = Vec::new();
        let mut weights = Vec::new();
        for node in space.nodes_of(side) {
            let d = graph.weighted_degree(node, ty);
            if d > 0.0 {
                nodes.push(node);
                weights.push(d.powf(power));
            }
        }
        let alias = AliasTable::new(&weights)?;
        Some(Self { nodes, alias })
    }

    /// Builds a table over every vertex of a homogeneous weighted edge
    /// list, weighted by its degree (summed in edge order) raised to
    /// [`NEGATIVE_POWER`]. This is LINE's and metapath2vec's noise, which
    /// ignores vertex types. `None` when no vertex has positive degree.
    pub fn over_edges(n_nodes: usize, edges: &[(u32, u32, f64)]) -> Option<Self> {
        let mut degree = vec![0.0f64; n_nodes];
        for &(a, b, w) in edges {
            degree[a as usize] += w;
            degree[b as usize] += w;
        }
        let mut nodes = Vec::new();
        let mut weights = Vec::new();
        for (i, &d) in degree.iter().enumerate() {
            if d > 0.0 {
                nodes.push(NodeId(i as u32));
                weights.push(d.powf(NEGATIVE_POWER));
            }
        }
        let alias = AliasTable::new(&weights)?;
        Some(Self { nodes, alias })
    }

    /// Number of candidate nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Draws a noise node.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        self.nodes[self.alias.sample(rng)]
    }

    /// The candidate nodes backing the table.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The underlying alias table (determinism checks).
    pub fn alias(&self) -> &AliasTable {
        &self.alias
    }
}

/// The typed-edge draw every SGD trainer on the activity graph shares:
/// per edge type, its [`EdgeSampler`], the [`NegativeTable`] of each
/// endpoint side and its total edge weight, in fixed arrays indexed by
/// [`EdgeType::index`] and [`NodeType::index`]. A hot loop resolves a
/// table per step, so every lookup is an array index, never a hash.
#[derive(Debug, Clone, Default)]
pub struct EdgeTables {
    samplers: [Option<EdgeSampler>; 7],
    negatives: [[Option<NegativeTable>; 4]; 7],
    weights: [f64; 7],
}

impl EdgeTables {
    /// Builds the sampler, both sides' negative tables (degree raised to
    /// `power`) and the weight of each type in `types`; other types stay
    /// empty. The types build in parallel and land in fixed slots, so the
    /// result is identical at any thread count.
    pub fn build(graph: &ActivityGraph, types: &[EdgeType], power: f64) -> Self {
        let built = par::par_map(types, |_, &ty| {
            let (a, b) = ty.endpoints();
            let mut negatives: [Option<NegativeTable>; 4] = Default::default();
            for side in [a, b] {
                // `WW`'s one side is built once.
                if negatives[side.index()].is_none() {
                    negatives[side.index()] = NegativeTable::with_power(graph, ty, side, power);
                }
            }
            (EdgeSampler::new(graph, ty), negatives)
        });
        let mut tables = Self::default();
        for (&ty, (sampler, negatives)) in types.iter().zip(built) {
            tables.samplers[ty.index()] = sampler;
            tables.negatives[ty.index()] = negatives;
            tables.weights[ty.index()] = graph.edges(ty).map_or(0.0, |te| te.total_weight());
        }
        tables
    }

    /// The edge sampler of `ty`, if it was built and `ty` has edges.
    #[inline]
    pub fn sampler(&self, ty: EdgeType) -> Option<&EdgeSampler> {
        self.samplers[ty.index()].as_ref()
    }

    /// The noise table of `ty`'s `side` endpoints, if any.
    #[inline]
    pub fn negatives(&self, ty: EdgeType, side: NodeType) -> Option<&NegativeTable> {
        self.negatives[ty.index()][side.index()].as_ref()
    }

    /// Total edge weight of `ty` (`0.0` when absent or not built).
    pub fn weight(&self, ty: EdgeType) -> f64 {
        self.weights[ty.index()]
    }

    /// One skip-gram draw of `ty`: an oriented edge
    /// ([`EdgeSampler::sample_oriented`]) with the noise table of its
    /// context side, as `(center, context, noise)`. Draws nothing when
    /// `ty` has no sampler; `None` after the draw when the context side
    /// has no table.
    #[inline]
    pub fn draw<R: Rng + ?Sized>(
        &self,
        ty: EdgeType,
        rng: &mut R,
    ) -> Option<(NodeId, NodeId, &NegativeTable)> {
        let (center, context, side) = self.sampler(ty)?.sample_oriented(rng);
        Some((center, context, self.negatives(ty, side)?))
    }

    /// One round's batch size for each type in `types` that has a
    /// sampler: `round(budget × (w_ty / total))`. Eq. 6 sums the weighted
    /// objectives `J_e = -Σ a_ij log p`, so a type holding 40% of `total`
    /// receives 40% of the round's draws.
    pub fn batches(&self, types: &[EdgeType], budget: f64, total: f64) -> Vec<(EdgeType, usize)> {
        types
            .iter()
            .filter(|&&ty| self.sampler(ty).is_some())
            .map(|&ty| (ty, (budget * (self.weight(ty) / total)).round() as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpace;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashMap;

    fn graph() -> ActivityGraph {
        let space = NodeSpace {
            n_time: 2,
            n_location: 2,
            n_word: 3,
            n_user: 0,
        };
        let t0 = space.node(NodeType::Time, 0);
        let t1 = space.node(NodeType::Time, 1);
        let l0 = space.node(NodeType::Location, 0);
        let l1 = space.node(NodeType::Location, 1);
        let w0 = space.node(NodeType::Word, 0);
        let mut maps: HashMap<EdgeType, HashMap<(NodeId, NodeId), f64>> = HashMap::new();
        let tl = maps.entry(EdgeType::TL).or_default();
        tl.insert((t0, l0), 9.0);
        tl.insert((t1, l1), 1.0);
        maps.entry(EdgeType::LW).or_default().insert((l0, w0), 1.0);
        ActivityGraph::from_maps(space, maps)
    }

    #[test]
    fn edge_sampler_respects_weights() {
        let g = graph();
        let s = EdgeSampler::new(&g, EdgeType::TL).unwrap();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        let mut heavy = 0usize;
        let n = 50_000;
        for _ in 0..n {
            let (a, _) = s.sample(&mut rng);
            if a == NodeId(0) {
                heavy += 1;
            }
        }
        let f = heavy as f64 / n as f64;
        assert!((f - 0.9).abs() < 0.01, "{f}");
    }

    #[test]
    fn oriented_draws_name_the_context_side_and_use_both_directions() {
        let g = graph();
        let s = EdgeSampler::new(&g, EdgeType::TL).unwrap();
        let space = g.space();
        let mut rng = StdRng::seed_from_u64(3);
        let mut flipped = 0usize;
        let n = 10_000;
        for _ in 0..n {
            let (center, context, side) = s.sample_oriented(&mut rng);
            assert_eq!(space.type_of(context), side);
            assert_ne!(space.type_of(center), side);
            if side == NodeType::Time {
                flipped += 1;
            }
        }
        let f = flipped as f64 / n as f64;
        assert!((f - 0.5).abs() < 0.02, "{f}");
    }

    #[test]
    fn edge_sampler_none_for_absent_type() {
        let g = graph();
        assert!(EdgeSampler::new(&g, EdgeType::WW).is_none());
        assert!(EdgeSampler::new(&g, EdgeType::UT).is_none());
    }

    #[test]
    fn negative_table_covers_active_side_only() {
        let g = graph();
        let table = |ty, side| NegativeTable::with_power(&g, ty, side, NEGATIVE_POWER);
        let t = table(EdgeType::TL, NodeType::Location).unwrap();
        assert_eq!(t.len(), 2); // both locations have TL degree
        let t = table(EdgeType::LW, NodeType::Word).unwrap();
        assert_eq!(t.len(), 1); // only w0 has LW degree
        assert!(table(EdgeType::WW, NodeType::Word).is_none());
    }

    #[test]
    fn negative_table_uses_sublinear_power() {
        let g = graph();
        let t =
            NegativeTable::with_power(&g, EdgeType::TL, NodeType::Time, NEGATIVE_POWER).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut heavy = 0usize;
        let n = 50_000;
        for _ in 0..n {
            if t.sample(&mut rng) == NodeId(0) {
                heavy += 1;
            }
        }
        // 9^0.75 / (9^0.75 + 1^0.75) ≈ 0.839, clearly below the raw 0.9.
        let f = heavy as f64 / n as f64;
        let expected = 9f64.powf(0.75) / (9f64.powf(0.75) + 1.0);
        assert!((f - expected).abs() < 0.01, "{f} vs {expected}");
    }

    #[test]
    fn edge_tables_hold_what_the_graph_has() {
        let g = graph();
        let tables = EdgeTables::build(&g, &EdgeType::INTRA, NEGATIVE_POWER);
        assert_eq!(tables.sampler(EdgeType::TL).map(EdgeSampler::len), Some(2));
        assert!(tables.sampler(EdgeType::WW).is_none());
        assert_eq!(tables.weight(EdgeType::TL), 10.0);
        assert_eq!(tables.weight(EdgeType::WW), 0.0);
        for side in [NodeType::Time, NodeType::Location] {
            let built = tables.negatives(EdgeType::TL, side).unwrap();
            let direct = NegativeTable::with_power(&g, EdgeType::TL, side, NEGATIVE_POWER).unwrap();
            assert_eq!(built.nodes(), direct.nodes());
            assert_eq!(built.alias().probs(), direct.alias().probs());
        }
        assert!(tables.negatives(EdgeType::TL, NodeType::Word).is_none());
        // A type left out of `types` stays empty.
        let tl_only = EdgeTables::build(&g, &[EdgeType::TL], NEGATIVE_POWER);
        assert!(tl_only.sampler(EdgeType::LW).is_none());
        assert_eq!(tl_only.weight(EdgeType::LW), 0.0);
    }

    #[test]
    fn edge_tables_draw_pairs_the_context_with_its_noise() {
        let g = graph();
        let tables = EdgeTables::build(&g, &EdgeType::INTRA, NEGATIVE_POWER);
        let space = g.space();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let (center, context, noise) = tables.draw(EdgeType::TL, &mut rng).unwrap();
            let side = space.type_of(context);
            assert_ne!(space.type_of(center), side);
            assert!(std::ptr::eq(
                noise,
                tables.negatives(EdgeType::TL, side).unwrap()
            ));
        }
        // No sampler: nothing is drawn, so the stream does not move.
        let mut before = rng.clone();
        assert!(tables.draw(EdgeType::WW, &mut rng).is_none());
        assert_eq!(rng.random::<u64>(), before.random::<u64>());
    }

    #[test]
    fn edge_table_batches_follow_weight_shares() {
        let g = graph();
        let tables = EdgeTables::build(&g, &EdgeType::INTRA, NEGATIVE_POWER);
        // TL holds 10 of 11 weight units, LW 1; WW has no sampler.
        let batches = tables.batches(&EdgeType::INTRA, 110.0, 11.0);
        assert_eq!(batches, vec![(EdgeType::TL, 100), (EdgeType::LW, 10)]);
    }

    #[test]
    fn edge_list_table_skips_vertices_without_degree() {
        let t = NegativeTable::over_edges(4, &[(0, 2, 1.0), (2, 3, 0.0)]).unwrap();
        assert_eq!(t.nodes(), &[NodeId(0), NodeId(2)]);
        assert!(NegativeTable::over_edges(2, &[(0, 1, 0.0)]).is_none());
    }
}
