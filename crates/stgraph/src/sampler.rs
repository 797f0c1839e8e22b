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
    /// degree in `ty` raised to [`NEGATIVE_POWER`]. `None` when no vertex
    /// of that type has positive degree.
    pub fn new(graph: &ActivityGraph, ty: EdgeType, side: NodeType) -> Option<Self> {
        Self::with_power(graph, ty, side, NEGATIVE_POWER)
    }

    /// Like [`NegativeTable::new`] with an explicit degree exponent
    /// (`0.0` = uniform over active vertices, `1.0` = proportional to
    /// degree); used by the design-ablation bench.
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
        let t = NegativeTable::new(&g, EdgeType::TL, NodeType::Location).unwrap();
        assert_eq!(t.len(), 2); // both locations have TL degree
        let t = NegativeTable::new(&g, EdgeType::LW, NodeType::Word).unwrap();
        assert_eq!(t.len(), 1); // only w0 has LW degree
        assert!(NegativeTable::new(&g, EdgeType::WW, NodeType::Word).is_none());
    }

    #[test]
    fn negative_table_uses_sublinear_power() {
        let g = graph();
        let t = NegativeTable::new(&g, EdgeType::TL, NodeType::Time).unwrap();
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
    fn edge_list_table_skips_vertices_without_degree() {
        let t = NegativeTable::over_edges(4, &[(0, 2, 1.0), (2, 3, 0.0)]).unwrap();
        assert_eq!(t.nodes(), &[NodeId(0), NodeId(2)]);
        assert!(NegativeTable::over_edges(2, &[(0, 1, 0.0)]).is_none());
    }
}
