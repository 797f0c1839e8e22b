//! The heterogeneous activity graph (Definition 1).

use std::collections::HashMap;

use crate::adjacency::{Csr, Edge};
use crate::edge::EdgeType;
use crate::node::{NodeId, NodeSpace, NodeType};

/// Edges of one type plus their CSR view.
#[derive(Debug, Clone)]
pub struct TypedEdges {
    /// Canonical undirected edge list (each pair stored once).
    pub edges: Vec<Edge>,
    /// Symmetric adjacency over the full node space.
    pub csr: Csr,
}

impl TypedEdges {
    fn build(n_nodes: usize, map: &HashMap<(NodeId, NodeId), f64>) -> Self {
        let mut edges: Vec<Edge> = map
            .iter()
            .map(|(&(a, b), &weight)| Edge { a, b, weight })
            .collect();
        // Canonical sort: the edge list (and the CSR derived from it) is
        // independent of the map's iteration order.
        edges.sort_by_key(|e| (e.a, e.b));
        let csr = Csr::build(n_nodes, &edges);
        Self { edges, csr }
    }

    /// Total weight over this type's edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }
}

/// The activity graph: a typed node space plus one [`TypedEdges`] per
/// edge type with positive support.
#[derive(Debug, Clone)]
pub struct ActivityGraph {
    space: NodeSpace,
    per_type: Vec<Option<TypedEdges>>, // indexed by EdgeType order in ALL
}

impl ActivityGraph {
    /// Assembles the graph from accumulated co-occurrence maps.
    ///
    /// Keys must be in the edge type's canonical endpoint order; `WW` keys
    /// must have `a < b`. The per-type edge-list sorts and CSR builds are
    /// independent, so they run in parallel (order-preserving over
    /// [`EdgeType::ALL`]); each table is deterministic given its map.
    pub(crate) fn from_maps(
        space: NodeSpace,
        mut maps: HashMap<EdgeType, HashMap<(NodeId, NodeId), f64>>,
    ) -> Self {
        let _span = obs::span!("stgraph.build.tables");
        let n = space.len();
        let type_maps: Vec<Option<HashMap<(NodeId, NodeId), f64>>> = EdgeType::ALL
            .iter()
            .map(|ty| maps.remove(ty).filter(|m| !m.is_empty()))
            .collect();
        let per_type = par::par_map(&type_maps, |_, m| {
            m.as_ref().map(|m| TypedEdges::build(n, m))
        });
        Self { space, per_type }
    }

    /// The node layout.
    pub fn space(&self) -> &NodeSpace {
        &self.space
    }

    /// Edges of `ty`, if that type has any.
    pub fn edges(&self, ty: EdgeType) -> Option<&TypedEdges> {
        let idx = EdgeType::ALL.iter().position(|t| *t == ty).expect("known type");
        self.per_type[idx].as_ref()
    }

    /// Total number of vertices (|V| of Table 1).
    pub fn n_nodes(&self) -> usize {
        self.space.len()
    }

    /// Total number of distinct edges across all types (|E| of Table 1).
    pub fn n_edges(&self) -> usize {
        self.per_type
            .iter()
            .flatten()
            .map(|t| t.edges.len())
            .sum()
    }

    /// Weighted degree of `node` within edge type `ty` (`d_i^e`, Eq. 3).
    pub fn weighted_degree(&self, node: NodeId, ty: EdgeType) -> f64 {
        self.edges(ty).map_or(0.0, |t| t.csr.weighted_degree(node))
    }

    /// Per-type vertex and edge counts for reports.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            n_time: self.space.n_time as usize,
            n_location: self.space.n_location as usize,
            n_word: self.space.n_word as usize,
            n_user: self.space.n_user as usize,
            edges_per_type: EdgeType::ALL
                .iter()
                .map(|&t| (t, self.edges(t).map_or(0, |e| e.edges.len())))
                .collect(),
        }
    }

    /// Convenience: the user-graph neighbor of a unit with the largest
    /// connecting weight across the three inter edge types, used by the
    /// hierarchical initialization (§5.2.1: "choose the user with the
    /// highest weight").
    pub fn strongest_user_of(&self, unit: NodeId) -> Option<NodeId> {
        debug_assert!(self.space.type_of(unit) != NodeType::User);
        let mut best: Option<(NodeId, f64)> = None;
        for ty in EdgeType::INTER {
            if let Some(te) = self.edges(ty) {
                if let Some((n, w)) = te.csr.max_weight_neighbor(unit) {
                    // The neighbor of a unit in an inter type is a user.
                    if best.is_none_or(|(_, bw)| w > bw) {
                        best = Some((n, w));
                    }
                }
            }
        }
        best.map(|(n, _)| n)
    }
}

/// Aggregate statistics of an activity graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Temporal hotspot vertices.
    pub n_time: usize,
    /// Spatial hotspot vertices.
    pub n_location: usize,
    /// Keyword vertices.
    pub n_word: usize,
    /// User vertices.
    pub n_user: usize,
    /// Edge counts by type.
    pub edges_per_type: Vec<(EdgeType, usize)>,
}

impl GraphStats {
    /// Total vertices.
    pub fn n_nodes(&self) -> usize {
        self.n_time + self.n_location + self.n_word + self.n_user
    }

    /// Total edges.
    pub fn n_edges(&self) -> usize {
        self.edges_per_type.iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> ActivityGraph {
        // 2 times, 2 locations, 3 words, 1 user.
        let space = NodeSpace {
            n_time: 2,
            n_location: 2,
            n_word: 3,
            n_user: 1,
        };
        let t0 = space.node(NodeType::Time, 0);
        let l0 = space.node(NodeType::Location, 0);
        let w0 = space.node(NodeType::Word, 0);
        let w1 = space.node(NodeType::Word, 1);
        let u0 = space.node(NodeType::User, 0);
        let mut maps: HashMap<EdgeType, HashMap<(NodeId, NodeId), f64>> = HashMap::new();
        maps.entry(EdgeType::TL).or_default().insert((t0, l0), 3.0);
        maps.entry(EdgeType::WW).or_default().insert((w0, w1), 1.0);
        maps.entry(EdgeType::UW).or_default().insert((u0, w0), 2.0);
        maps.entry(EdgeType::UT).or_default().insert((u0, t0), 4.0);
        ActivityGraph::from_maps(space, maps)
    }

    #[test]
    fn counts_and_presence() {
        let g = tiny_graph();
        assert_eq!(g.n_nodes(), 8);
        assert_eq!(g.n_edges(), 4);
        assert!(g.edges(EdgeType::TL).is_some());
        assert!(g.edges(EdgeType::LW).is_none());
        let present: Vec<EdgeType> = EdgeType::ALL
            .into_iter()
            .filter(|&t| g.edges(t).is_some())
            .collect();
        assert_eq!(
            present,
            vec![EdgeType::TL, EdgeType::WW, EdgeType::UT, EdgeType::UW]
        );
    }

    #[test]
    fn weighted_degrees() {
        let g = tiny_graph();
        let space = *g.space();
        let t0 = space.node(NodeType::Time, 0);
        assert_eq!(g.weighted_degree(t0, EdgeType::TL), 3.0);
        assert_eq!(g.weighted_degree(t0, EdgeType::UT), 4.0);
        assert_eq!(g.weighted_degree(t0, EdgeType::WW), 0.0);
    }

    #[test]
    fn strongest_user_prefers_highest_weight() {
        let g = tiny_graph();
        let space = *g.space();
        let t0 = space.node(NodeType::Time, 0);
        let w0 = space.node(NodeType::Word, 0);
        let u0 = space.node(NodeType::User, 0);
        assert_eq!(g.strongest_user_of(t0), Some(u0));
        assert_eq!(g.strongest_user_of(w0), Some(u0));
        let w2 = space.node(NodeType::Word, 2);
        assert_eq!(g.strongest_user_of(w2), None);
    }

    #[test]
    fn stats_totals() {
        let g = tiny_graph();
        let s = g.stats();
        assert_eq!(s.n_nodes(), 8);
        assert_eq!(s.n_edges(), 4);
        assert_eq!(s.n_word, 3);
    }

    #[test]
    fn total_weight() {
        let g = tiny_graph();
        assert_eq!(g.edges(EdgeType::TL).unwrap().total_weight(), 3.0);
    }
}
