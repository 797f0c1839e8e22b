//! Weighted edge lists and CSR adjacency.
//!
//! Each edge type of the activity graph stores its (undirected) edges once
//! in a canonical list plus a symmetric CSR view for neighbor scans
//! (meta-path walks, degree computation, initialization).

use crate::node::NodeId;

/// An undirected weighted edge between global node ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// First endpoint (canonical order: the edge type's first node type).
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Aggregated co-occurrence weight.
    pub weight: f64,
}

/// Compressed sparse row view over an undirected edge list.
///
/// Rows are indexed by global node id over the *whole* node space, so
/// lookups need no per-type translation; nodes not touched by the edge
/// type simply have empty rows.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
    weights: Vec<f64>,
}

impl Csr {
    /// Builds the symmetric CSR of `edges` over `n_nodes` rows.
    pub fn build(n_nodes: usize, edges: &[Edge]) -> Self {
        let mut degree = vec![0u32; n_nodes];
        for e in edges {
            degree[e.a.idx()] += 1;
            degree[e.b.idx()] += 1;
        }
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n_nodes].to_vec();
        let mut neighbors = vec![NodeId(0); acc as usize];
        let mut weights = vec![0.0f64; acc as usize];
        for e in edges {
            let ca = cursor[e.a.idx()] as usize;
            neighbors[ca] = e.b;
            weights[ca] = e.weight;
            cursor[e.a.idx()] += 1;
            let cb = cursor[e.b.idx()] as usize;
            neighbors[cb] = e.a;
            weights[cb] = e.weight;
            cursor[e.b.idx()] += 1;
        }
        Self {
            offsets,
            neighbors,
            weights,
        }
    }

    /// Number of rows (nodes).
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `node` with weights.
    pub fn row(&self, node: NodeId) -> (&[NodeId], &[f64]) {
        let lo = self.offsets[node.idx()] as usize;
        let hi = self.offsets[node.idx() + 1] as usize;
        (&self.neighbors[lo..hi], &self.weights[lo..hi])
    }

    /// Number of incident edge endpoints at `node` (its unweighted degree
    /// within this edge type).
    pub fn degree(&self, node: NodeId) -> usize {
        (self.offsets[node.idx() + 1] - self.offsets[node.idx()]) as usize
    }

    /// Sum of incident edge weights at `node` (`d_i^e` of Eq. 3).
    pub fn weighted_degree(&self, node: NodeId) -> f64 {
        let (_, w) = self.row(node);
        w.iter().sum()
    }

    /// The neighbor of `node` with the maximum edge weight, if any.
    pub fn max_weight_neighbor(&self, node: NodeId) -> Option<(NodeId, f64)> {
        let (ns, ws) = self.row(node);
        ns.iter()
            .zip(ws)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
            .map(|(&n, &w)| (n, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Vec<Edge> {
        vec![
            Edge {
                a: NodeId(0),
                b: NodeId(1),
                weight: 2.0,
            },
            Edge {
                a: NodeId(0),
                b: NodeId(2),
                weight: 1.0,
            },
            Edge {
                a: NodeId(1),
                b: NodeId(2),
                weight: 5.0,
            },
        ]
    }

    #[test]
    fn csr_is_symmetric() {
        let csr = Csr::build(4, &edges());
        assert_eq!(csr.n_rows(), 4);
        let (n0, w0) = csr.row(NodeId(0));
        assert_eq!(n0, &[NodeId(1), NodeId(2)]);
        assert_eq!(w0, &[2.0, 1.0]);
        let (n2, _) = csr.row(NodeId(2));
        assert_eq!(n2.len(), 2);
        assert!(n2.contains(&NodeId(0)) && n2.contains(&NodeId(1)));
        // Node 3 untouched.
        assert_eq!(csr.degree(NodeId(3)), 0);
        assert_eq!(csr.row(NodeId(3)).0.len(), 0);
    }

    #[test]
    fn degrees_and_weighted_degrees() {
        let csr = Csr::build(4, &edges());
        assert_eq!(csr.degree(NodeId(0)), 2);
        assert_eq!(csr.weighted_degree(NodeId(0)), 3.0);
        assert_eq!(csr.weighted_degree(NodeId(1)), 7.0);
        assert_eq!(csr.weighted_degree(NodeId(3)), 0.0);
    }

    #[test]
    fn max_weight_neighbor() {
        let csr = Csr::build(4, &edges());
        assert_eq!(csr.max_weight_neighbor(NodeId(0)), Some((NodeId(1), 2.0)));
        assert_eq!(csr.max_weight_neighbor(NodeId(2)), Some((NodeId(1), 5.0)));
        assert_eq!(csr.max_weight_neighbor(NodeId(3)), None);
    }

    #[test]
    fn empty_edge_list() {
        let csr = Csr::build(3, &[]);
        for i in 0..3 {
            assert_eq!(csr.degree(NodeId(i)), 0);
        }
    }
}
