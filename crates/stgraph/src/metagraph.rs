//! Meta-graph schemes (Definition 6, Fig. 3b).
//!
//! A meta-graph is a sub-graphical scheme over typed vertices. `M0` is the
//! intra-record scheme — the T/L/W triangle of co-occurrence inside one
//! record. `M1..M6` are the inter-record schemes: a user-interaction edge
//! `u — u'` with each user connected to a non-empty proper subset of the
//! unit types `{T, L, W}` (the paper categorizes them "according to
//! different combinations of units connected to the users"; Fig. 3b marks
//! an `M4` instance spanning both layers).

use crate::edge::EdgeType;
use crate::graph::ActivityGraph;
use crate::node::{NodeId, NodeType};
use crate::usergraph::UserGraph;

/// A subset of the unit types `{T, L, W}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSet {
    /// Includes temporal units.
    pub time: bool,
    /// Includes spatial units.
    pub location: bool,
    /// Includes textual units.
    pub word: bool,
}

impl UnitSet {
    /// The unit types in the set.
    pub fn types(self) -> Vec<NodeType> {
        let mut v = Vec::new();
        if self.time {
            v.push(NodeType::Time);
        }
        if self.location {
            v.push(NodeType::Location);
        }
        if self.word {
            v.push(NodeType::Word);
        }
        v
    }

    /// Number of unit types in the set.
    pub fn len(self) -> usize {
        self.time as usize + self.location as usize + self.word as usize
    }

    /// True for the empty set.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// The meta-graph catalogue of Fig. 3b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaGraph {
    /// Intra-record T–L–W co-occurrence scheme.
    M0,
    /// Inter-record, users connected to temporal units.
    M1,
    /// Inter-record, users connected to spatial units.
    M2,
    /// Inter-record, users connected to textual units.
    M3,
    /// Inter-record, users connected to temporal + spatial units.
    M4,
    /// Inter-record, users connected to temporal + textual units.
    M5,
    /// Inter-record, users connected to spatial + textual units.
    M6,
}

impl MetaGraph {
    /// All schemes.
    pub const ALL: [MetaGraph; 7] = [
        MetaGraph::M0,
        MetaGraph::M1,
        MetaGraph::M2,
        MetaGraph::M3,
        MetaGraph::M4,
        MetaGraph::M5,
        MetaGraph::M6,
    ];

    /// The inter-record schemes.
    pub const INTER: [MetaGraph; 6] = [
        MetaGraph::M1,
        MetaGraph::M2,
        MetaGraph::M3,
        MetaGraph::M4,
        MetaGraph::M5,
        MetaGraph::M6,
    ];

    /// True for `M1..M6`.
    pub fn is_inter(self) -> bool {
        self != MetaGraph::M0
    }

    /// The unit types each user endpoint connects to (inter schemes), or
    /// the full `{T, L, W}` for `M0`.
    pub fn unit_set(self) -> UnitSet {
        match self {
            MetaGraph::M0 => UnitSet {
                time: true,
                location: true,
                word: true,
            },
            MetaGraph::M1 => UnitSet {
                time: true,
                location: false,
                word: false,
            },
            MetaGraph::M2 => UnitSet {
                time: false,
                location: true,
                word: false,
            },
            MetaGraph::M3 => UnitSet {
                time: false,
                location: false,
                word: true,
            },
            MetaGraph::M4 => UnitSet {
                time: true,
                location: true,
                word: false,
            },
            MetaGraph::M5 => UnitSet {
                time: true,
                location: false,
                word: true,
            },
            MetaGraph::M6 => UnitSet {
                time: false,
                location: true,
                word: true,
            },
        }
    }

    /// Edge types used when training this scheme's objective (Eq. 6):
    /// `M0 → M_intra`; inter schemes map their unit set to `UT/UL/UW`.
    pub fn edge_types(self) -> Vec<EdgeType> {
        if self == MetaGraph::M0 {
            return EdgeType::INTRA.to_vec();
        }
        let us = self.unit_set();
        let mut v = Vec::new();
        if us.time {
            v.push(EdgeType::UT);
        }
        if us.word {
            v.push(EdgeType::UW);
        }
        if us.location {
            v.push(EdgeType::UL);
        }
        v
    }

    /// Counts instances of this scheme spanning `users` and `graph`.
    ///
    /// For an inter scheme with unit set `S`, an *instance* is a user edge
    /// `(u, u')` together with one concrete unit of every type in `S`
    /// attached to each endpoint; the count is therefore
    /// `Σ_{(u,u')} Π_{s∈S} deg_s(u)·deg_s(u')` where `deg_s` is the
    /// unweighted `U–s` degree. `M0` counts records' T–L–W triangles,
    /// which equals the number of TL edges weighted by record support and
    /// is approximated here by total TL weight.
    pub fn count_instances(self, graph: &ActivityGraph, users: &UserGraph) -> f64 {
        if self == MetaGraph::M0 {
            return graph
                .edges(EdgeType::TL)
                .map_or(0.0, |te| te.total_weight());
        }
        let space = graph.space();
        if space.n_user == 0 {
            return 0.0;
        }
        let deg = |u: NodeId, ty: NodeType| -> f64 {
            let et = match ty {
                NodeType::Time => EdgeType::UT,
                NodeType::Location => EdgeType::UL,
                NodeType::Word => EdgeType::UW,
                NodeType::User => unreachable!("unit sets never contain User"),
            };
            graph.edges(et).map_or(0.0, |te| te.csr.degree(u) as f64)
        };
        let types = self.unit_set().types();
        // Sharded over the user-interaction edge list; degrees are integer
        // counts so the partial sums (merged in shard order) are exact and
        // the total matches a serial scan bit for bit.
        par::par_accumulate(
            users.edges(),
            || 0.0f64,
            |acc, _, &(a, b, _)| {
                let ua = space.node(NodeType::User, a.0);
                let ub = space.node(NodeType::User, b.0);
                let mut prod = 1.0;
                for &ty in &types {
                    prod *= deg(ua, ty) * deg(ub, ty);
                }
                *acc += prod;
            },
            |total, acc| *total += acc,
        )
    }

    /// Scheme name (`M0` … `M6`).
    pub fn label(self) -> &'static str {
        match self {
            MetaGraph::M0 => "M0",
            MetaGraph::M1 => "M1",
            MetaGraph::M2 => "M2",
            MetaGraph::M3 => "M3",
            MetaGraph::M4 => "M4",
            MetaGraph::M5 => "M5",
            MetaGraph::M6 => "M6",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m0_is_intra_rest_are_inter() {
        assert!(!MetaGraph::M0.is_inter());
        for m in MetaGraph::INTER {
            assert!(m.is_inter());
        }
    }

    #[test]
    fn inter_unit_sets_are_proper_nonempty_subsets() {
        for m in MetaGraph::INTER {
            let s = m.unit_set();
            assert!(!s.is_empty());
            assert!(s.len() < 3, "{m:?} must be a proper subset");
        }
        // All six distinct.
        for (i, a) in MetaGraph::INTER.iter().enumerate() {
            for b in &MetaGraph::INTER[i + 1..] {
                assert_ne!(a.unit_set(), b.unit_set());
            }
        }
    }

    #[test]
    fn edge_types_match_unit_sets() {
        assert_eq!(MetaGraph::M0.edge_types(), EdgeType::INTRA.to_vec());
        assert_eq!(MetaGraph::M1.edge_types(), vec![EdgeType::UT]);
        assert_eq!(MetaGraph::M4.edge_types(), vec![EdgeType::UT, EdgeType::UL]);
        assert_eq!(MetaGraph::M6.edge_types(), vec![EdgeType::UW, EdgeType::UL]);
    }

    #[test]
    fn union_of_inter_edge_types_is_m_inter() {
        let mut all: Vec<EdgeType> = MetaGraph::INTER
            .iter()
            .flat_map(|m| m.edge_types())
            .collect();
        all.sort();
        all.dedup();
        let mut expected = EdgeType::INTER.to_vec();
        expected.sort();
        assert_eq!(all, expected);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            MetaGraph::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 7);
    }
}
