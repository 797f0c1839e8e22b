//! Typed edges of the activity graph.

use crate::node::NodeType;

/// Edge type (`O_e = {TL, LW, WT, WW}` of Definition 1, plus the
/// user-to-unit types `UT/UW/UL` of the inter-record meta-graph, Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeType {
    /// Temporal unit — spatial unit co-occurrence.
    TL,
    /// Spatial unit — keyword co-occurrence.
    LW,
    /// Keyword — temporal unit co-occurrence.
    WT,
    /// Keyword — keyword co-occurrence.
    WW,
    /// User — temporal unit.
    UT,
    /// User — keyword.
    UW,
    /// User — spatial unit.
    UL,
}

impl EdgeType {
    /// All edge types, intra-record first then inter-record.
    pub const ALL: [EdgeType; 7] = [
        EdgeType::TL,
        EdgeType::LW,
        EdgeType::WT,
        EdgeType::WW,
        EdgeType::UT,
        EdgeType::UW,
        EdgeType::UL,
    ];

    /// The intra-record edge types `M_intra = {TL, LW, WT, WW}` (Eq. 6).
    pub const INTRA: [EdgeType; 4] = [EdgeType::TL, EdgeType::LW, EdgeType::WT, EdgeType::WW];

    /// The inter-record edge types `M_inter = {UT, UW, UL}` (Eq. 6).
    pub const INTER: [EdgeType; 3] = [EdgeType::UT, EdgeType::UW, EdgeType::UL];

    /// Dense index in [`EdgeType::ALL`] order, for array-backed per-type
    /// tables such as [`crate::EdgeTypeMap`].
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The two endpoint types, in canonical storage order `(first, second)`.
    pub fn endpoints(self) -> (NodeType, NodeType) {
        match self {
            EdgeType::TL => (NodeType::Time, NodeType::Location),
            EdgeType::LW => (NodeType::Location, NodeType::Word),
            EdgeType::WT => (NodeType::Word, NodeType::Time),
            EdgeType::WW => (NodeType::Word, NodeType::Word),
            EdgeType::UT => (NodeType::User, NodeType::Time),
            EdgeType::UW => (NodeType::User, NodeType::Word),
            EdgeType::UL => (NodeType::User, NodeType::Location),
        }
    }

    /// The edge type connecting two vertex types, if any.
    pub fn between(a: NodeType, b: NodeType) -> Option<EdgeType> {
        use NodeType::*;
        match (a, b) {
            (Time, Location) | (Location, Time) => Some(EdgeType::TL),
            (Location, Word) | (Word, Location) => Some(EdgeType::LW),
            (Word, Time) | (Time, Word) => Some(EdgeType::WT),
            (Word, Word) => Some(EdgeType::WW),
            (User, Time) | (Time, User) => Some(EdgeType::UT),
            (User, Word) | (Word, User) => Some(EdgeType::UW),
            (User, Location) | (Location, User) => Some(EdgeType::UL),
            _ => None,
        }
    }

    /// True for the user-to-unit (inter-record) types.
    pub fn is_inter(self) -> bool {
        matches!(self, EdgeType::UT | EdgeType::UW | EdgeType::UL)
    }

    /// Two-letter label (`TL`, `UW`, …).
    pub fn label(self) -> &'static str {
        match self {
            EdgeType::TL => "TL",
            EdgeType::LW => "LW",
            EdgeType::WT => "WT",
            EdgeType::WW => "WW",
            EdgeType::UT => "UT",
            EdgeType::UW => "UW",
            EdgeType::UL => "UL",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeType::*;

    #[test]
    fn endpoints_match_labels() {
        for e in EdgeType::ALL {
            let (a, b) = e.endpoints();
            let label: String = format!("{}{}", a.label(), b.label());
            assert_eq!(label, e.label());
        }
    }

    #[test]
    fn between_is_symmetric() {
        for a in NodeType::ALL {
            for b in NodeType::ALL {
                assert_eq!(EdgeType::between(a, b), EdgeType::between(b, a));
            }
        }
        assert_eq!(EdgeType::between(Time, Time), None);
        assert_eq!(EdgeType::between(User, User), None);
        assert_eq!(EdgeType::between(Word, Word), Some(EdgeType::WW));
    }

    #[test]
    fn intra_inter_partition() {
        for e in EdgeType::INTRA {
            assert!(!e.is_inter());
        }
        for e in EdgeType::INTER {
            assert!(e.is_inter());
        }
        assert_eq!(EdgeType::INTRA.len() + EdgeType::INTER.len(), EdgeType::ALL.len());
    }
}
