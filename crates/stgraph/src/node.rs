//! Typed vertices of the activity graph.
//!
//! The activity graph mixes four vertex types — temporal hotspots,
//! spatial hotspots, keywords, and users (Definition 1 plus the `(U)`
//! augmentation of §6.1.2). Vertices live in one dense global id space
//! laid out as `[T | L | W | U]`, so embedding matrices index directly by
//! [`NodeId`] while [`NodeSpace`] converts to and from per-type indices.

/// Vertex type (`O_v = {T, L, W}` of Definition 1, plus `U`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeType {
    /// Temporal hotspot unit.
    Time,
    /// Spatial hotspot unit.
    Location,
    /// Textual unit (keyword).
    Word,
    /// User vertex (hierarchical layer / `(U)` variants).
    User,
}

impl NodeType {
    /// All types in global-layout order.
    pub const ALL: [NodeType; 4] = [
        NodeType::Time,
        NodeType::Location,
        NodeType::Word,
        NodeType::User,
    ];

    /// Dense index in [`NodeType::ALL`] order (`T`=0, `L`=1, `W`=2,
    /// `U`=3), for array-backed per-type tables.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// One-letter label used in reports (`T`, `L`, `W`, `U`).
    pub fn label(self) -> &'static str {
        match self {
            NodeType::Time => "T",
            NodeType::Location => "L",
            NodeType::Word => "W",
            NodeType::User => "U",
        }
    }
}

/// Dense global vertex identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an array index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The `[T | L | W | U]` layout of the global id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpace {
    /// Number of temporal hotspot vertices.
    pub n_time: u32,
    /// Number of spatial hotspot vertices.
    pub n_location: u32,
    /// Number of keyword vertices.
    pub n_word: u32,
    /// Number of user vertices (0 when users are not embedded).
    pub n_user: u32,
}

impl NodeSpace {
    /// Total number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        (self.n_time + self.n_location + self.n_word + self.n_user) as usize
    }

    /// True if the space has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First global id of vertices of `ty`.
    #[inline]
    pub fn offset(&self, ty: NodeType) -> u32 {
        match ty {
            NodeType::Time => 0,
            NodeType::Location => self.n_time,
            NodeType::Word => self.n_time + self.n_location,
            NodeType::User => self.n_time + self.n_location + self.n_word,
        }
    }

    /// Number of vertices of `ty`.
    #[inline]
    pub fn count(&self, ty: NodeType) -> u32 {
        match ty {
            NodeType::Time => self.n_time,
            NodeType::Location => self.n_location,
            NodeType::Word => self.n_word,
            NodeType::User => self.n_user,
        }
    }

    /// Global id of the `local`-th vertex of `ty`.
    ///
    /// Panics (debug) if `local` is out of range.
    #[inline]
    pub fn node(&self, ty: NodeType, local: u32) -> NodeId {
        debug_assert!(local < self.count(ty), "{ty:?} local {local} out of range");
        NodeId(self.offset(ty) + local)
    }

    /// The type of a global id.
    #[inline]
    pub fn type_of(&self, id: NodeId) -> NodeType {
        let v = id.0;
        if v < self.n_time {
            NodeType::Time
        } else if v < self.n_time + self.n_location {
            NodeType::Location
        } else if v < self.n_time + self.n_location + self.n_word {
            NodeType::Word
        } else {
            debug_assert!((v as usize) < self.len(), "node id out of range");
            NodeType::User
        }
    }

    /// The per-type index of a global id.
    #[inline]
    pub fn local_of(&self, id: NodeId) -> u32 {
        id.0 - self.offset(self.type_of(id))
    }

    /// Iterates all global ids of `ty`.
    pub fn nodes_of(&self, ty: NodeType) -> impl Iterator<Item = NodeId> {
        let off = self.offset(ty);
        (off..off + self.count(ty)).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> NodeSpace {
        NodeSpace {
            n_time: 3,
            n_location: 5,
            n_word: 7,
            n_user: 2,
        }
    }

    #[test]
    fn layout_offsets() {
        let s = space();
        assert_eq!(s.len(), 17);
        assert_eq!(s.offset(NodeType::Time), 0);
        assert_eq!(s.offset(NodeType::Location), 3);
        assert_eq!(s.offset(NodeType::Word), 8);
        assert_eq!(s.offset(NodeType::User), 15);
        assert!(!s.is_empty());
    }

    #[test]
    fn node_round_trip() {
        let s = space();
        for ty in NodeType::ALL {
            for local in 0..s.count(ty) {
                let id = s.node(ty, local);
                assert_eq!(s.type_of(id), ty);
                assert_eq!(s.local_of(id), local);
            }
        }
    }

    #[test]
    fn nodes_of_enumerates_type_range() {
        let s = space();
        let words: Vec<NodeId> = s.nodes_of(NodeType::Word).collect();
        assert_eq!(words.len(), 7);
        assert_eq!(words[0], NodeId(8));
        assert_eq!(words[6], NodeId(14));
    }

    #[test]
    fn labels() {
        assert_eq!(NodeType::Time.label(), "T");
        assert_eq!(NodeType::User.label(), "U");
    }

    #[test]
    fn zero_user_space() {
        let s = NodeSpace {
            n_time: 1,
            n_location: 1,
            n_word: 1,
            n_user: 0,
        };
        assert_eq!(s.len(), 3);
        assert_eq!(s.nodes_of(NodeType::User).count(), 0);
        assert_eq!(s.type_of(NodeId(2)), NodeType::Word);
    }
}
