//! Graph substrate of the ACTOR reproduction (paper §4).
//!
//! Two graphs are constructed from raw mobile data:
//!
//! * the heterogeneous **activity graph** (Definition 1) over spatial,
//!   temporal, and textual units (plus user vertices for the `(U)`
//!   variants), with edge types `TL/LW/WT/WW/UT/UW/UL` weighted by
//!   co-occurrence counts;
//! * the homogeneous **user interaction graph** (Definition 2) weighted by
//!   mention counts.
//!
//! On top of them this crate provides O(1) weighted edge sampling via
//! alias tables ([`alias`]), degree^¾ negative tables ([`sampler`]), CSR
//! adjacency per edge type ([`adjacency`]), and the meta-graph schemes
//! `M0..M6` of Fig. 3b ([`metagraph`]). [`EdgeTables`] is the one
//! typed-edge draw (an oriented edge of a type plus the noise table of its
//! context side) that ACTOR and the CrossMap baseline both train from.

pub mod adjacency;
pub mod alias;
pub mod build;
pub mod edge;
pub mod graph;
pub mod metagraph;
pub mod node;
pub mod sampler;
pub mod usergraph;

pub use alias::AliasTable;
pub use build::{ActivityGraphBuilder, BuildOptions};
pub use edge::EdgeType;
pub use graph::ActivityGraph;
pub use metagraph::{MetaGraph, UnitSet};
pub use node::{NodeId, NodeSpace, NodeType};
pub use sampler::{EdgeSampler, EdgeTables, NegativeTable, NEGATIVE_POWER};
pub use usergraph::UserGraph;
