//! `actor-serve` — online query serving for trained ACTOR models.
//!
//! Training (`actor-core`) produces a [`actor_core::TrainedModel`]; this
//! crate turns one into a *service*: a [`QueryEngine`] that answers
//! cross-modal what/where/when queries concurrently, at interactive
//! latency, while new model generations stream in behind it.
//!
//! The moving parts, bottom-up:
//!
//! * [`hnsw`] — a from-scratch HNSW approximate-nearest-neighbor index
//!   over unit vectors (cosine via dot product), with an exact linear-scan
//!   fallback ([`hnsw::exact_top_k`]) that doubles as the conformance
//!   reference.
//! * [`snapshot`] — an immutable [`Snapshot`]: shared model artifacts +
//!   frozen raw/normalized rows + one index per modality. Small modalities
//!   stay exact; large ones get HNSW ([`IndexParams::ann_threshold`]).
//!   Snapshots build from scratch ([`Snapshot::build`]) or incrementally
//!   from the previous snapshot plus a dirty-row delta
//!   ([`Snapshot::apply_delta`]), re-inserting only the drifted nodes into
//!   the HNSW graphs.
//! * [`swap`] — [`SnapshotCell`], a hot-swap cell (the ArcSwap idea,
//!   hand-rolled from a mutex around an `Arc`): queries clone the current
//!   snapshot under a brief lock; publishes swap a new one in without
//!   stalling in-flight readers.
//! * [`cache`] — a sharded LRU keyed by the request resolved to hotspot
//!   and word nodes, looked up before any query vector is built; the
//!   snapshot epoch lives in the key, so hot-swaps invalidate for free.
//! * [`query`] / [`engine`] — the typed request/response API and the
//!   [`QueryEngine`] tying it all together. The engine implements
//!   [`actor_core::ModelSink`] — both the full and the delta form — so
//!   a caller of `fit` or `OnlineActor::attach_sink` can publish straight
//!   into it, and streaming updaters pay only for the rows they touched.
//!
//! ```no_run
//! use serve::{QueryEngine, QueryRequest};
//! # fn demo(model: actor_core::TrainedModel) {
//! let engine = QueryEngine::with_defaults(&model);
//! let answer = engine
//!     .query(&QueryRequest::keyword("beach", 10))
//!     .unwrap();
//! for (word, score) in &answer.words {
//!     println!("{word}: {score:.3}");
//! }
//! # }
//! ```

pub mod cache;
pub mod engine;
pub mod hnsw;
pub mod query;
pub mod snapshot;
pub mod swap;
pub mod testkit;

pub use cache::QueryCache;
pub use engine::{EngineParams, EngineStats, QueryEngine};
pub use hnsw::{HnswIndex, SearchScratch};
pub use query::{ModalityMask, QueryError, QueryKind, QueryRequest, QueryResponse};
pub use snapshot::{IndexParams, Snapshot};
pub use swap::SnapshotCell;
