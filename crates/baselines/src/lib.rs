//! Baseline spatiotemporal activity models (paper §6.1.2).
//!
//! Every method of Table 2 other than ACTOR itself:
//!
//! | Method        | Family | Module |
//! |---------------|--------|--------|
//! | LGTA \[17\]     | geographical topic model (EM) | [`topics::lgta`] |
//! | MGTM \[16\]     | geographical topic model (multi-Dirichlet, Gibbs-free simplification) | [`topics::mgtm`] |
//! | metapath2vec \[25\] | heterogeneous random-walk embedding | [`metapath`] |
//! | LINE \[24\]     | homogeneous edge embedding | [`line_family`] |
//! | LINE(U)       | LINE on the user-augmented activity graph | [`line_family`] |
//! | CrossMap \[7\]  | cross-modal co-occurrence + neighborhood smoothing | [`crossmap`] |
//! | CrossMap(U)   | CrossMap with auxiliary user vertices | [`crossmap`] |
//!
//! All embedding baselines share ACTOR's substrate (same hotspots, same
//! activity graph, same cosine scoring) so Table 2 differences come from
//! the *training objective*, not from preprocessing luck. Topic models
//! score by log-likelihood instead.

pub mod crossmap;
pub mod line_family;
pub mod metapath;
pub mod params;
pub mod substrate;
pub mod topics;
pub mod wrapper;

pub use crossmap::{train_crossmap, CrossMapVariant};
pub use line_family::{train_line, LineVariant};
pub use metapath::{train_metapath2vec, MetapathParams};
pub use params::BaselineParams;
pub use substrate::Substrate;
pub use topics::lgta::{train_lgta, LgtaModel, LgtaParams};
pub use topics::mgtm::{train_mgtm, MgtmModel, MgtmParams};
pub use wrapper::EmbeddingBaseline;
