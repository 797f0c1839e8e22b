//! ACTOR: spatiotemporal activity modeling via hierarchical cross-modal
//! embedding — the paper's primary contribution (§5).
//!
//! The pipeline (Algorithm 1):
//!
//! 1. detect spatial and temporal hotspots with mean-shift (line 1),
//! 2. construct the activity graph and the user interaction graph (line 2),
//! 3. pre-train the user interaction graph with LINE (line 3),
//! 4. initialize every activity-graph unit from its strongest user's
//!    pre-trained embedding (line 4),
//! 5. alternate negative-sampling SGD over the inter-record
//!    (`M_inter = {UT, UW, UL}`) and intra-record
//!    (`M_intra = {TL, LW, WT, WW}`) meta-graph edge types (lines 5–11),
//!    with the intra-record textual side represented by the *sum* of the
//!    record's keyword embeddings (footnote 4).
//!
//! The result is a [`TrainedModel`] mapping every spatial, temporal, and
//! textual unit (plus users) into one latent space where cross-modal
//! cosine similarity answers the activity / location / time prediction
//! queries of §3.

pub mod ablation;
pub mod config;
pub mod error;
pub mod model;
pub mod online;
pub mod persist;
pub mod pipeline;
pub mod publish;
pub mod resilient;

pub use ablation::Variant;
pub use config::ActorConfig;
pub use embed::StoreDelta;
pub use error::{ConfigError, FitError, PersistError};
pub use model::{ModelArtifacts, TrainedModel};
pub use online::{OnlineActor, OnlineParams};
pub use pipeline::{fit, FitReport};
pub use publish::{fit_resume_with_sink, fit_with_sink, ModelSink};
pub use resilient::{fit_checkpointed, fit_resume, ResilienceOptions, ResilienceReport};
