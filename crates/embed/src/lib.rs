//! Negative-sampling SGD embedding engine (paper §5.2.2–5.2.3).
//!
//! The ACTOR objective is optimized exactly as in LINE/word2vec: sample an
//! edge, treat one endpoint as the *center* and the other as the
//! *context*, push the center's vector toward the context's context-vector
//! and away from `K` noise vectors (Eq. 7), with the closed-form gradients
//! of Eqs. 8–10 and the asynchronous (Hogwild, \[45\]) update scheme of
//! Eqs. 12–14.
//!
//! Crate layout:
//!
//! * [`math`] — f32 vector kernels (dot with a fixed 16-lane summation
//!   order, cosine, axpy, the fused SGD pair update),
//! * [`sigmoid`] — the precomputed σ lookup table word2vec uses, with
//!   the loss logarithms of each slot,
//! * [`store`] — center/context matrices with lock-free shared mutation
//!   behind an explicit Hogwild contract,
//! * [`sgd`] — the negative-sampling update, one kernel
//!   ([`NegativeSamplingUpdate::step_drawn`], on pre-drawn negatives;
//!   `step_bag` draws them first, and a plain pair step is its one-row
//!   case). It holds the only three racy row writes in the
//!   workspace: the positive context row, each negative context row, and
//!   each center-bag row.
//! * [`plan`] — [`StepPlan`], a batch of steps drawn ahead of their
//!   application and applied through the same kernel, with row prefetch.
//! * [`mod@line`] — LINE (first/second order) for arbitrary weighted graphs:
//!   the user-layer pre-trainer of Algorithm 1 line 3 and the LINE
//!   baseline of Table 2.
//!
//! Trainers split their sample budget over threads with
//! `par::run_seeded`, the workspace's one thread driver, which hands each
//! shard its own seeded RNG.

pub mod line;
pub mod math;
pub mod plan;
pub mod sgd;
pub mod sigmoid;
pub mod store;

pub use line::{LineOrder, LineParams, LineTrainer};
pub use plan::StepPlan;
pub use sgd::{annealed, NegativeSamplingUpdate, SgdParams};
pub use store::{EmbeddingStore, Matrix, NormalizedRows};
