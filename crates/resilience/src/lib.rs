//! `actor-resilience` — the fault-tolerance layer of the ACTOR stack.
//!
//! Production ingestion is continuous and dirty: streams carry malformed
//! lines, disks lose power mid-write, and a multi-hour training run must
//! not restart from zero because one worker died. This crate provides the
//! mechanisms the rest of the workspace threads through its pipeline:
//!
//! * **Checkpoints** ([`checkpoint`]) — an opaque payload sealed into a
//!   small envelope (magic, cursor metadata, length prefix, CRC-32
//!   trailer), written atomically (temp file + fsync + rename) by
//!   [`write_sealed`], and a [`CheckpointStore`] that retains the newest
//!   `keep` and on recovery walks newest→oldest skipping anything
//!   truncated or bit-flipped. The envelope is the workspace's one
//!   persisted format: `actor-core` saves trained models in it too.
//! * **Policies** ([`policy`], [`retry`]) — [`CheckpointPolicy`] decides
//!   *when* to snapshot (every N epochs or every T samples);
//!   [`RetryPolicy`] bounds how often and how hard a diverged training
//!   run backs off its learning rate before giving up.
//! * **Divergence detection** ([`divergence`]) — a small state machine
//!   over per-segment mean losses that flags non-finite values, losses
//!   above an absolute ceiling, and loss explosions relative to the best
//!   window seen so far.
//! * **Fault injection** ([`fault`]) — a seeded, deterministic
//!   [`FaultPlan`] that flips envelope bytes, truncates checkpoint
//!   files, injects malformed TSV lines, and triggers a simulated worker
//!   failure at a chosen sample count. The integration suite
//!   (`tests/resilience.rs` at the workspace root) uses it to prove that
//!   fit-under-faults recovers to the same quality as a clean run.
//!
//! The crate depends on the standard library alone (mirroring
//! `actor-obs`), so every layer — `mobility`, `embed`, `core`, `bench` —
//! can use it without cycles. See `docs/RESILIENCE.md` for the file
//! format and the recovery state machine.

pub mod checkpoint;
pub mod crc;
pub mod divergence;
pub mod fault;
pub mod policy;
pub mod retry;

pub use checkpoint::{
    open_checkpoint, seal_checkpoint, write_sealed, CheckpointError, CheckpointMeta,
    CheckpointStore,
};
pub use crc::crc32;
pub use divergence::{DivergenceDetector, DivergenceReason, Verdict};
pub use fault::{FaultPlan, InjectedFault, InjectedFaultKind};
pub use policy::CheckpointPolicy;
pub use retry::RetryPolicy;
