//! Checkpointed and resumable fitting — the resilience driver.
//!
//! [`fit_checkpointed`] runs Algorithm 1 exactly like [`crate::fit`], but
//! cuts the SGD loop (lines 5–11) into segments at the cadence of a
//! [`CheckpointPolicy`] and seals an atomic, CRC-verified snapshot of the
//! embedding store after every segment. [`fit_resume`] restarts an
//! interrupted run from the newest intact snapshot, walking backwards
//! past truncated or bit-flipped files, and replays the remaining
//! segments with the same per-segment seeds — a single-threaded resumed
//! run is bit-identical to the uninterrupted checkpointed run.
//!
//! The driver also watches each segment's mean loss with a
//! [`DivergenceDetector`]: on divergence it restores the newest
//! checkpoint and retries the segment with the learning rate backed off
//! per [`RetryPolicy`], failing with [`FitError::Diverged`] once the
//! budget is exhausted. Stages 1–4 (hotspots, graphs, pre-training,
//! init) are deterministic given `(corpus, config)` and are re-derived on
//! resume rather than restored. A checkpoint is nevertheless a complete
//! model file (see [`crate::persist`]): its payload is the artifacts
//! metadata, encoded once per run, followed by the embedding store
//! (`[n][dim][centers][contexts]`), so any checkpoint opens with
//! [`TrainedModel::load`].

use std::path::PathBuf;

use embed::EmbeddingStore;
use mobility::{Corpus, RecordId};
use resilience::{
    CheckpointError, CheckpointMeta, CheckpointPolicy, CheckpointStore, DivergenceDetector,
    FaultPlan, RetryPolicy, Verdict,
};

use crate::config::ActorConfig;
use crate::error::FitError;
use crate::model::TrainedModel;
use crate::persist;
use crate::pipeline::{train_epoch_range, FitReport, FitRun};

/// Where and how a resilient fit checkpoints, retries, and (in tests)
/// fails on purpose.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Directory the checkpoint files live in (created on first write).
    pub dir: PathBuf,
    /// Snapshot cadence. A disabled policy still writes the epoch-0 seed
    /// checkpoint and one final checkpoint, so divergence recovery and
    /// post-crash resume always have a restore target.
    pub policy: CheckpointPolicy,
    /// Divergence backoff budget.
    pub retry: RetryPolicy,
    /// Optional deterministic fault plan; a run consults
    /// [`FaultPlan::should_fail`] at every segment boundary *after*
    /// sealing that boundary's checkpoint, simulating a worker dying
    /// mid-run without losing the snapshot.
    pub fault: Option<FaultPlan>,
    /// Divergence detector override. `None` derives the absolute ceiling
    /// from the config: a fully saturated update costs
    /// ≈ `(1 + negatives)·16.1` nats (the sigmoid table clamps at
    /// σ = 1e-7), and a segment mean halfway to saturation means the
    /// model is pinned, not learning.
    pub divergence: Option<DivergenceDetector>,
}

impl ResilienceOptions {
    /// Default policies rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            policy: CheckpointPolicy::default(),
            retry: RetryPolicy::default(),
            fault: None,
            divergence: None,
        }
    }
}

/// What the resilience machinery did during one (attempted) fit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Checkpoints sealed, including the epoch-0 seed checkpoint.
    pub checkpoints_written: usize,
    /// The checkpoint this run resumed from, when [`fit_resume`] found
    /// an intact one.
    pub resumed_from: Option<CheckpointMeta>,
    /// Checkpoint restores performed after divergence verdicts.
    pub restores: u32,
    /// Divergence retries spent.
    pub retries: u32,
    /// Learning-rate scale in effect when training finished (`1.0`
    /// unless divergence backoff shrank it).
    pub final_lr_scale: f32,
}

/// [`crate::fit`] with checkpointing, divergence backoff, and fault
/// injection. Starts from scratch: stale checkpoints in
/// [`ResilienceOptions::dir`] are cleared first so a fresh run can never
/// restore another run's state.
pub fn fit_checkpointed(
    corpus: &Corpus,
    train_ids: &[RecordId],
    config: &ActorConfig,
    opts: &ResilienceOptions,
) -> Result<(TrainedModel, FitReport, ResilienceReport), FitError> {
    run_resilient(corpus, train_ids, config, opts, false)
}

/// Resumes an interrupted [`fit_checkpointed`] run from the newest intact
/// checkpoint in [`ResilienceOptions::dir`], then trains the remaining
/// epochs under the same policies. Falls back to a from-scratch run when
/// no usable checkpoint exists (none written yet, all corrupt, or written
/// under a different seed).
pub fn fit_resume(
    corpus: &Corpus,
    train_ids: &[RecordId],
    config: &ActorConfig,
    opts: &ResilienceOptions,
) -> Result<(TrainedModel, FitReport, ResilienceReport), FitError> {
    run_resilient(corpus, train_ids, config, opts, true)
}

/// Weighted samples one training epoch performs: each of the
/// `batches_per_type` rounds draws a `7·batch_size` weighted budget (one
/// `batch_size` batch per meta-graph edge type).
pub(crate) fn samples_per_epoch(config: &ActorConfig) -> u64 {
    7 * config.batch_size as u64 * config.batches_per_type as u64
}

/// Seals and fsyncs snapshots on a background thread so the (disk-bound)
/// checkpoint write overlaps the next training segment instead of
/// stalling it. Writes are serialized — submitting joins the previous
/// write first — and the driver joins explicitly before anything that
/// needs the file on disk: a divergence restore, a simulated worker
/// death, or returning to the caller. A failed write therefore surfaces
/// (as [`FitError::Checkpoint`]) at the next submit/join instead of the
/// moment it happened.
struct AsyncWriter {
    store: CheckpointStore,
    pending: Option<std::thread::JoinHandle<Result<(), CheckpointError>>>,
}

impl AsyncWriter {
    fn new(store: CheckpointStore) -> Self {
        Self {
            store,
            pending: None,
        }
    }

    /// Lands the in-flight write, if any.
    fn join(&mut self) -> Result<(), FitError> {
        if let Some(handle) = self.pending.take() {
            handle
                .join()
                .map_err(|_| CheckpointError::Io {
                    context: "join checkpoint writer".to_string(),
                    detail: "writer thread panicked".to_string(),
                })?
                .map_err(FitError::Checkpoint)?;
        }
        Ok(())
    }

    /// Queues one snapshot write; `payload` is the caller's own copy of
    /// the store (taken on the training thread, so the segment that
    /// follows cannot race with the serialization).
    fn submit(&mut self, meta: CheckpointMeta, payload: bytes::Bytes) -> Result<(), FitError> {
        self.join()?;
        let store = self.store.clone();
        self.pending = Some(std::thread::spawn(move || {
            store.write(&meta, &payload).map(|_| ())
        }));
        Ok(())
    }
}

fn run_resilient(
    corpus: &Corpus,
    train_ids: &[RecordId],
    config: &ActorConfig,
    opts: &ResilienceOptions,
    resume: bool,
) -> Result<(TrainedModel, FitReport, ResilienceReport), FitError> {
    let mut run = FitRun::start(corpus, train_ids, config)?;
    let prep = &mut run.prep;

    let ckpts = CheckpointStore::new(&opts.dir, opts.policy.keep);
    if !resume {
        ckpts.clear();
    }
    let spe = samples_per_epoch(config);
    // Segment length in epochs; a disabled policy trains in one segment.
    let interval = opts
        .policy
        .interval_epochs(spe)
        .unwrap_or(config.max_epochs)
        .max(1);
    let written_counter = obs::counter("core.resilience.checkpoints");
    let restored_counter = obs::counter("core.resilience.restores");

    let mut report = ResilienceReport {
        final_lr_scale: 1.0,
        ..ResilienceReport::default()
    };
    let mut epoch = 0usize;
    let mut lr_scale = 1.0f32;

    if resume {
        if let Some((meta, payload)) = ckpts.latest_valid() {
            // A checkpoint from a different seed or a longer schedule is
            // another run's state — ignore it and start fresh.
            if meta.seed == config.seed && (meta.epoch as usize) <= config.max_epochs {
                prep.store = persist::store_for_run(payload, &prep.artifacts)?;
                epoch = meta.epoch as usize;
                lr_scale = meta.lr_scale;
                report.resumed_from = Some(meta);
                restored_counter.incr();
            }
        }
    }

    let mut writer = AsyncWriter::new(ckpts.clone());
    let artifacts = persist::encode_artifacts(&prep.artifacts);
    let write_checkpoint =
        |writer: &mut AsyncWriter, epoch: usize, lr_scale: f32, store: &EmbeddingStore| {
            let meta = CheckpointMeta {
                epoch: epoch as u64,
                samples: epoch as u64 * spe,
                seed: config.seed,
                lr_scale,
            };
            writer.submit(meta, persist::payload(&artifacts, store))
        };

    // Seed checkpoint: divergence recovery and post-crash resume have a
    // restore target even if the very first segment blows up.
    if report.resumed_from.is_none() {
        write_checkpoint(&mut writer, 0, lr_scale, &prep.store)?;
        report.checkpoints_written += 1;
        written_counter.incr();
    }

    let mut detector = opts.divergence.clone().unwrap_or_else(|| {
        let ceiling = (1 + config.negatives) as f64 * 16.1 * 0.5;
        DivergenceDetector::new(4.0, ceiling)
    });
    let mut attempt = 0u32;
    let train = obs::span!("core.fit.train");
    while epoch < config.max_epochs {
        let seg_end = (epoch + interval).min(config.max_epochs);
        // Snapshot the trace so a diverged (and retried) segment does not
        // pollute the loss curve with its blown-up updates.
        let trace_before = run.trace.clone();
        let stats = train_epoch_range(prep, config, epoch, seg_end, lr_scale, &mut run.trace);
        // A segment with zero updates (degenerate split) reports a mean
        // loss of 0.0; feeding that to the detector would poison its
        // best-loss window, so treat it as trivially healthy.
        let verdict = if stats.updates == 0 {
            Verdict::Healthy
        } else {
            detector.observe(stats.mean_loss)
        };
        match verdict {
            Verdict::Healthy => {
                epoch = seg_end;
                write_checkpoint(&mut writer, epoch, lr_scale, &prep.store)?;
                report.checkpoints_written += 1;
                written_counter.incr();
                if let Some(plan) = &opts.fault {
                    let samples = epoch as u64 * spe;
                    if plan.should_fail(samples) {
                        // Land the boundary snapshot before simulating the
                        // death: a real SIGKILL can only lose work *after*
                        // the last completed write.
                        writer.join()?;
                        return Err(FitError::Interrupted { epoch, samples });
                    }
                }
            }
            Verdict::Diverged(_) => {
                attempt += 1;
                let Some(scale) = opts.retry.scale_for_attempt(attempt) else {
                    return Err(FitError::Diverged {
                        epoch,
                        retries: opts.retry.max_retries,
                    });
                };
                lr_scale = scale;
                run.trace = trace_before;
                // The restore target may still be in flight on the writer
                // thread; land it before reading the directory.
                writer.join()?;
                let Some((meta, payload)) = ckpts.latest_valid() else {
                    return Err(FitError::Checkpoint(CheckpointError::Io {
                        context: "restore after divergence".to_string(),
                        detail: "no intact checkpoint".to_string(),
                    }));
                };
                prep.store = persist::store_for_run(payload, &prep.artifacts)?;
                epoch = meta.epoch as usize;
                report.restores += 1;
                report.retries += 1;
                restored_counter.incr();
            }
        }
    }
    writer.join()?;
    report.final_lr_scale = lr_scale;
    let (model, fit_report) = run.finish(train);
    Ok((model, fit_report, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PersistError;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("actor-resilient-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_setup(seed: u64) -> (Corpus, Vec<RecordId>, ActorConfig) {
        let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(seed)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let mut config = ActorConfig::fast();
        config.seed = seed;
        config.threads = 1;
        (corpus, split.train, config)
    }

    fn centers_of(model: &TrainedModel) -> Vec<f32> {
        (0..model.space().len())
            .flat_map(|i| model.store().centers.row(i).to_vec())
            .collect()
    }

    #[test]
    fn checkpointed_fit_writes_cadenced_snapshots() {
        let (corpus, train, mut config) = small_setup(31);
        config.max_epochs = 6;
        let dir = tmp_dir("cadence");
        let mut opts = ResilienceOptions::new(&dir);
        opts.policy = CheckpointPolicy::every_epochs(2);
        let (_, fit_report, res) = fit_checkpointed(&corpus, &train, &config, &opts).unwrap();
        // Seed checkpoint + epochs 2, 4, 6.
        assert_eq!(res.checkpoints_written, 4);
        assert_eq!(res.retries, 0);
        assert_eq!(res.final_lr_scale, 1.0);
        assert_eq!(fit_report.loss_trace.len(), 20);
        let ckpts = CheckpointStore::new(&dir, opts.policy.keep);
        let (meta, _) = ckpts.latest_valid().unwrap();
        assert_eq!(meta.epoch, 6);
        assert_eq!(meta.samples, 6 * samples_per_epoch(&config));
        assert_eq!(meta.seed, config.seed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_segment_checkpointed_fit_matches_plain_fit_exactly() {
        // A disabled policy trains epochs [0, max) as one segment with
        // the historical seed, so the model must be bit-identical to
        // crate::fit's.
        let (corpus, train, config) = small_setup(32);
        let dir = tmp_dir("identity");
        let mut opts = ResilienceOptions::new(&dir);
        opts.policy = CheckpointPolicy::disabled();
        let (plain, _) = crate::pipeline::fit(&corpus, &train, &config).unwrap();
        let (ckpt, _, _) = fit_checkpointed(&corpus, &train, &config, &opts).unwrap();
        assert_eq!(centers_of(&plain), centers_of(&ckpt));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_worker_failure_interrupts_at_a_checkpoint_boundary() {
        let (corpus, train, mut config) = small_setup(33);
        config.max_epochs = 6;
        let dir = tmp_dir("interrupt");
        let mut opts = ResilienceOptions::new(&dir);
        opts.policy = CheckpointPolicy::every_epochs(2);
        let spe = samples_per_epoch(&config);
        opts.fault = Some(FaultPlan::new(9).with_worker_failure_after(3 * spe));
        let err = fit_checkpointed(&corpus, &train, &config, &opts).err();
        // 3 epochs of samples are first surpassed at the epoch-4 boundary.
        assert_eq!(
            err,
            Some(FitError::Interrupted {
                epoch: 4,
                samples: 4 * spe
            })
        );
        // The boundary checkpoint was sealed before the simulated death.
        let ckpts = CheckpointStore::new(&dir, opts.policy.keep);
        assert_eq!(ckpts.latest_valid().unwrap().0.epoch, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_continues_from_the_interruption() {
        let (corpus, train, mut config) = small_setup(34);
        config.max_epochs = 6;
        let dir = tmp_dir("resume");
        let mut opts = ResilienceOptions::new(&dir);
        opts.policy = CheckpointPolicy::every_epochs(2);
        let spe = samples_per_epoch(&config);
        opts.fault = Some(FaultPlan::new(9).with_worker_failure_after(3 * spe));
        assert!(fit_checkpointed(&corpus, &train, &config, &opts).is_err());

        let mut resume_opts = opts.clone();
        resume_opts.fault = None;
        let (resumed, _, res) = fit_resume(&corpus, &train, &config, &resume_opts).unwrap();
        assert_eq!(res.resumed_from.unwrap().epoch, 4);

        // Single-threaded, the resumed model is bit-identical to an
        // uninterrupted checkpointed run (same segments, same seeds).
        let dir2 = tmp_dir("resume-ref");
        let mut ref_opts = resume_opts.clone();
        ref_opts.dir = dir2.clone();
        let (uninterrupted, _, _) = fit_checkpointed(&corpus, &train, &config, &ref_opts).unwrap();
        assert_eq!(centers_of(&resumed), centers_of(&uninterrupted));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn resume_with_no_checkpoints_starts_fresh() {
        let (corpus, train, mut config) = small_setup(35);
        config.max_epochs = 2;
        let dir = tmp_dir("fresh");
        let opts = ResilienceOptions::new(&dir);
        let (_, _, res) = fit_resume(&corpus, &train, &config, &opts).unwrap();
        assert!(res.resumed_from.is_none());
        assert!(res.checkpoints_written >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_ignores_checkpoints_from_another_seed() {
        let (corpus, train, mut config) = small_setup(36);
        config.max_epochs = 2;
        let dir = tmp_dir("foreign-seed");
        let opts = ResilienceOptions::new(&dir);
        fit_checkpointed(&corpus, &train, &config, &opts).unwrap();
        let mut other = config.clone();
        other.seed = config.seed + 1;
        let (_, _, res) = fit_resume(&corpus, &train, &other, &opts).unwrap();
        assert!(res.resumed_from.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_undecodable_checkpoint_is_a_persist_error() {
        let (corpus, train, mut config) = small_setup(39);
        config.max_epochs = 2;
        let dir = tmp_dir("undecodable");
        let opts = ResilienceOptions::new(&dir);
        // Intact envelope (the CRC passes), payload that is not a model.
        let meta = CheckpointMeta {
            epoch: 1,
            samples: samples_per_epoch(&config),
            seed: config.seed,
            lr_scale: 1.0,
        };
        CheckpointStore::new(&dir, opts.policy.keep)
            .write(&meta, b"not a model")
            .unwrap();
        let err = fit_resume(&corpus, &train, &config, &opts).err();
        assert!(
            matches!(err, Some(FitError::Persist(PersistError::Truncated { .. }))),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_checkpoint_of_another_width() {
        let (corpus, train, mut config) = small_setup(40);
        config.max_epochs = 2;
        let dir = tmp_dir("other-width");
        let opts = ResilienceOptions::new(&dir);
        fit_checkpointed(&corpus, &train, &config, &opts).unwrap();
        config.dim /= 2;
        let err = fit_resume(&corpus, &train, &config, &opts).err();
        assert!(
            matches!(
                err,
                Some(FitError::Persist(PersistError::Inconsistent { .. }))
            ),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn divergent_training_backs_off_and_recovers() {
        let (corpus, train, mut config) = small_setup(37);
        config.max_epochs = 4;
        // An absurd learning rate with clipping off pins the loss at a
        // saturated plateau (≈ 6 nats/update, the sigmoid table clamp)
        // that a healthy run never approaches — the tightened ceiling
        // below catches it. Pre-training is disabled so the blow-up
        // happens inside the (retryable) SGD loop, not in stage 3.
        config.learning_rate = 500.0;
        config.grad_clip = 0.0;
        config.use_inter = false;
        let dir = tmp_dir("diverge");
        let mut opts = ResilienceOptions::new(&dir);
        opts.policy = CheckpointPolicy::every_epochs(1);
        opts.divergence = Some(DivergenceDetector::new(4.0, 4.0));
        opts.retry = RetryPolicy {
            max_retries: 8,
            backoff: 0.001,
            min_scale: 1e-6,
        };
        let (model, _, res) = fit_checkpointed(&corpus, &train, &config, &opts).unwrap();
        assert!(res.retries > 0, "{res:?}");
        assert_eq!(res.restores, res.retries);
        assert!(res.final_lr_scale < 1.0);
        for i in 0..model.space().len() {
            assert!(model.store().centers.row(i).iter().all(|x| x.is_finite()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_error() {
        let (corpus, train, mut config) = small_setup(38);
        config.max_epochs = 2;
        config.learning_rate = 500.0;
        config.grad_clip = 0.0;
        config.use_inter = false;
        let dir = tmp_dir("exhaust");
        let mut opts = ResilienceOptions::new(&dir);
        opts.policy = CheckpointPolicy::every_epochs(1);
        opts.divergence = Some(DivergenceDetector::new(4.0, 4.0));
        // Backoff barely backs off, so every retry diverges again.
        opts.retry = RetryPolicy {
            max_retries: 2,
            backoff: 0.999,
            min_scale: 0.9,
        };
        let err = fit_checkpointed(&corpus, &train, &config, &opts).err();
        assert!(
            matches!(err, Some(FitError::Diverged { retries: 2, .. })),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
