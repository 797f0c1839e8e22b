//! End-to-end resilience acceptance tests (ISSUE: resilience layer).
//!
//! Everything here drives the *public* facade: a seeded [`FaultPlan`]
//! injects the failure, and the test proves the pipeline recovers to the
//! same quality as a clean run — interrupted training resumes from the
//! last sealed checkpoint, a torn checkpoint write falls back to the
//! previous snapshot, every checkpoint loads as a model, and corrupt TSV
//! ingest skips exactly the lines the injection manifest says it
//! corrupted.

use std::path::PathBuf;

use actor_st::mobility::io::{parse_tsv_lenient, LenientPolicy, SkipReason};
use actor_st::mobility::IngestError;
use actor_st::prelude::*;
use actor_st::resilience::{CheckpointStore, InjectedFaultKind};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("actor-resilience-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small single-threaded setup: the resumed-vs-uninterrupted comparison
/// relies on `threads = 1` making segment replay bit-deterministic.
fn setup(seed: u64) -> (Corpus, CorpusSplit, ActorConfig) {
    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(seed)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    let mut config = ActorConfig::fast();
    config.seed = seed;
    config.threads = 1;
    config.max_epochs = 6;
    (corpus, split, config)
}

fn samples_per_epoch(config: &ActorConfig) -> u64 {
    // One round is 7 weighted batches (one per meta-graph edge type).
    7 * config.batch_size as u64 * config.batches_per_type as u64
}

#[test]
fn killed_run_resumes_and_matches_uninterrupted_quality() {
    let (corpus, split, config) = setup(71);
    let dir = tmp_dir("kill-resume");
    let mut opts = ResilienceOptions::new(&dir);
    opts.policy = CheckpointPolicy::every_epochs(2);
    let spe = samples_per_epoch(&config);

    // Kill the worker once 3 epochs of samples have passed: the driver
    // notices at the next checkpoint boundary (epoch 4), *after* sealing
    // that snapshot.
    opts.fault = Some(FaultPlan::new(9).with_worker_failure_after(3 * spe));
    let err = fit_checkpointed(&corpus, &split.train, &config, &opts).err();
    assert!(
        matches!(
            err,
            Some(actor_st::core::FitError::Interrupted { epoch: 4, .. })
        ),
        "expected an epoch-4 boundary interruption, got {err:?}"
    );

    // Resume from the sealed checkpoint and finish the run.
    let mut resume_opts = opts.clone();
    resume_opts.fault = None;
    let (resumed, _, res) = fit_resume(&corpus, &split.train, &config, &resume_opts).unwrap();
    assert_eq!(res.resumed_from.unwrap().epoch, 4);

    // Reference: the same run, never interrupted.
    let dir2 = tmp_dir("kill-resume-ref");
    let mut ref_opts = resume_opts.clone();
    ref_opts.dir = dir2.clone();
    let (clean, _, _) = fit_checkpointed(&corpus, &split.train, &config, &ref_opts).unwrap();

    let params = EvalParams::default();
    let task = PredictionTask::Location;
    let mrr_resumed = evaluate_mrr(&resumed, &corpus, &split.test, task, &params);
    let mrr_clean = evaluate_mrr(&clean, &corpus, &split.test, task, &params);
    assert!(mrr_resumed > 0.0 && mrr_clean > 0.0);
    // Acceptance bound: resumed quality within 5% of the clean run. With
    // one thread the replayed segments are bit-identical, so in practice
    // the two MRRs are *equal*; the bound guards the contract.
    assert!(
        (mrr_resumed - mrr_clean).abs() <= 0.05 * mrr_clean,
        "resumed MRR {mrr_resumed} departs from clean MRR {mrr_clean}"
    );
    assert!((mrr_resumed - mrr_clean).abs() < 1e-12);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn truncated_newest_checkpoint_falls_back_to_the_previous_one() {
    let (corpus, split, config) = setup(72);
    let dir = tmp_dir("torn-write");
    let mut opts = ResilienceOptions::new(&dir);
    opts.policy = CheckpointPolicy::every_epochs(2);
    let spe = samples_per_epoch(&config);
    opts.fault = Some(FaultPlan::new(5).with_worker_failure_after(3 * spe));
    assert!(fit_checkpointed(&corpus, &split.train, &config, &opts).is_err());

    // Simulate a torn write: truncate the newest snapshot (epoch 4) so
    // its CRC no longer verifies.
    let ckpts = CheckpointStore::new(&dir, opts.policy.keep);
    let files = ckpts.list();
    let (newest_epoch, newest_path) = files.last().unwrap();
    assert_eq!(*newest_epoch, 4);
    FaultPlan::new(5).truncate_file(newest_path, 0.5).unwrap();

    // Resume walks past the corrupt file to the epoch-2 snapshot and
    // still completes the run.
    let mut resume_opts = opts.clone();
    resume_opts.fault = None;
    let (model, _, res) = fit_resume(&corpus, &split.train, &config, &resume_opts).unwrap();
    assert_eq!(res.resumed_from.unwrap().epoch, 2);

    let r = corpus.record(split.test[0]);
    assert!(model
        .score_location(r.timestamp, &r.keywords, r.location)
        .is_finite());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_newest_checkpoint_loads_as_the_returned_model() {
    let (corpus, split, config) = setup(73);
    let dir = tmp_dir("load-checkpoint");
    let mut opts = ResilienceOptions::new(&dir);
    opts.policy = CheckpointPolicy::every_epochs(2);
    let (model, _, _) = fit_checkpointed(&corpus, &split.train, &config, &opts).unwrap();

    // A checkpoint is a model file: the final one opens with the plain
    // model loader and holds exactly the returned embeddings.
    let (epoch, newest) = CheckpointStore::new(&dir, opts.policy.keep)
        .list()
        .pop()
        .unwrap();
    assert_eq!(epoch, config.max_epochs as u64);
    let loaded = TrainedModel::load(&newest).unwrap();
    assert_eq!(loaded.space(), model.space());
    let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for i in 0..model.space().len() {
        assert_eq!(
            bits(loaded.store().centers.row(i)),
            bits(model.store().centers.row(i))
        );
        assert_eq!(
            bits(loaded.store().contexts.row(i)),
            bits(model.store().contexts.row(i))
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean, fully parseable `user \t ts \t lat \t lon \t text` corpus.
fn clean_tsv(lines: usize) -> String {
    let words = [
        "espresso", "harbor", "sunset", "museum", "ramen", "kayak", "festival", "library",
        "garden", "market",
    ];
    let mut out = String::from("# synthetic resilience corpus\n");
    for i in 0..lines {
        let w1 = words[i % words.len()];
        let w2 = words[(i / words.len() + 3) % words.len()];
        out.push_str(&format!(
            "user{}\t{}\t{:.4}\t{:.4}\t{} {} downtown\n",
            i % 37,
            1_400_000_000u64 + i as u64 * 3600,
            33.0 + (i % 200) as f64 * 0.01,
            -118.5 + (i % 300) as f64 * 0.01,
            w1,
            w2,
        ));
    }
    out
}

fn reason_for(kind: InjectedFaultKind) -> SkipReason {
    match kind {
        InjectedFaultKind::MissingField => SkipReason::MissingField,
        InjectedFaultKind::BadTimestamp => SkipReason::BadTimestamp,
        InjectedFaultKind::NonFiniteCoordinate => SkipReason::NonFiniteCoordinate,
        InjectedFaultKind::OutOfRangeCoordinate => SkipReason::OutOfRangeCoordinate,
        InjectedFaultKind::EmptyText => SkipReason::NoKeywords,
    }
}

#[test]
fn lenient_ingest_skip_counts_match_the_injection_manifest() {
    const LINES: usize = 4000;
    let clean = clean_tsv(LINES);
    let (dirty, manifest) = FaultPlan::new(17).corrupt_tsv(&clean, 0.005);
    assert!(
        manifest.len() >= 5,
        "seed 17 injected only {} faults",
        manifest.len()
    );

    let policy = LenientPolicy {
        max_bad_fraction: 0.01,
        grace_lines: 1000,
        quarantine_cap: 64,
    };
    let (corpus, report) = parse_tsv_lenient("dirty", &dirty, &policy).unwrap();

    // Exactly the injected lines were skipped — nothing more, nothing
    // less — and each landed under the reason its fault kind predicts.
    assert_eq!(report.skipped(), manifest.len());
    assert_eq!(report.parsed, LINES - manifest.len());
    assert_eq!(corpus.len(), LINES - manifest.len());
    for kind in InjectedFaultKind::ALL {
        let expected = manifest.iter().filter(|f| f.kind == kind).count();
        assert_eq!(
            report.count(reason_for(kind)),
            expected,
            "count mismatch for {kind:?}"
        );
    }
    assert_eq!(report.count(SkipReason::BadCoordinate), 0);
}

#[test]
fn lenient_ingest_rejects_systematically_broken_input() {
    let clean = clean_tsv(4000);
    let (dirty, manifest) = FaultPlan::new(17).corrupt_tsv(&clean, 0.05);
    assert!(manifest.len() > 100);

    // 5% corruption against a 1% budget: fail loudly, don't decimate.
    let err = parse_tsv_lenient("dirty", &dirty, &LenientPolicy::default());
    assert!(matches!(
        err,
        Err(IngestError::BudgetExceeded { bad, seen, .. }) if bad > 0 && seen >= bad
    ));
}
