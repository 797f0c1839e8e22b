//! End-to-end integration: data → hotspots → graphs → ACTOR → evaluation.

use actor_st::prelude::*;

fn setup(seed: u64) -> (Corpus, CorpusSplit) {
    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(seed)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    (corpus, split)
}

#[test]
fn actor_beats_the_random_baseline_on_all_tasks() {
    let (corpus, split) = setup(100);
    let mut config = ActorConfig::fast();
    config.max_epochs = 40;
    let (model, _) = fit(&corpus, &split.train, &config).unwrap();
    // Random ranking over 11 candidates gives MRR ≈ 0.2745; a trained
    // model must clear it decisively on text/location and beat it on time.
    let params = EvalParams::default();
    let text = evaluate_mrr(&model, &corpus, &split.test, PredictionTask::Text, &params);
    let loc = evaluate_mrr(
        &model,
        &corpus,
        &split.test,
        PredictionTask::Location,
        &params,
    );
    let time = evaluate_mrr(&model, &corpus, &split.test, PredictionTask::Time, &params);
    // Thresholds sit well above the floor but below full-budget scores —
    // this is a 3k-record corpus trained with the fast config.
    assert!(text > 0.4, "text MRR {text}");
    assert!(loc > 0.32, "location MRR {loc}");
    assert!(time > 0.28, "time MRR {time}");
}

#[test]
fn fit_report_is_consistent_with_model() {
    let (corpus, split) = setup(101);
    let (model, report) = fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();
    assert_eq!(model.spatial_hotspots().len(), report.n_spatial);
    assert_eq!(model.temporal_hotspots().len(), report.n_temporal);
    assert_eq!(model.space().len(), report.n_nodes);
    assert!(report.train_seconds > 0.0);
    assert!(report.total_seconds >= report.train_seconds);
}

#[test]
fn single_thread_fit_is_deterministic() {
    let (corpus, split) = setup(102);
    let mut config = ActorConfig::fast();
    config.threads = 1;
    config.max_epochs = 5;
    let (a, _) = fit(&corpus, &split.train, &config).unwrap();
    let (b, _) = fit(&corpus, &split.train, &config).unwrap();
    let params = EvalParams::default();
    let ma = evaluate_mrr(&a, &corpus, &split.test, PredictionTask::Text, &params);
    let mb = evaluate_mrr(&b, &corpus, &split.test, PredictionTask::Text, &params);
    assert_eq!(ma, mb);
    // Identical vectors, not just identical metrics.
    let n = a.space().len();
    for i in (0..n).step_by(97) {
        assert_eq!(a.store().centers.row(i), b.store().centers.row(i));
    }
}

#[test]
fn different_seeds_give_different_models() {
    let (corpus, split) = setup(103);
    let mut c1 = ActorConfig::fast();
    c1.max_epochs = 5;
    let mut c2 = c1.clone();
    c2.seed ^= 0xFFFF;
    let (a, _) = fit(&corpus, &split.train, &c1).unwrap();
    let (b, _) = fit(&corpus, &split.train, &c2).unwrap();
    assert_ne!(a.store().centers.row(0), b.store().centers.row(0));
}

#[test]
fn evaluation_never_sees_training_candidates() {
    // Queries draw noise exclusively from the test split.
    let (corpus, split) = setup(104);
    let queries = actor_st::eval::tasks::build_queries(&split.test, &EvalParams::default());
    let test_set: std::collections::HashSet<_> = split.test.iter().copied().collect();
    for q in &queries {
        assert!(test_set.contains(&q.record));
        for nid in &q.noise {
            assert!(test_set.contains(nid));
        }
    }
    let _ = corpus;
}
