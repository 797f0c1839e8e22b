//! Integration tests for the streaming (online) extension.

use actor_st::core::{OnlineActor, OnlineParams};
use actor_st::prelude::*;

fn fitted(seed: u64) -> (Corpus, CorpusSplit, actor_st::core::TrainedModel) {
    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(seed)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    let (model, _) = fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();
    (corpus, split, model)
}

#[test]
fn streaming_the_validation_split_does_not_destroy_the_model() {
    let (corpus, split, model) = fitted(500);
    let params = EvalParams::default();
    let before = evaluate_mrr(
        &model,
        &corpus,
        &split.test,
        PredictionTask::Location,
        &params,
    );

    let mut online = OnlineActor::new(model, OnlineParams::default());
    for &rid in &split.valid {
        online.observe(corpus.record(rid));
    }
    let model = online.into_model();
    let after = evaluate_mrr(
        &model,
        &corpus,
        &split.test,
        PredictionTask::Location,
        &params,
    );
    // In-distribution streaming must not collapse accuracy; allow modest
    // drift in either direction.
    assert!(
        after > before - 0.08,
        "online updates destroyed the model: {before:.4} -> {after:.4}"
    );
    // And the embeddings stay finite.
    for i in (0..model.space().len()).step_by(97) {
        assert!(model.store().centers.row(i).iter().all(|x| x.is_finite()));
    }
}

#[test]
fn online_then_save_then_load_round_trips() {
    let (corpus, split, model) = fitted(501);
    let mut online = OnlineActor::new(model, OnlineParams::default());
    for &rid in split.valid.iter().take(50) {
        online.observe(corpus.record(rid));
    }
    let model = online.into_model();
    let path =
        std::env::temp_dir().join(format!("actor-online-model-{}.ackpt", std::process::id()));
    model.save(&path).unwrap();
    let loaded = actor_st::core::TrainedModel::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let r = corpus.record(split.test[0]);
    assert_eq!(
        model.score_location(r.timestamp, &r.keywords, r.location),
        loaded.score_location(r.timestamp, &r.keywords, r.location)
    );
}

#[test]
fn observe_is_deterministic_per_seed() {
    let (corpus, split, model) = fitted(502);
    let run = |model: actor_st::core::TrainedModel| {
        let mut online = OnlineActor::new(model, OnlineParams::default());
        for &rid in split.valid.iter().take(30) {
            online.observe(corpus.record(rid));
        }
        let m = online.into_model();
        m.store().centers.row(0).to_vec()
    };
    // Re-fit to get two identical starting models (fit is deterministic
    // single-threaded).
    let (_, _, model2) = fitted(502);
    assert_eq!(run(model), run(model2));
}
