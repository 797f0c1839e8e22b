//! Integration tests for the streaming (online) extension.

use std::sync::{Arc, Mutex};

use actor_st::core::{ModelSink, OnlineActor, OnlineParams, StoreDelta};
use actor_st::prelude::*;

fn fitted(seed: u64) -> (Corpus, CorpusSplit, TrainedModel) {
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

/// Records every cadence delta's center rows, each list closed by a
/// `u32::MAX` separator.
#[derive(Default)]
struct DeltaLog(Mutex<Vec<u32>>);

impl ModelSink for DeltaLog {
    fn publish(&self, _model: &TrainedModel) {}

    fn publish_delta(&self, _model: &TrainedModel, delta: &StoreDelta) {
        let mut log = self.0.lock().unwrap();
        log.extend(&delta.centers);
        log.push(u32::MAX);
    }
}

/// FNV-1a over every center and context row, as raw bits, after a
/// fixed-seed stream, followed by the concatenated center-row lists of
/// every cadence delta that stream published.
fn streaming_fingerprint() -> u64 {
    let (corpus, split, model) = fitted(503);
    let mut online = OnlineActor::new(model, OnlineParams::default());
    let log = Arc::new(DeltaLog::default());
    online.attach_sink(log.clone(), 7);
    for &rid in split.valid.iter().take(120) {
        online.observe(corpus.record(rid));
    }
    let model = online.into_model();
    let store = model.store();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for matrix in [&store.centers, &store.contexts] {
        for i in 0..matrix.n_rows() {
            matrix
                .row(i)
                .iter()
                .for_each(|x| eat(u64::from(x.to_bits())));
        }
    }
    let log = log.0.lock().unwrap();
    assert!(log.len() > 2 * 10, "the stream should publish deltas");
    log.iter().for_each(|&r| eat(u64::from(r)));
    hash
}

#[test]
fn streaming_matches_the_golden_fingerprint() {
    // Pins the streaming RNG draws, the step order and the rows each
    // cadence delta ships: a change to any of them shows up here.
    assert_eq!(streaming_fingerprint(), 2253234456982009278);
}
