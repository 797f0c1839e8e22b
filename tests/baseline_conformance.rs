//! Every Table 2 method satisfies the evaluation contract.

use actor_st::baselines::{
    train_crossmap, train_lgta, train_line, train_metapath2vec, train_mgtm, BaselineParams,
    CrossMapVariant, LgtaParams, LineVariant, MetapathParams, MgtmParams, Substrate,
};
use actor_st::embed::EmbeddingStore;
use actor_st::prelude::*;

fn zoo(seed: u64) -> (Corpus, CorpusSplit, Vec<Box<dyn CrossModalModel>>) {
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(seed)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    let cfg = ActorConfig::fast();
    let substrate = Substrate::build(&corpus, &split.train, &cfg);
    let params = BaselineParams::fast();

    let mut models: Vec<Box<dyn CrossModalModel>> = Vec::with_capacity(8);
    models.push(Box::new(train_lgta(
        &corpus,
        &split.train,
        &cfg,
        &LgtaParams {
            n_topics: 10,
            iterations: 6,
            seed,
            ..Default::default()
        },
    )));
    models.push(Box::new(train_mgtm(
        &corpus,
        &split.train,
        &cfg,
        &MgtmParams {
            n_topics: 10,
            iterations: 6,
            ..Default::default()
        },
    )));
    models.push(Box::new(train_metapath2vec(
        &corpus,
        &substrate,
        &MetapathParams::default(),
        &params,
    )));
    models.push(Box::new(train_line(
        &corpus,
        &substrate,
        LineVariant::Plain,
        &params,
    )));
    models.push(Box::new(train_line(
        &corpus,
        &substrate,
        LineVariant::WithUsers,
        &params,
    )));
    models.push(Box::new(train_crossmap(
        &corpus,
        &substrate,
        CrossMapVariant::Plain,
        &params,
    )));
    models.push(Box::new(train_crossmap(
        &corpus,
        &substrate,
        CrossMapVariant::WithUsers,
        &params,
    )));
    let (actor, _) = fit(&corpus, &split.train, &cfg).unwrap();
    models.push(Box::new(actor));
    (corpus, split, models)
}

#[test]
fn all_methods_produce_finite_scores_on_every_task() {
    let (corpus, split, models) = zoo(200);
    let r = corpus.record(split.test[0]).clone();
    for m in &models {
        let sl = m.score_location(r.timestamp, &r.keywords, r.location);
        let st = m.score_time(r.location, &r.keywords, r.timestamp);
        let sx = m.score_text(r.timestamp, r.location, &r.keywords);
        for (task, s) in [("location", sl), ("time", st), ("text", sx)] {
            assert!(s.is_finite(), "{} {task} score not finite: {s}", m.name());
        }
    }
}

#[test]
fn topic_models_report_no_time_support() {
    let (_, _, models) = zoo(201);
    let names_no_time: Vec<&str> = models
        .iter()
        .filter(|m| !m.supports_time())
        .map(|m| m.name())
        .collect();
    assert_eq!(names_no_time, vec!["LGTA", "MGTM"]);
}

#[test]
fn embedding_methods_clear_the_random_floor_on_location() {
    let (corpus, split, models) = zoo(202);
    let params = EvalParams {
        max_queries: 60,
        ..EvalParams::default()
    };
    for m in &models {
        let mrr = evaluate_mrr(
            m.as_ref(),
            &corpus,
            &split.test,
            PredictionTask::Location,
            &params,
        );
        // Random ≈ 0.2745 on 11 candidates; even the weakest method must
        // beat a constant scorer's 1/11 and approach the random floor.
        assert!(mrr > 0.2, "{} location MRR {mrr}", m.name());
    }
}

#[test]
fn method_names_match_table2_rows() {
    let (_, _, models) = zoo(203);
    let names: Vec<&str> = models.iter().map(|m| m.name()).collect();
    assert_eq!(
        names,
        vec![
            "LGTA",
            "MGTM",
            "metapath2vec",
            "LINE",
            "LINE(U)",
            "CrossMap",
            "CrossMap(U)",
            "ACTOR"
        ]
    );
}

/// FNV-1a over the raw bits of every center and context row.
fn store_fingerprint(store: &EmbeddingStore) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for matrix in [&store.centers, &store.contexts] {
        for i in 0..matrix.n_rows() {
            for x in matrix.row(i) {
                for byte in x.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    hash
}

/// A small fixed-seed substrate and `threads = 1` baseline parameters, so
/// every SGD update lands in one deterministic order.
fn golden_substrate() -> (Corpus, Substrate, BaselineParams) {
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(20140801)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    let substrate = Substrate::build(&corpus, &split.train, &ActorConfig::fast());
    let params = BaselineParams {
        threads: 1,
        ..BaselineParams::fast()
    };
    (corpus, substrate, params)
}

#[test]
fn line_matches_the_golden_fingerprint() {
    let (corpus, substrate, params) = golden_substrate();
    let line = train_line(&corpus, &substrate, LineVariant::Plain, &params);
    assert_eq!(store_fingerprint(line.model().store()), 8957262254395996153);
}

#[test]
fn metapath2vec_matches_the_golden_fingerprint() {
    let (corpus, substrate, params) = golden_substrate();
    let mp = train_metapath2vec(&corpus, &substrate, &MetapathParams::default(), &params);
    assert_eq!(store_fingerprint(mp.model().store()), 6156511567175481678);
}
