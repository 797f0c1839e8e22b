//! Serving conformance: ANN answers against the exact reference, and
//! hot-swap correctness under concurrent load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use actor_core::{ActorConfig, OnlineActor, OnlineParams, StoreDelta};
use mobility::synth::{generate, DatasetPreset};
use mobility::{CorpusSplit, GeoPoint, SplitSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serve::hnsw::SearchScratch;
use serve::snapshot::{IndexParams, Snapshot};
use serve::testkit::{probe_near, synthetic_model};
use serve::{EngineParams, ModalityMask, QueryEngine, QueryRequest, QueryResponse};
use stgraph::{NodeId, NodeType};

/// Recall@10 of the ANN path against the brute-force reference, per
/// modality, on a corpus large enough (4096/modality) that every modality
/// crosses the default ANN threshold.
#[test]
fn ann_recall_at_10_meets_bar_per_modality() {
    let n = 4096;
    let model = synthetic_model(n, 32, 11);
    let snap = Snapshot::build(&model, &IndexParams::default(), 1);
    let mut scratch = SearchScratch::new();
    let mut rng = StdRng::seed_from_u64(12);

    for ty in [NodeType::Word, NodeType::Time, NodeType::Location] {
        assert!(snap.is_ann(ty), "{ty:?} should be ANN-indexed at n={n}");
        let offset = snap.artifacts().space().offset(ty) as usize;
        let mut hit = 0usize;
        let mut total = 0usize;
        for probe in (0..n).step_by(97) {
            let raw = probe_near(&model, offset + probe, 0.05, &mut rng);
            let mut unit = vec![0.0f32; raw.len()];
            embed::math::normalize_into(&raw, &mut unit);
            let ann: Vec<_> = snap
                .top_k(ty, &unit, 10, None, &mut scratch)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let exact = snap.top_k_exact(ty, &unit, 10, &mut scratch);
            total += exact.len();
            hit += exact.iter().filter(|(id, _)| ann.contains(id)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.95, "{ty:?} recall@10 = {recall:.3}");
    }
}

/// ANN scores are the same dot products the exact path computes — for the
/// neighbors both paths agree on, the scores must match exactly.
#[test]
fn ann_scores_equal_exact_scores_for_shared_neighbors() {
    let model = synthetic_model(4096, 16, 13);
    let snap = Snapshot::build(&model, &IndexParams::default(), 1);
    let mut scratch = SearchScratch::new();
    let mut rng = StdRng::seed_from_u64(14);
    let raw = probe_near(&model, 100, 0.05, &mut rng);
    let mut unit = vec![0.0f32; raw.len()];
    embed::math::normalize_into(&raw, &mut unit);
    let ann = snap.top_k(NodeType::Word, &unit, 10, None, &mut scratch);
    let exact = snap.top_k_exact(NodeType::Word, &unit, 10, &mut scratch);
    for (id, sim) in &ann {
        if let Some((_, esim)) = exact.iter().find(|(eid, _)| eid == id) {
            assert_eq!(sim, esim, "shared kernel must give identical scores");
        }
    }
}

/// Queries racing hot-swaps: no query may fail, panic, or observe a
/// regressing epoch, and the final epoch must account for every publish.
#[test]
fn hot_swap_under_concurrent_queries_never_fails() {
    let model = synthetic_model(256, 16, 15);
    let engine = Arc::new(QueryEngine::new(&model, EngineParams::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let publishes = 12u64;

    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..4u64 {
            let engine = engine.clone();
            let stop = stop.clone();
            workers.push(s.spawn(move || {
                let mut answered = 0u64;
                let mut last_epoch = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) || answered == 0 {
                    let req = match (t + i) % 3 {
                        0 => QueryRequest::spatial(
                            GeoPoint::new(33.6 + (i % 50) as f64 * 0.01, -118.3),
                            5,
                        ),
                        1 => QueryRequest::temporal(((i * 613) % 86_400) as f64, 5),
                        _ => QueryRequest::keyword(format!("word{:05}", (i * 37) % 256), 5),
                    };
                    let r = engine.query(&req).expect("no query may fail mid-swap");
                    assert!(
                        r.epoch >= last_epoch,
                        "epoch regressed: {} -> {}",
                        last_epoch,
                        r.epoch
                    );
                    last_epoch = r.epoch;
                    answered += 1;
                    i += 1;
                }
                answered
            }));
        }
        for _ in 0..publishes {
            engine.publish(&model);
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0);
    });

    let stats = engine.stats();
    assert_eq!(stats.publishes, publishes);
    assert_eq!(stats.epoch, 1 + publishes);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.queries);
}

/// Applies `rounds` batches of randomized streaming row updates to
/// `model`, publishing each batch through [`Snapshot::apply_delta`] on
/// top of `snap`. Returns the delta-chained snapshot.
fn stream_and_apply(
    model: &mut actor_core::TrainedModel,
    mut snap: Snapshot,
    params: &IndexParams,
    rounds: u64,
    per_round: usize,
    rng: &mut StdRng,
) -> Snapshot {
    let n = model.space().len();
    for round in 0..rounds {
        let mut delta = StoreDelta::default();
        for _ in 0..per_round {
            let i = rng.random_range(0..n);
            delta.centers.push(i as u32);
            let drifted: Vec<f32> = model
                .store()
                .centers
                .row(i)
                .iter()
                .map(|&x| x + rng.random_range(-0.3f32..0.3))
                .collect();
            model.store_mut().centers.set_row(i, &drifted);
        }
        delta.centers.sort_unstable();
        delta.centers.dedup();
        snap = Snapshot::apply_delta(&snap, model, &delta, params, snap.epoch() + 1 + round);
    }
    snap
}

/// The tentpole conformance bar: after randomized streaming updates
/// published as a chain of deltas, the delta-applied snapshot must answer
/// *identically* to a snapshot built from scratch off the final model —
/// same ids, scores within 1e-6 — in exact-scan mode, where both paths
/// are deterministic.
#[test]
fn delta_applied_snapshot_answers_identically_to_from_scratch_build() {
    let exact = IndexParams {
        ann_threshold: usize::MAX,
    };
    let mut model = synthetic_model(1024, 16, 17);
    let mut rng = StdRng::seed_from_u64(18);
    let base = Snapshot::build(&model, &exact, 1);
    let chained = stream_and_apply(&mut model, base, &exact, 5, 40, &mut rng);
    let fresh = Snapshot::build(&model, &exact, 100);

    let mut scratch = SearchScratch::new();
    for ty in [NodeType::Word, NodeType::Time, NodeType::Location] {
        let offset = fresh.artifacts().space().offset(ty) as usize;
        for probe in (0..1024).step_by(41) {
            let raw = probe_near(&model, offset + probe, 0.05, &mut rng);
            let mut unit = vec![0.0f32; raw.len()];
            embed::math::normalize_into(&raw, &mut unit);
            let a = chained.top_k(ty, &unit, 10, None, &mut scratch);
            let b = fresh.top_k(ty, &unit, 10, None, &mut scratch);
            assert_eq!(
                a.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                b.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                "{ty:?} probe {probe}: ids diverged"
            );
            for ((_, sa), (_, sb)) in a.iter().zip(&b) {
                assert!((sa - sb).abs() <= 1e-6, "{ty:?}: {sa} vs {sb}");
            }
        }
    }
}

/// The same streaming-delta chain with ANN forced on: incrementally
/// patched HNSW graphs legitimately differ from a fresh build, so the bar
/// is behavioral — every drifted node remains its own top-1 and recall
/// against the exact scan stays high.
#[test]
fn delta_patched_ann_index_stays_accurate() {
    let forced = IndexParams { ann_threshold: 0 };
    let mut model = synthetic_model(1024, 16, 19);
    let mut rng = StdRng::seed_from_u64(20);
    let base = Snapshot::build(&model, &forced, 1);
    let chained = stream_and_apply(&mut model, base, &forced, 5, 40, &mut rng);

    let mut scratch = SearchScratch::new();
    let mut hit = 0usize;
    let mut total = 0usize;
    for ty in [NodeType::Word, NodeType::Time, NodeType::Location] {
        assert!(chained.is_ann(ty));
        let offset = chained.artifacts().space().offset(ty) as usize;
        for probe in (0..1024usize).step_by(53) {
            let raw = probe_near(&model, offset + probe, 0.001, &mut rng);
            let mut unit = vec![0.0f32; raw.len()];
            embed::math::normalize_into(&raw, &mut unit);
            let ann: Vec<_> = chained
                .top_k(ty, &unit, 10, Some(200), &mut scratch)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let exact = chained.top_k_exact(ty, &unit, 10, &mut scratch);
            assert_eq!(ann[0], exact[0].0, "{ty:?} probe {probe}: lost itself");
            total += exact.len();
            hit += exact.iter().filter(|(id, _)| ann.contains(id)).count();
        }
    }
    let recall = hit as f64 / total as f64;
    assert!(recall >= 0.9, "post-delta recall@10 = {recall:.3}");
}

/// Records streamed through `OnlineActor` into an engine: once the stream
/// ends on a cadence boundary, every row the engine serves equals the live
/// model's, on the exact scan and with every modality on HNSW.
#[test]
fn streamed_deltas_keep_every_served_row_equal_to_the_model() {
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(21)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    let (model, _) = actor_core::fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();
    let (every, records) = (5, 40);
    for ann_threshold in [usize::MAX, 0] {
        let params = EngineParams {
            index: IndexParams { ann_threshold },
            ..EngineParams::default()
        };
        let engine = Arc::new(QueryEngine::new(&model, params));
        let mut online = OnlineActor::new(model.clone(), OnlineParams::default());
        online.attach_sink(engine.clone(), every);
        for &rid in split.valid.iter().chain(&split.test) {
            online.observe(corpus.record(rid));
            if online.observed() == records {
                break;
            }
        }
        assert_eq!(online.observed(), records, "the splits are too small");
        // The full publish at attach, then one delta per cadence window.
        assert_eq!(engine.stats().publishes, 1 + records / every);
        let served = engine.snapshot();
        let live = online.model();
        for i in 0..live.space().len() as u32 {
            assert_eq!(
                served.vector(NodeId(i)),
                live.vector(NodeId(i)),
                "ann_threshold {ann_threshold}: row {i}"
            );
        }
    }
}

/// The engine's ANN answers agree with a forced-exact twin engine on the
/// top result (the two engines share one model and one scoring kernel).
#[test]
fn ann_engine_and_exact_engine_agree_on_top_results() {
    let model = synthetic_model(4096, 16, 16);
    let ann = QueryEngine::new(
        &model,
        EngineParams {
            index: IndexParams { ann_threshold: 0 },
            ..EngineParams::default()
        },
    );
    let exact = QueryEngine::new(
        &model,
        EngineParams {
            index: IndexParams {
                ann_threshold: usize::MAX,
            },
            ..EngineParams::default()
        },
    );
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in (0..4096usize).step_by(257) {
        let req = QueryRequest::keyword(format!("word{i:05}"), 3);
        let a = ann.query(&req).unwrap();
        let e = exact.query(&req).unwrap();
        total += 1;
        // A keyword's own embedding must top its neighbor list either way.
        if a.words.first().map(|w| &w.0) == e.words.first().map(|w| &w.0) {
            agree += 1;
        }
    }
    assert!(
        agree as f64 / total as f64 >= 0.95,
        "top-1 agreement {agree}/{total}"
    );
}

/// Every result of a response, scores and coordinates as raw bits.
type ResponseBits = (Vec<(String, u64)>, Vec<[u64; 2]>, Vec<[u64; 3]>);

fn response_bits(r: &QueryResponse) -> ResponseBits {
    (
        r.words
            .iter()
            .map(|(w, s)| (w.clone(), s.to_bits()))
            .collect(),
        r.times
            .iter()
            .map(|(t, s)| [t.to_bits(), s.to_bits()])
            .collect(),
        r.places
            .iter()
            .map(|(p, s)| [p.lat.to_bits(), p.lon.to_bits(), s.to_bits()])
            .collect(),
    )
}

/// On an all-HNSW snapshot, the second ask of each of 210 mixed requests
/// is a cache hit, and the hit carries exactly the answer a fresh engine
/// computes on a miss: the same words, times and places, score for score
/// down to the bit. Each request has its own `(k, modalities)` pair, so no
/// two share a cache entry.
#[test]
fn cache_hits_equal_fresh_misses_bit_for_bit() {
    let model = synthetic_model(256, 16, 23);
    let params = EngineParams {
        index: IndexParams { ann_threshold: 0 },
        ..EngineParams::default()
    };
    let masks: Vec<ModalityMask> = (1u8..8)
        .map(|m| ModalityMask {
            words: m & 1 != 0,
            times: m & 2 != 0,
            places: m & 4 != 0,
        })
        .collect();
    let requests: Vec<QueryRequest> = (0..210usize)
        .map(|i| {
            let point = GeoPoint::new(
                33.5 + (i % 37) as f64 * 0.027,
                -118.5 + (i % 23) as f64 * 0.043,
            );
            let second = ((i * 4111) % 86_400) as f64;
            let word = |j: usize| format!("word{:05}", (i * 31 + j * 7) % 256);
            let req = match i % 4 {
                0 => QueryRequest::spatial(point, 0),
                1 => QueryRequest::temporal(second, 0),
                2 => QueryRequest::keyword(word(0), 0),
                _ => QueryRequest::composite(
                    (i % 3 != 1).then_some(second),
                    (i % 5 != 0).then_some(point),
                    (0..i % 3).map(word).collect(),
                ),
            };
            req.with_k(1 + i / masks.len())
                .with_modalities(masks[i % masks.len()])
        })
        .collect();

    let cached = QueryEngine::new(&model, params);
    let fresh = QueryEngine::new(&model, params);
    for req in &requests {
        let first = cached.query(req).unwrap();
        let second = cached.query(req).unwrap();
        assert!(second.from_cache, "{req:?}: the repeat must hit");
        let miss = fresh.query(req).unwrap();
        assert!(!miss.from_cache, "{req:?}: keys must be distinct");
        assert_eq!(response_bits(&first), response_bits(&miss), "{req:?}");
        assert_eq!(response_bits(&second), response_bits(&miss), "{req:?}");
    }
    assert_eq!(cached.stats().cache_hits, requests.len() as u64);
}
