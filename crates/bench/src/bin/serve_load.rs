//! Load generator for the `actor-serve` query engine.
//!
//! Two phases:
//!
//! 1. **Index benchmark** — ANN (HNSW) vs brute-force top-10 over a
//!    synthetic clustered model, per modality: recall@10 and speedup.
//! 2. **Concurrent load** — worker threads fire a skewed mix of spatial /
//!    temporal / keyword / composite queries at one engine while a
//!    publisher hot-swaps fresh snapshots underneath them; reports QPS,
//!    latency percentiles (from the `serve.query.latency_us` obs
//!    histogram), cache hit rate, and asserts zero query failures.
//!
//! Run: `cargo run -p actor-bench --release --bin serve_load [-- --fast]`
//! (also `--threads N` load workers, default 4, and `--seed N`).
//!
//! `--fast` shrinks the corpus and duration for CI; the full run (~12k
//! nodes per modality) additionally asserts the acceptance bar:
//! ANN ≥ 10× faster than exact at recall@10 ≥ 0.95.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use actor_core::TrainedModel;
use benchkit::Flags;
use mobility::GeoPoint;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serve::hnsw::SearchScratch;
use serve::snapshot::Snapshot;
use serve::testkit::{probe_near, synthetic_model};
use serve::{EngineParams, QueryEngine, QueryRequest};
use stgraph::NodeType;

/// Phase 1: recall@10 and latency of ANN vs exact, per modality.
fn index_benchmark(
    model: &TrainedModel,
    snap: &Snapshot,
    n: usize,
    probes: usize,
    seed: u64,
    full: bool,
) {
    println!("-- phase 1: ANN vs brute force (top-10, {probes} probes/modality) --");
    let mut scratch = SearchScratch::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = snap.normalized().dim();
    for ty in [NodeType::Word, NodeType::Time, NodeType::Location] {
        let offset = snap.artifacts().space().offset(ty) as usize;
        // Pre-build normalized probe vectors near indexed rows.
        let queries: Vec<Vec<f32>> = (0..probes)
            .map(|i| {
                let raw = probe_near(model, offset + (i * 131) % n, 0.05, &mut rng);
                let mut unit = vec![0.0f32; dim];
                embed::math::normalize_into(&raw, &mut unit);
                unit
            })
            .collect();

        // Warm up, then time each path.
        let _ = snap.top_k(ty, &queries[0], 10, None, &mut scratch);
        let t0 = Instant::now();
        let ann: Vec<Vec<_>> = queries
            .iter()
            .map(|q| snap.top_k(ty, q, 10, None, &mut scratch))
            .collect();
        let ann_time = t0.elapsed();
        let t0 = Instant::now();
        let exact: Vec<Vec<_>> = queries
            .iter()
            .map(|q| snap.top_k_exact(ty, q, 10, &mut scratch))
            .collect();
        let exact_time = t0.elapsed();

        let mut hit = 0usize;
        let mut total = 0usize;
        for (a, e) in ann.iter().zip(&exact) {
            total += e.len();
            hit += e
                .iter()
                .filter(|(id, _)| a.iter().any(|(aid, _)| aid == id))
                .count();
        }
        let recall = hit as f64 / total.max(1) as f64;
        let speedup = exact_time.as_secs_f64() / ann_time.as_secs_f64().max(1e-12);
        println!(
            "  {ty:?}: ann={} us/query  exact={} us/query  speedup={speedup:.1}x  recall@10={recall:.3}",
            ann_time.as_micros() / probes as u128,
            exact_time.as_micros() / probes as u128,
        );
        assert!(
            recall >= 0.95,
            "{ty:?} recall@10 {recall:.3} below the 0.95 bar"
        );
        if full {
            assert!(
                speedup >= 10.0,
                "{ty:?} ANN speedup {speedup:.1}x below the 10x bar at n={n}"
            );
        }
    }
}

/// Phase 2: concurrent mixed load with a hot-swapping publisher.
fn load_benchmark(
    engine: Arc<QueryEngine>,
    model: &TrainedModel,
    n: usize,
    flags: &Flags,
    duration: Duration,
) {
    println!(
        "-- phase 2: {} workers, publisher swapping every 250 ms, {} ms --",
        flags.threads,
        duration.as_millis()
    );
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut publishes = 0u64;

    let answered: u64 = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..flags.threads as u64 {
            let engine = engine.clone();
            let stop = stop.clone();
            let seed = flags.seed ^ (t + 1);
            workers.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Square the draw for a skewed (cacheable) workload.
                    let u: f64 = rng.random::<f64>();
                    let i = ((u * u) * n as f64) as usize % n;
                    let req = match answered % 4 {
                        0 => QueryRequest::spatial(
                            GeoPoint::new(33.5 + (i % 97) as f64 * 0.01, -118.4),
                            10,
                        ),
                        1 => QueryRequest::temporal((i * 7919 % 86_400) as f64, 10),
                        2 => QueryRequest::keyword(format!("word{:05}", i), 10),
                        _ => QueryRequest::composite(
                            Some((i * 3571 % 86_400) as f64),
                            Some(GeoPoint::new(33.9, -118.1)),
                            vec![format!("word{:05}", i)],
                        )
                        .with_k(10),
                    };
                    // Acceptance bar: zero failures while snapshots swap.
                    engine.query(&req).expect("query failed under load");
                    answered += 1;
                }
                answered
            }));
        }

        // Publisher: rebuild + hot-swap on a fixed cadence.
        while started.elapsed() < duration {
            std::thread::sleep(Duration::from_millis(250).min(duration / 4));
            engine.publish(model);
            publishes += 1;
        }
        stop.store(true, Ordering::Relaxed);
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });

    let elapsed = started.elapsed().as_secs_f64();
    let stats = engine.stats();
    assert_eq!(stats.publishes, publishes);
    assert_eq!(stats.epoch, 1 + publishes);
    assert!(publishes >= 1, "load window too short to exercise hot-swap");

    let hist = obs::snapshot()
        .histograms
        .into_iter()
        .find(|h| h.name == "serve.query.latency_us")
        .expect("engine records query latency");
    println!(
        "  answered={answered} qps={:.0} p50={}us p95={}us p99={}us max={}us",
        answered as f64 / elapsed,
        hist.p50,
        hist.p95,
        hist.p99,
        hist.max
    );
    println!(
        "  cache: {} hits / {} misses ({:.1}% hit rate)  publishes={publishes}  final epoch={}",
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.cache_hits as f64 / stats.queries.max(1) as f64,
        stats.epoch
    );
    assert!(stats.cache_hits > 0, "skewed workload should hit the cache");
}

fn main() {
    let flags = Flags::from_env();
    let (n, dim, probes, duration) = if flags.fast {
        (2_500, 32, 50, Duration::from_millis(600))
    } else {
        (12_000, 64, 200, Duration::from_secs(3))
    };
    println!(
        "== serve_load: {n} nodes/modality, dim {dim}{} ==",
        if flags.fast { " (fast)" } else { "" }
    );

    let t0 = Instant::now();
    let model = synthetic_model(n, dim, flags.seed);
    println!("model built in {:.2}s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let engine = Arc::new(QueryEngine::new(&model, EngineParams::default()));
    let snap = engine.snapshot();
    println!(
        "snapshot + HNSW indexes built in {:.2}s (ANN: words={} times={} places={})",
        t0.elapsed().as_secs_f64(),
        snap.is_ann(NodeType::Word),
        snap.is_ann(NodeType::Time),
        snap.is_ann(NodeType::Location),
    );
    assert!(
        snap.is_ann(NodeType::Word),
        "corpus must exceed ANN threshold"
    );

    index_benchmark(&model, &snap, n, probes, flags.seed ^ 0xBEEF, !flags.fast);
    drop(snap);
    load_benchmark(engine, &model, n, &flags, duration);
    println!("serve_load: all assertions passed");
}
