//! Publish-path latency: full snapshot rebuild vs incremental delta apply.
//!
//! Measures the cost of making a model generation servable, two ways:
//!
//! 1. **Full rebuild** — `Snapshot::build`: copy + normalize every row,
//!    rebuild every HNSW graph from scratch.
//! 2. **Delta apply** — `Snapshot::apply_delta`: reuse the previous
//!    snapshot's buffers, re-normalize only the dirty rows, re-insert only
//!    the drifted nodes into the per-modality HNSW graphs.
//!
//! Both paths are timed at 0.1%, 1%, and 10% dirty fractions over a
//! synthetic clustered model. The full run (12k nodes/modality) asserts
//! the acceptance bar: delta apply at ≤ 1% dirty is ≥ 10× faster
//! than a full rebuild.
//!
//! Run: `cargo run -p actor-bench --release --bin publish_latency [-- --fast]`

use std::time::{Duration, Instant};

use actor_core::{StoreDelta, TrainedModel};
use benchkit::{Flags, ObsScope};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serve::snapshot::{IndexParams, Snapshot};
use serve::testkit::synthetic_model;

/// Drifts `rows` random center rows of `model` and returns the delta
/// covering exactly those rows.
fn drift_rows(model: &mut TrainedModel, rows: usize, rng: &mut StdRng) -> StoreDelta {
    let n = model.space().len();
    let mut delta = StoreDelta::default();
    for _ in 0..rows {
        let i = rng.random_range(0..n);
        delta.centers.push(i as u32);
        let drifted: Vec<f32> = model
            .store()
            .centers
            .row(i)
            .iter()
            .map(|&x| x + rng.random_range(-0.05f32..0.05))
            .collect();
        model.store_mut().centers.set_row(i, &drifted);
    }
    delta.centers.sort_unstable();
    delta.centers.dedup();
    delta
}

fn main() {
    let _obs = ObsScope::start("publish_latency");
    let flags = Flags::from_env();
    let (n, dim, reps) = if flags.fast { (2_000, 32, 2) } else { (12_000, 64, 5) };
    println!(
        "== publish_latency: {n} nodes/modality, dim {dim}{} ==",
        if flags.fast { " (fast)" } else { "" }
    );

    let mut rng = StdRng::seed_from_u64(flags.seed);
    let t0 = Instant::now();
    let mut model = synthetic_model(n, dim, flags.seed);
    let total = model.space().len();
    println!("model built in {:.2}s ({total} nodes total)", t0.elapsed().as_secs_f64());

    let params = IndexParams::default();
    let t0 = Instant::now();
    let mut snap = Snapshot::build(&model, &params, 1);
    let base_build = t0.elapsed();
    println!("baseline full build: {:.1} ms", base_build.as_secs_f64() * 1e3);

    for &fraction in &[0.001f64, 0.01, 0.1] {
        let rows = ((total as f64 * fraction) as usize).max(1);
        let mut delta_total = Duration::ZERO;
        let mut build_total = Duration::ZERO;
        let mut dirty_rows = 0usize;
        for _ in 0..reps {
            let delta = drift_rows(&mut model, rows, &mut rng);
            dirty_rows += delta.dirty_rows();

            let t0 = Instant::now();
            let next = Snapshot::apply_delta(&snap, &model, &delta, &params, snap.epoch() + 1);
            delta_total += t0.elapsed();

            let t0 = Instant::now();
            let rebuilt = Snapshot::build(&model, &params, snap.epoch() + 1);
            build_total += t0.elapsed();
            drop(rebuilt);
            snap = next;
        }
        let delta_ms = delta_total.as_secs_f64() * 1e3 / reps as f64;
        let build_ms = build_total.as_secs_f64() * 1e3 / reps as f64;
        let speedup = build_ms / delta_ms.max(1e-9);
        println!(
            "  {:>5.1}% dirty ({:>5} rows/publish): delta apply {delta_ms:>8.2} ms  full rebuild {build_ms:>8.2} ms  speedup {speedup:>6.1}x",
            fraction * 100.0,
            dirty_rows / reps,
        );
        // Acceptance bar (full run only): ≤ 1% dirty must be ≥ 10× faster
        // than rebuilding from scratch.
        if !flags.fast && fraction <= 0.01 {
            assert!(
                speedup >= 10.0,
                "delta apply at {:.1}% dirty only {speedup:.1}x faster than full rebuild",
                fraction * 100.0
            );
        }
    }
    println!("publish_latency: all assertions passed");
}
