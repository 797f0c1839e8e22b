//! Measures the telemetry cost on the Hogwild hot loop: times LINE
//! training (the tightest instrumented loop — per-step counter batching
//! in `embed::sgd` plus the per-1024-sample flush in `embed::line`) on a
//! synthetic ring graph and prints throughput. Comparing this binary
//! against a build with the counters stubbed out bounds the obs overhead
//! (acceptance bar: ≤ 2 %).
//!
//! Run: `cargo run -p actor-bench --bin obs_overhead --release [samples] [threads]`

use std::time::Instant;

use embed::{LineOrder, LineParams, LineTrainer, SgdParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let samples: u64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000_000);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    // A 1000-vertex ring with chords: big enough that the alias tables
    // don't sit in L1 artificially, small enough to build instantly.
    let n = 1000u32;
    let mut edges = Vec::with_capacity(n as usize * 4);
    for i in 0..n {
        for d in 1..=4 {
            edges.push((i, (i + d) % n, 1.0));
        }
    }
    let trainer = LineTrainer::new(n as usize, &edges).expect("non-empty graph");

    println!("LINE second-order, dim 64, {samples} samples, {threads} threads");
    for round in 0..3 {
        let t = Instant::now();
        trainer.train(LineParams {
            dim: 64,
            samples,
            threads,
            sgd: SgdParams::default(),
            order: LineOrder::Second,
            seed: 7,
        });
        let secs = t.elapsed().as_secs_f64();
        println!(
            "round {round}: {secs:.3}s  ({:.2} M samples/s)",
            samples as f64 / secs / 1e6
        );
    }
    let steps = obs::counter("embed.sgd.steps").value();
    println!("embed.sgd.steps counted: {steps}");
}
