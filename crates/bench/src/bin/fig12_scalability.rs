//! Regenerates **Fig. 12**: the scalability study on the TWEET-like
//! preset —
//!
//! * (a) running time vs number of sampled edges (×1..×4): linear,
//! * (b) strong scaling: fixed budget, threads 1..4: near-linear speedup,
//! * (c) weak scaling: budget and threads grow together: flat time,
//! * (d) preprocessing threads 1..4: hotspot detection + graph build
//!   (the data-parallel front-end; see `preprocess_scaling` for the
//!   dedicated 100k-record study).
//!
//! Run: `cargo run -p actor-bench --bin fig12_scalability --release [-- --fast]`

use std::time::Instant;

use actor_core::ActorConfig;
use benchkit::{dataset, Flags, ObsScope, ZooConfig};
use evalkit::report::Table;
use hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use mobility::GeoPoint;
use stgraph::{ActivityGraphBuilder, BuildOptions, UserGraph};

/// Fits ACTOR and returns the SGD-loop seconds (hotspots/graphs excluded,
/// matching the paper's "running time" which is the training loop).
fn train_seconds(
    corpus: &mobility::Corpus,
    train: &[mobility::RecordId],
    cfg: &ActorConfig,
) -> f64 {
    let (_, report) = actor_core::fit(corpus, train, cfg).expect("fit");
    report.train_seconds
}

fn main() {
    let _obs = ObsScope::start("fig12_scalability");
    let flags = Flags::from_env();
    println!("== Fig. 12: scalability of ACTOR on synth-tweet ==\n");

    let d = dataset(
        mobility::synth::DatasetPreset::Tweet,
        flags.seed,
        flags.fast,
    );
    let base = if flags.fast {
        ZooConfig::fast(1, flags.seed)
    } else {
        ZooConfig::standard(1, flags.seed)
    }
    .actor;
    let base_samples = base.samples_per_type() * 7;

    // (a) edge-sample scaling, single thread.
    println!(
        "--- Fig. 12a: running time vs sampled edges (1 thread, base = {:.1}M samples) ---",
        base_samples as f64 / 1e6
    );
    let mut ta = Table::new(["edge multiple", "samples (M)", "seconds", "sec/base"]);
    let mut base_time = 0.0;
    for mult in 1..=4 {
        let cfg = ActorConfig {
            threads: 1,
            batches_per_type: base.batches_per_type * mult,
            ..base.clone()
        };
        let secs = train_seconds(&d.corpus, &d.split.train, &cfg);
        if mult == 1 {
            base_time = secs;
        }
        ta.row([
            format!("x{mult}"),
            format!("{:.1}", (base_samples * mult as u64) as f64 / 1e6),
            format!("{secs:.2}"),
            format!("{:.2}", secs / base_time),
        ]);
        eprintln!("12a x{mult}: {secs:.2}s");
    }
    println!("{}", ta.render());
    println!("expected: sec/base ≈ 1, 2, 3, 4 (linear in sampled edges)\n");

    // (b) strong scaling.
    println!("--- Fig. 12b: running time vs threads (fixed budget) ---");
    let mut tb = Table::new(["threads", "seconds", "speedup"]);
    let mut t1 = 0.0;
    for threads in 1..=4 {
        let cfg = ActorConfig {
            threads,
            ..base.clone()
        };
        let secs = train_seconds(&d.corpus, &d.split.train, &cfg);
        if threads == 1 {
            t1 = secs;
        }
        tb.row([
            threads.to_string(),
            format!("{secs:.2}"),
            format!("{:.2}", t1 / secs),
        ]);
        eprintln!("12b {threads} threads: {secs:.2}s");
    }
    println!("{}", tb.render());
    println!("expected: near-linear speedup (Hogwild, paper §6.5)\n");

    // (c) weak scaling.
    println!("--- Fig. 12c: threads and edges grow together ---");
    let mut tc = Table::new(["threads", "samples (M)", "seconds", "vs 1-thread"]);
    let mut w1 = 0.0;
    for threads in 1..=4 {
        let cfg = ActorConfig {
            threads,
            batches_per_type: base.batches_per_type * threads,
            ..base.clone()
        };
        let secs = train_seconds(&d.corpus, &d.split.train, &cfg);
        if threads == 1 {
            w1 = secs;
        }
        tc.row([
            threads.to_string(),
            format!("{:.1}", (base_samples * threads as u64) as f64 / 1e6),
            format!("{secs:.2}"),
            format!("{:.2}", secs / w1),
        ]);
        eprintln!("12c {threads} threads: {secs:.2}s");
    }
    println!("{}", tc.render());
    println!("expected: roughly constant time (good weak scaling, paper §6.5)\n");

    // (d) preprocessing threads: the data-parallel front-end (hotspot
    // detection + graph build) ahead of any SGD sample.
    println!("--- Fig. 12d: preprocessing time vs threads (detect + build) ---");
    let points: Vec<GeoPoint> = d
        .split
        .train
        .iter()
        .map(|&id| d.corpus.record(id).location)
        .collect();
    let seconds: Vec<f64> = d
        .split
        .train
        .iter()
        .map(|&id| d.corpus.record(id).second_of_day())
        .collect();
    let mut td = Table::new(["threads", "seconds", "speedup"]);
    let mut p1 = 0.0;
    for threads in 1..=4 {
        let guard = par::override_threads(threads);
        let t0 = Instant::now();
        let spatial = SpatialHotspots::detect(&points, MeanShiftParams::with_bandwidth(0.01), 3);
        let temporal =
            TemporalHotspots::detect(&seconds, MeanShiftParams::with_bandwidth(1800.0), 3);
        let builder =
            ActivityGraphBuilder::new(&d.corpus, &spatial, &temporal, BuildOptions::default());
        let (graph, _) = builder.build(&d.split.train);
        let _users = UserGraph::build(&d.corpus, &d.split.train);
        let secs = t0.elapsed().as_secs_f64();
        drop(guard);
        if threads == 1 {
            p1 = secs;
        }
        td.row([
            threads.to_string(),
            format!("{secs:.2}"),
            format!("{:.2}", p1 / secs.max(1e-9)),
        ]);
        eprintln!(
            "12d {threads} threads: {secs:.2}s ({} edges)",
            graph.n_edges()
        );
    }
    println!("{}", td.render());
    println!("expected: near-linear speedup with identical outputs (determinism suite)");
}
