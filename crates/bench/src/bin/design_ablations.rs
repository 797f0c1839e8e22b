//! Design-choice ablations beyond the paper's Table 4 — the decisions
//! DESIGN.md §2 calls out, each swept against test MRR on the
//! UTGEO2011-like preset:
//!
//! * embedding dimension `d` (the paper fixes d = 300),
//! * the negative-sampling degree exponent (the paper prints `d_v^4`;
//!   this reproduction reads it as the word2vec ¾ power — the sweep
//!   shows why the choice matters),
//! * learning-rate annealing on/off,
//! * spatial hotspot bandwidth (granularity of the `L` vertices).
//!
//! Run: `cargo run -p actor-bench --bin design_ablations --release [-- --fast]`

use actor_core::ActorConfig;
use benchkit::{dataset, Flags, ZooConfig};
use evalkit::report::{fmt_mrr, Table};
use evalkit::{evaluate_mrr, EvalParams, PredictionTask};
use mobility::synth::DatasetPreset;

fn eval_config(
    d: &benchkit::Dataset,
    config: &ActorConfig,
    seed: u64,
) -> (f64, f64, f64, actor_core::FitReport) {
    let (model, report) = actor_core::fit(&d.corpus, &d.split.train, config).expect("fit");
    let params = EvalParams {
        seed: seed ^ 0xE7A1,
        ..EvalParams::default()
    };
    let mrr = |task| evaluate_mrr(&model, &d.corpus, &d.split.test, task, &params);
    (
        mrr(PredictionTask::Text),
        mrr(PredictionTask::Location),
        mrr(PredictionTask::Time),
        report,
    )
}

fn main() {
    let flags = Flags::from_env();
    println!("== Design ablations (beyond Table 4) on synth-utgeo2011 ==\n");
    let d = dataset(DatasetPreset::Utgeo2011, flags.seed, flags.fast);
    let base = if flags.fast {
        ZooConfig::fast(flags.threads, flags.seed)
    } else {
        ZooConfig::standard(flags.threads, flags.seed)
    }
    .actor;

    // 1. Embedding dimension.
    println!("--- dimension sweep (paper uses d = 300) ---");
    let mut t = Table::new(["d", "Text", "Location", "Time", "train s"]);
    for dim in [32usize, 64, 128, 256] {
        let cfg = ActorConfig {
            dim,
            ..base.clone()
        };
        let (tx, lo, ti, rep) = eval_config(&d, &cfg, flags.seed);
        t.row([
            dim.to_string(),
            fmt_mrr(tx),
            fmt_mrr(lo),
            fmt_mrr(ti),
            format!("{:.1}", rep.train_seconds),
        ]);
        eprintln!("dim {dim} done");
    }
    println!("{}", t.render());

    // 2. Negative-sampling degree exponent.
    println!("--- noise-distribution exponent (P(v) ∝ d_v^p) ---");
    let mut t = Table::new(["p", "Text", "Location", "Time"]);
    for p in [0.0f64, 0.5, 0.75, 1.0] {
        let cfg = ActorConfig {
            negative_power: p,
            ..base.clone()
        };
        let (tx, lo, ti, _) = eval_config(&d, &cfg, flags.seed);
        t.row([format!("{p}"), fmt_mrr(tx), fmt_mrr(lo), fmt_mrr(ti)]);
        eprintln!("power {p} done");
    }
    println!("{}", t.render());
    println!("expected: 0.5-0.75 best; the paper's literal d_v^4 would be an\nextreme version of p=1 (oversampling hubs).\n");

    // 3. Learning-rate annealing.
    println!("--- learning-rate annealing ---");
    let mut t = Table::new(["anneal", "Text", "Location", "Time"]);
    for anneal in [true, false] {
        let cfg = ActorConfig {
            anneal,
            ..base.clone()
        };
        let (tx, lo, ti, _) = eval_config(&d, &cfg, flags.seed);
        t.row([anneal.to_string(), fmt_mrr(tx), fmt_mrr(lo), fmt_mrr(ti)]);
        eprintln!("anneal {anneal} done");
    }
    println!("{}", t.render());

    // 4. Hierarchical-initialization scale (Algorithm 1 line 4).
    println!("--- hierarchical init scale (unit ← scale × user vector) ---");
    let mut t = Table::new(["init_scale", "Text", "Location", "Time"]);
    for scale in [0.0f32, 0.25, 0.5, 1.0] {
        let cfg = ActorConfig {
            init_scale: scale,
            ..base.clone()
        };
        let (tx, lo, ti, _) = eval_config(&d, &cfg, flags.seed);
        t.row([format!("{scale}"), fmt_mrr(tx), fmt_mrr(lo), fmt_mrr(ti)]);
        eprintln!("init_scale {scale} done");
    }
    println!("{}", t.render());

    // 5. Spatial hotspot bandwidth (granularity of L vertices).
    println!("--- spatial bandwidth (hotspot granularity) ---");
    let mut t = Table::new(["bandwidth", "#spatial", "Text", "Location", "Time"]);
    for bw in [0.004f64, 0.008, 0.016, 0.032] {
        let cfg = ActorConfig {
            spatial_bandwidth: bw,
            ..base.clone()
        };
        let (tx, lo, ti, rep) = eval_config(&d, &cfg, flags.seed);
        t.row([
            format!("{bw}"),
            rep.n_spatial.to_string(),
            fmt_mrr(tx),
            fmt_mrr(lo),
            fmt_mrr(ti),
        ]);
        eprintln!("bandwidth {bw} done");
    }
    println!("{}", t.render());
    println!("expected: too-coarse hotspots merge distinct venues, too-fine ones\nstarve each vertex of training signal; the default sits between.");
}
