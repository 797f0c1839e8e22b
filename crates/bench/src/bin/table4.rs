//! Regenerates **Table 4**: the ablation test — ACTOR w/o inter,
//! ACTOR w/o intra, and ACTOR-complete across all datasets and tasks.
//!
//! Run: `cargo run -p actor-bench --bin table4 --release [-- --fast]`

use actor_core::Variant;
use benchkit::{dataset, paper, Flags, ZooConfig};
use evalkit::report::{fmt_mrr, Table};
use evalkit::{evaluate_mrr, EvalParams, PredictionTask};
use mobility::synth::DatasetPreset;

fn main() {
    let flags = Flags::from_env();
    println!("== Table 4: MRR for ablation test ==\n");

    let mut sums = vec![[0.0f64; 9]; Variant::ALL.len()];
    for run in 0..flags.runs {
        let run_seed = flags.seed + run as u64 * 211;
        for (di, preset) in DatasetPreset::ALL.into_iter().enumerate() {
            let d = dataset(preset, run_seed, flags.fast);
            let base_cfg = if flags.fast {
                ZooConfig::fast(flags.threads, run_seed)
            } else {
                ZooConfig::standard(flags.threads, run_seed)
            }
            .actor;
            for (vi, variant) in Variant::ALL.into_iter().enumerate() {
                let config = variant.apply(base_cfg.clone());
                eprintln!(
                    "[run {run}] fitting {} on {} ...",
                    variant.label(),
                    d.corpus.name
                );
                let (model, _) = actor_core::fit(&d.corpus, &d.split.train, &config).expect("fit");
                let eval_params = EvalParams {
                    seed: run_seed ^ 0xE7A1,
                    ..EvalParams::default()
                };
                for (ti, task) in PredictionTask::ALL.into_iter().enumerate() {
                    sums[vi][di * 3 + ti] +=
                        evaluate_mrr(&model, &d.corpus, &d.split.test, task, &eval_params);
                }
            }
        }
    }

    let header = [
        "Variant",
        "utgeo:Text",
        "utgeo:Loc",
        "utgeo:Time",
        "tweet:Text",
        "tweet:Loc",
        "tweet:Time",
        "4sq:Text",
        "4sq:Loc",
        "4sq:Time",
    ];
    let mut table = Table::new(header);
    for (vi, variant) in Variant::ALL.into_iter().enumerate() {
        let mut cells = vec![variant.label().to_string()];
        cells.extend((0..9).map(|c| fmt_mrr(sums[vi][c] / flags.runs as f64)));
        table.row(cells);
    }
    println!("Measured (synthetic presets):\n{}", table.render());

    let mut ptable = Table::new(header);
    for (name, row) in paper::TABLE4 {
        let mut cells = vec![name.to_string()];
        cells.extend(row.iter().map(|v| paper::cell(*v)));
        ptable.row(cells);
    }
    println!("Paper's Table 4 (original datasets):\n{}", ptable.render());
    println!(
        "Expected shape: removing either structure drops MRR slightly; the\n\
         inter-record structure matters most on utgeo (the only preset with\n\
         user mentions), while on tweet/4sq the author-unit links alone still\n\
         help (paper §6.3)."
    );
}
