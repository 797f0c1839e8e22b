//! Tests the paper's "ACTOR significantly outperforms the
//! state-of-the-art" claim (§1): paired bootstrap CIs and sign-flip
//! permutation p-values for ACTOR vs CrossMap(U) — the strongest
//! baseline — on every dataset and task, over one shared query set.
//!
//! Run: `cargo run -p actor-bench --bin significance --release [-- --fast]`

use baselines::{train_crossmap, BaselineParams, CrossMapVariant, Substrate};
use benchkit::{dataset, Flags, ZooConfig};
use evalkit::report::Table;
use evalkit::significance::compare_paired;
use evalkit::{EvalParams, PredictionTask};
use mobility::synth::DatasetPreset;

fn main() {
    let flags = Flags::from_env();
    println!("== Significance: ACTOR vs CrossMap(U), paired on shared queries ==\n");

    let mut table = Table::new([
        "dataset",
        "task",
        "ACTOR",
        "CrossMap(U)",
        "diff 95% CI",
        "p",
        "significant",
    ]);
    for preset in DatasetPreset::ALL {
        let d = dataset(preset, flags.seed, flags.fast);
        let cfg = if flags.fast {
            ZooConfig::fast(flags.threads, flags.seed)
        } else {
            ZooConfig::standard(flags.threads, flags.seed)
        }
        .actor;
        eprintln!("[{}] fitting ACTOR ...", d.corpus.name);
        let (actor, _) = actor_core::fit(&d.corpus, &d.split.train, &cfg).expect("fit");
        eprintln!("[{}] fitting CrossMap(U) ...", d.corpus.name);
        let substrate = Substrate::build(&d.corpus, &d.split.train, &cfg);
        let crossmap = train_crossmap(
            &d.corpus,
            &substrate,
            CrossMapVariant::WithUsers,
            &BaselineParams::matched_to(&cfg),
        );
        let params = EvalParams {
            seed: flags.seed ^ 0xE7A1,
            ..EvalParams::default()
        };
        for task in PredictionTask::ALL {
            let cmp = compare_paired(&actor, &crossmap, &d.corpus, &d.split.test, task, &params);
            table.row([
                d.corpus.name.clone(),
                task.label().to_string(),
                format!("{:.4}", cmp.mrr_a),
                format!("{:.4}", cmp.mrr_b),
                format!("[{:+.4}, {:+.4}]", cmp.diff_ci.0, cmp.diff_ci.1),
                format!("{:.4}", cmp.p_value),
                if cmp.significant() { "yes" } else { "no" }.to_string(),
            ]);
            eprintln!("[{}] {} done", d.corpus.name, task.label());
        }
    }
    println!("{}", table.render());
    println!(
        "reading: a CI above zero with p < 0.05 backs the paper's claim on\n\
         that dataset/task; CIs straddling zero mean the two methods tie\n\
         within noise at this corpus size."
    );
}
