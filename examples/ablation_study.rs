//! Miniature ablation study (§6.3): fit ACTOR complete, w/o inter, and
//! w/o intra on the mention-rich preset and compare MRRs — a quick,
//! runnable version of the paper's Table 4.
//!
//! Run: `cargo run --example ablation_study --release`

use actor_st::prelude::*;

fn main() {
    println!("generating a mention-rich corpus (UTGEO2011-like) ...");
    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(17)).expect("valid preset");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("valid split");

    let mut base = ActorConfig::fast();
    base.threads = 2;
    base.max_epochs = 40;

    println!(
        "\n{:<18} {:>8} {:>8} {:>8}",
        "variant", "Text", "Location", "Time"
    );
    println!("{}", "-".repeat(48));
    for variant in Variant::ALL {
        let config = variant.apply(base.clone());
        let (model, report) = fit(&corpus, &split.train, &config).expect("fit succeeds");
        let mut cells = Vec::new();
        for task in PredictionTask::ALL {
            let mrr = evaluate_mrr(&model, &corpus, &split.test, task, &EvalParams::default());
            cells.push(format!("{mrr:>8.4}"));
        }
        println!(
            "{:<18} {} {} {}  (pretrained: {})",
            variant.label(),
            cells[0],
            cells[1],
            cells[2],
            report.pretrained
        );
    }
    println!(
        "\nexpected shape (paper Table 4): both ablations trail the complete\n\
         model, and w/o inter hurts most here because this preset has user\n\
         mentions to exploit."
    );
}
