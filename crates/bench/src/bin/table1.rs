//! Regenerates **Table 1**: dataset statistics — record counts, splits,
//! activity-graph scale (|V|, |E|), hotspot counts, vocabulary and user
//! counts — for the three synthetic presets, next to the paper's numbers.
//!
//! Run: `cargo run -p actor-bench --bin table1 --release [-- --fast]`

use actor_core::ActorConfig;
use baselines::Substrate;
use benchkit::{dataset, paper, Flags, ObsScope};
use evalkit::report::Table;
use mobility::synth::DatasetPreset;

fn main() {
    let _obs = ObsScope::start("table1");
    let flags = Flags::from_env();
    println!("== Table 1: statistics of datasets (synthetic presets) ==\n");

    let mut table = Table::new([
        "DATA",
        "#Tweets",
        "#Train",
        "#Valid",
        "#Test",
        "|V|",
        "|E|",
        "#Spatial",
        "#Temporal",
        "#Word",
        "#User",
    ]);
    for preset in DatasetPreset::ALL {
        let d = dataset(preset, flags.seed, flags.fast);
        let cfg = ActorConfig {
            threads: flags.threads,
            ..ActorConfig::default()
        };
        let substrate = Substrate::build(&d.corpus, &d.split.train, &cfg);
        let stats = substrate.graph_user.stats();
        let cstats = d.corpus.stats();
        table.row([
            d.corpus.name.clone(),
            d.corpus.len().to_string(),
            d.split.train.len().to_string(),
            d.split.valid.len().to_string(),
            d.split.test.len().to_string(),
            stats.n_nodes().to_string(),
            stats.n_edges().to_string(),
            substrate.spatial.len().to_string(),
            substrate.temporal.len().to_string(),
            d.corpus.vocab().len().to_string(),
            cstats.users.to_string(),
        ]);
        println!(
            "[{}] mention rate {:.1}% (paper reports 16.8% for UTGEO2011)",
            d.corpus.name,
            100.0 * cstats.mention_rate()
        );
    }
    println!("\n{}", table.render());

    println!("Paper's Table 1 (original datasets, for scale comparison):\n");
    let mut ptable = Table::new([
        "DATA",
        "#Tweets",
        "|V|",
        "|E|",
        "#Spatial",
        "#Temporal",
        "#Word",
        "#User",
    ]);
    for &(name, tweets, v, e, sp, te, w, u) in paper::TABLE1 {
        ptable.row([
            name.to_string(),
            tweets.to_string(),
            v.to_string(),
            e.to_string(),
            sp.to_string(),
            te.to_string(),
            w.to_string(),
            u.to_string(),
        ]);
    }
    println!("{}", ptable.render());
    println!(
        "Synthetic presets are scaled ~20-50x below the originals so the full\n\
         table-2 sweep runs on a laptop; structural ratios (mention rate, venue\n\
         coupling, vocabulary richness) follow the source datasets (DESIGN.md §3)."
    );
}
