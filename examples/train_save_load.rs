//! Train once, save the model, reload it elsewhere, and verify the
//! reloaded model answers queries identically — the deployment story.
//!
//! Run: `cargo run --example train_save_load --release`

use actor_st::core::TrainedModel;
use actor_st::prelude::*;

fn main() {
    println!("generating data and fitting ACTOR ...");
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(123)).expect("valid preset");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("valid split");
    let mut config = ActorConfig::fast();
    config.threads = 2;
    let (model, _) = fit(&corpus, &split.train, &config).expect("fit succeeds");

    // Save to disk (one CRC-sealed file, written atomically), then reload.
    let path = std::env::temp_dir().join(format!("actor_model-{}.ackpt", std::process::id()));
    model.save(&path).expect("write model file");
    let size = std::fs::metadata(&path).expect("model file exists").len();
    println!(
        "saved {} nodes x {} dims -> {} ({} KiB)",
        model.space().len(),
        model.store().dim(),
        path.display(),
        size / 1024
    );
    let loaded = TrainedModel::load(&path).expect("valid model file");
    println!("reloaded; verifying equivalence ...");

    // Identical predictions on held-out records.
    let mut checked = 0;
    for &rid in split.test.iter().take(50) {
        let r = corpus.record(rid);
        let a = model.score_location(r.timestamp, &r.keywords, r.location);
        let b = loaded.score_location(r.timestamp, &r.keywords, r.location);
        assert_eq!(a, b, "prediction drift after reload");
        checked += 1;
    }
    println!("  {checked} predictions identical");

    // Identical neighbor searches.
    if let Some(kw) = corpus.vocab().get("coffee") {
        let q = model.vector(model.word_node(kw)).to_vec();
        let before = model.nearest_words(&q, 5);
        let after = loaded.nearest_words(&q, 5);
        assert_eq!(before, after, "neighbor drift after reload");
        println!("  top-5 neighbors of 'coffee' identical:");
        for (w, s) in before {
            println!("    {w:<20} {s:.3}");
        }
    }
    std::fs::remove_file(&path).ok();
    println!("done.");
}
