//! Quickstart: generate data, fit ACTOR, and ask it cross-modal questions.
//!
//! Run: `cargo run --example quickstart --release`

use actor_st::eval::neighbor::NeighborSearcher;
use actor_st::prelude::*;

fn main() {
    // A small Foursquare-like corpus: venue-heavy check-ins in a city.
    println!("generating synthetic check-in corpus ...");
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(42)).expect("valid preset");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("valid split");
    println!(
        "  {} records, {} users, {} keywords",
        corpus.len(),
        corpus.num_users(),
        corpus.vocab().len()
    );

    // Fit ACTOR (Algorithm 1 of the paper).
    println!("fitting ACTOR ...");
    let mut config = ActorConfig::fast();
    config.threads = 2;
    let (model, report) = fit(&corpus, &split.train, &config).expect("fit succeeds");
    println!(
        "  {} spatial hotspots, {} temporal hotspots, {} graph edges, trained in {:.1}s",
        report.n_spatial, report.n_temporal, report.n_edges, report.total_seconds
    );

    // Cross-modal prediction on one held-out record: does the model rank
    // the record's true location above random test locations?
    let gt = corpus.record(split.test[0]);
    let words: Vec<&str> = gt
        .keywords
        .iter()
        .map(|&k| corpus.vocab().word(k))
        .collect();
    println!(
        "\nquery record: \"{}\" at {} near ({:.4}, {:.4})",
        words.join(" "),
        mobility::types::format_time_of_day(gt.second_of_day()),
        gt.location.lat,
        gt.location.lon
    );
    let own = model.score_location(gt.timestamp, &gt.keywords, gt.location);
    let other = corpus.record(split.test[1]);
    let noise = model.score_location(gt.timestamp, &gt.keywords, other.location);
    println!("  score(own location)   = {own:.3}");
    println!("  score(noise location) = {noise:.3}");

    // MRR over the whole test split for all three tasks.
    println!("\nMRR on the test split (11 candidates per query):");
    for task in PredictionTask::ALL {
        let mrr = evaluate_mrr(&model, &corpus, &split.test, task, &EvalParams::default());
        println!("  {:<9} {mrr:.4}  (random baseline ≈ 0.2745)", task.label());
    }

    // Neighbor search: what happens around 8 pm?
    println!("\ntop keywords near 20:00:");
    let report = NeighborSearcher::new(&model).temporal(20.0 * 3600.0, 8);
    for (word, score) in &report.words {
        println!("  {word:<24} {score:.3}");
    }

    // A terminal map of the city: record density with detected hotspots.
    println!("\nrecord density and detected hotspots (O):");
    let points: Vec<GeoPoint> = corpus.records().iter().map(|r| r.location).collect();
    let map = actor_st::eval::ascii::density_map_with_hotspots(
        &points,
        model.spatial_hotspots().centers(),
        64,
        20,
    );
    print!("{map}");
}
