//! Urban explorer: answers the paper's motivating questions (§1) with
//! neighbor search — "what are the popular activities around the beach at
//! dusk?", "where should someone who tweets about startups go?", "when do
//! people hit the sports bars?".
//!
//! Run: `cargo run --example urban_explorer --release`

use actor_st::eval::neighbor::NeighborSearcher;
use actor_st::prelude::*;

fn main() {
    println!("generating an LA-like tweet corpus ...");
    let (corpus, _) = generate(DatasetPreset::Tweet.small_config(7)).expect("valid preset");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("valid split");

    println!("fitting ACTOR ...");
    let mut config = ActorConfig::fast();
    config.threads = 2;
    config.max_epochs = 40;
    let (model, _) = fit(&corpus, &split.train, &config).expect("fit succeeds");
    let searcher = NeighborSearcher::new(&model);

    // Q1: "What are the popular activities around the beach at dusk?"
    // Combine the beach hotspot vector with the ~18:30 temporal vector.
    println!("\nQ1: popular activities around the beach at dusk");
    let beach_anchor = GeoPoint::new(33.745, -118.3975); // beach theme anchor
    let beach_node = model.location_node(beach_anchor);
    let dusk_node = model.time_of_day_node(18.5 * 3600.0);
    let beach_v = model.vector(beach_node).to_vec();
    let dusk_v = model.vector(dusk_node).to_vec();
    let query = model.query_vector(&[&beach_v, &dusk_v]);
    for (word, score) in model.nearest_words(&query, 8) {
        println!("  {word:<24} {score:.3}");
    }

    // Q2: "Where should a startup person go?" — textual query on a
    // tech keyword, report its top spatial hotspots.
    println!("\nQ2: where do the startup people gather?");
    match searcher.textual("startup", 5) {
        Some(report) => {
            for (place, score) in &report.places {
                println!("  ({:.4}, {:.4})  {score:.3}", place.lat, place.lon);
            }
            println!(
                "  related words: {}",
                report
                    .words
                    .iter()
                    .map(|(w, _)| w.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        None => println!("  'startup' not in vocabulary"),
    }

    // Q3: "When is the fit time for the stadium?" — spatial query at the
    // stadium anchor, report its top temporal hotspots.
    println!("\nQ3: when do people go to the stadium area?");
    let stadium_anchor = GeoPoint::new(33.88, -118.24);
    let report = searcher.spatial(stadium_anchor, 5);
    for (time, score) in &report.times {
        println!("  {time}  {score:.3}");
    }

    // Q4: what characterizes late night (23:00)?
    println!("\nQ4: what happens at 23:00?");
    let report = searcher.temporal(23.0 * 3600.0, 8);
    for (word, score) in &report.words {
        println!("  {word:<24} {score:.3}");
    }

    // Q5: profile a prolific user from their embedding alone.
    println!("\nQ5: what is user 0 into? (activity profile from the embedding)");
    for (word, score) in model.user_profile(mobility::UserId(0), 6) {
        println!("  {word:<24} {score:.3}");
    }
}
