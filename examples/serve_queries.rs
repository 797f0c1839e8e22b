//! Serving walkthrough: train once, stand up a query engine, answer
//! cross-modal queries, and hot-swap new model generations underneath it
//! while it keeps serving.
//!
//! Run: `cargo run --example serve_queries --release`

use std::sync::Arc;

use actor_st::core::{ModelSink, OnlineActor, OnlineParams};
use actor_st::prelude::*;
use mobility::types::format_time_of_day;

/// Prints a request (described by its kind) and the engine's answer.
fn show(req: &QueryRequest, r: &QueryResponse) {
    println!(
        "  [{}] epoch {}{}",
        req.kind,
        r.epoch,
        if r.from_cache { " (cached)" } else { "" }
    );
    let words: Vec<String> = r
        .words
        .iter()
        .take(5)
        .map(|(w, s)| format!("{w} {s:.2}"))
        .collect();
    println!("    words : {}", words.join(", "));
    if let Some((s, score)) = r.times.first() {
        println!("    time  : {} {score:.2}", format_time_of_day(*s));
    }
    if let Some((p, score)) = r.places.first() {
        println!("    place : ({:.4}, {:.4}) {score:.2}", p.lat, p.lon);
    }
}

fn main() {
    println!("fitting the base model ...");
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(7)).expect("valid preset");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("valid split");
    let mut config = ActorConfig::fast();
    config.threads = 2;
    let (model, _) = fit(&corpus, &split.train, &config).expect("fit succeeds");

    // One engine, shareable across however many threads a server runs.
    // Models this small stay on the exact index; past
    // `EngineParams::default().index.ann_threshold` units a modality gets
    // an HNSW graph automatically.
    let engine = Arc::new(QueryEngine::with_defaults(&model));
    println!("engine serving at epoch {}\n", engine.epoch());

    println!("the four query kinds:");
    let spatial = QueryRequest::spatial(GeoPoint::new(40.73, -73.99), 5);
    show(&spatial, &engine.query(&spatial).expect("spatial"));
    let temporal = QueryRequest::temporal(20.0 * 3600.0, 5);
    show(&temporal, &engine.query(&temporal).expect("temporal"));
    let keyword = QueryRequest::keyword("coffee", 5);
    if let Ok(r) = engine.query(&keyword) {
        show(&keyword, &r);
    }
    let composite = QueryRequest::composite(
        Some(9.0 * 3600.0),
        Some(GeoPoint::new(40.73, -73.99)),
        vec!["coffee".into()],
    )
    .with_k(5);
    if let Ok(r) = engine.query(&composite) {
        show(&composite, &r);
    }

    // Ask the same thing twice: the second answer is a cache hit.
    let again = engine.query(&spatial).expect("spatial repeat");
    println!(
        "\nrepeat of the first query: from_cache = {}",
        again.from_cache
    );

    // Streaming updates publish straight into the engine: the engine is a
    // ModelSink, so one full publish at attach and then every 20 observed
    // records the online trainer hands it a dirty-row delta and the epoch
    // ticks — no full model copies in the steady state.
    println!(
        "\nstreaming the {} test records with the engine attached as a sink ...",
        split.test.len()
    );
    let sink: Arc<dyn ModelSink> = engine.clone();
    let mut online = OnlineActor::new(model, OnlineParams::default());
    online.attach_sink(sink, 20);
    for &rid in &split.test {
        online.observe(corpus.record(rid));
    }
    println!(
        "engine now at epoch {} (publishes happen mid-query-load,",
        engine.epoch()
    );
    println!("in-flight readers keep the snapshot they started with)");

    // Cache keys carry the snapshot epoch, so the swap invalidated the
    // old answers.
    let fresh = engine.query(&spatial).expect("post-swap query");
    println!("\nsame spatial query after the swap:");
    show(&spatial, &fresh);

    let stats = engine.stats();
    println!(
        "\nengine stats: {} queries, {} cache hits, {} publishes, epoch {}",
        stats.queries, stats.cache_hits, stats.publishes, stats.epoch
    );
}
