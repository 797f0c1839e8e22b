//! Streaming updates: fit once, then keep learning from a live stream —
//! the ReAct-style extension (`actor_core::online`). The demo plants a
//! drift (an activity suddenly happening at an unusual hour) and shows
//! the online model tracking it while the frozen model cannot.
//!
//! Run: `cargo run --example streaming_updates --release`

use actor_st::core::{OnlineActor, OnlineParams};
use actor_st::embed::math::cosine;
use actor_st::prelude::*;
use mobility::types::format_time_of_day;

fn main() {
    println!("fitting the base model ...");
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(7)).expect("valid preset");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("valid split");
    let mut config = ActorConfig::fast();
    config.threads = 2;
    let (model, _) = fit(&corpus, &split.train, &config).expect("fit succeeds");

    // The drift: "coffee" starts happening at 03:00 at one place (a new
    // 24-hour espresso bar, say).
    let coffee = corpus.vocab().get("coffee").expect("coffee in vocabulary");
    let drift_second = 3.0 * 3600.0;
    let drift_place = GeoPoint::new(40.72, -73.99);
    let align = |m: &actor_st::core::TrainedModel| {
        let t = m.time_of_day_node(drift_second);
        cosine(m.vector(m.word_node(coffee)), m.vector(t))
    };
    let frozen_alignment = align(&model);
    println!(
        "cosine(coffee, {}) before streaming: {frozen_alignment:.3}",
        format_time_of_day(drift_second)
    );

    println!("streaming 1000 drift records ...");
    let mut online = OnlineActor::new(model, OnlineParams::default());
    for i in 0..1000u32 {
        let record = Record {
            id: mobility::RecordId(i),
            user: mobility::UserId(i % 50),
            timestamp: mobility::synth::EPOCH_BASE + (i as i64) * 600 + drift_second as i64,
            location: drift_place,
            keywords: vec![coffee],
            mentions: vec![],
        };
        online.observe(&record);
    }
    println!(
        "  observed {} records ({} unknown tokens skipped)",
        online.observed(),
        online.skipped_words()
    );

    let updated = online.into_model();
    let updated_alignment = align(&updated);
    println!(
        "cosine(coffee, {}) after streaming:  {updated_alignment:.3}",
        format_time_of_day(drift_second)
    );
    println!(
        "\nthe online model moved 'coffee' toward the new hour by {:+.3};\n\
         a frozen model would stay at {frozen_alignment:.3} forever.",
        updated_alignment - frozen_alignment
    );

    // The updated model still answers ordinary queries.
    let mrr = evaluate_mrr(
        &updated,
        &corpus,
        &split.test,
        PredictionTask::Location,
        &EvalParams::default(),
    );
    println!("location MRR after streaming: {mrr:.4} (still far above the 0.2745 random floor)");
}
