//! Weekly rhythms: some activities (farmers markets, day hikes) live on
//! weekends. The paper's temporal units are time-of-day hotspots, which
//! cannot tell Saturday 10:00 from Tuesday 10:00; this library's
//! `temporal_period = SECONDS_PER_WEEK` extension can. The demo fits the
//! same corpus both ways and shows only the weekly model separating a
//! weekend activity from a weekday one that peaks at the same hour.
//!
//! Run: `cargo run --example weekly_rhythms --release`

use actor_st::embed::math::cosine;
use actor_st::prelude::*;
use mobility::{SECONDS_PER_DAY, SECONDS_PER_WEEK};

fn main() {
    // Half the activities are weekend-skewed.
    let mut gen_cfg = DatasetPreset::Tweet.small_config(77);
    gen_cfg.weekend_activity_fraction = 0.5;
    gen_cfg.n_records = 6_000;
    println!("generating a corpus with weekend-skewed activities ...");
    let (corpus, _) = generate(gen_cfg).expect("valid config");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("valid split");

    let mut base = ActorConfig::fast();
    base.threads = 2;
    base.max_epochs = 40;

    println!("fitting with daily temporal units (the paper's setup) ...");
    let (daily, rep_daily) = fit(&corpus, &split.train, &base).expect("fit daily");
    println!("  {} daily hotspots", rep_daily.n_temporal);

    println!("fitting with weekly temporal units (extension) ...");
    let mut weekly_cfg = base.clone();
    weekly_cfg.temporal_period = SECONDS_PER_WEEK as f64;
    weekly_cfg.temporal_bandwidth = 3.0 * 3600.0;
    let (weekly, rep_weekly) = fit(&corpus, &split.train, &weekly_cfg).expect("fit weekly");
    println!("  {} weekly hotspots", rep_weekly.n_temporal);

    // "beach" is activity 0 → weekend-skewed; "nightlife" is activity 1 →
    // also skewed at 0.5 fraction... pick one from each half: activity 0
    // (beach, weekend) vs a late activity ("market" index 15, weekday).
    let weekend_word = corpus.vocab().get("beach").expect("beach in vocab");
    let weekday_word = corpus.vocab().get("telescope").expect("telescope in vocab");

    // Compare alignment of each word with a Saturday-noon time node vs a
    // Tuesday-noon one under both models. EPOCH_BASE is Friday, so +1 day
    // = Saturday, +4 days = Tuesday.
    let saturday_noon = mobility::synth::EPOCH_BASE + SECONDS_PER_DAY + 12 * 3600;
    let tuesday_noon = mobility::synth::EPOCH_BASE + 4 * SECONDS_PER_DAY + 12 * 3600;

    let margin = |model: &actor_st::core::TrainedModel, word| {
        let wv = model.vector(model.word_node(word)).to_vec();
        let sat = cosine(&wv, model.vector(model.time_node(saturday_noon)));
        let tue = cosine(&wv, model.vector(model.time_node(tuesday_noon)));
        sat - tue
    };

    println!("\ncosine(word, Saturday noon) − cosine(word, Tuesday noon):");
    println!("{:<12} {:>10} {:>10}", "word", "daily", "weekly");
    for (name, w) in [("beach", weekend_word), ("telescope", weekday_word)] {
        println!(
            "{:<12} {:>10.3} {:>10.3}",
            name,
            margin(&daily, w),
            margin(&weekly, w)
        );
    }
    println!(
        "\nreading: the daily model assigns Saturday noon and Tuesday noon to\n\
         the SAME hotspot (margin exactly 0); the weekly model separates\n\
         them, so the weekend-skewed word shows a positive margin."
    );

    let daily_same = daily.time_node(saturday_noon) == daily.time_node(tuesday_noon);
    println!("daily model: Saturday noon and Tuesday noon share a node: {daily_same}");
}
