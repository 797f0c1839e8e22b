//! Word-sense disambiguation analysis (paper §1's second motivation).
//!
//! The generator plants polysemous words ("rock" appears in both concert
//! and hiking records — the synthetic analogue of the paper's
//! "ape = imitate vs. Planet of the Apes" example). A model that treats
//! words individually embeds such a word between its senses; the
//! intra-record bag-of-words structure lets surrounding context pick the
//! sense. This binary measures, for every planted polysemous word:
//!
//! * the **bare margin** — how much closer the word alone is to sense A's
//!   home location than to sense B's (≈ 0 for a truly ambiguous word),
//! * the **contextual margin** — the same once two theme words of sense A
//!   join the query bag,
//!
//! under ACTOR-complete vs. ACTOR w/o intra. Expected: contextual margins
//! are strongly positive (context resolves the sense); the complete model
//! gains at least as much as the ablated one.
//!
//! Run: `cargo run -p actor-bench --bin wsd_analysis --release [-- --fast]`

use actor_core::{TrainedModel, Variant};
use benchkit::{dataset, Flags, ZooConfig};
use embed::math::cosine;
use evalkit::report::Table;
use mobility::synth::{Theme, POLYSEMOUS, THEMES};
use mobility::GeoPoint;

fn theme_by_name(name: &str) -> &'static Theme {
    THEMES
        .iter()
        .find(|t| t.name == name)
        .expect("polysemous entries reference catalogue themes")
}

fn anchor_point(theme: &Theme, bbox: (f64, f64, f64, f64)) -> GeoPoint {
    let (lat0, lon0, lat1, lon1) = bbox;
    GeoPoint::new(
        lat0 + theme.anchor.1 * (lat1 - lat0),
        lon0 + theme.anchor.0 * (lon1 - lon0),
    )
}

/// Margin of `query_words` toward theme A's home hotspot over theme B's.
fn margin(model: &TrainedModel, query: &[&str], a: GeoPoint, b: GeoPoint) -> Option<f64> {
    let ids: Option<Vec<_>> = query.iter().map(|w| model.vocab().get(w)).collect();
    let qv = model.text_vector(&ids?);
    let va = model.vector(model.location_node(a));
    let vb = model.vector(model.location_node(b));
    Some(cosine(&qv, va) - cosine(&qv, vb))
}

fn main() {
    let flags = Flags::from_env();
    println!("== Word-sense disambiguation analysis (synth-tweet) ==\n");
    let d = dataset(
        mobility::synth::DatasetPreset::Tweet,
        flags.seed,
        flags.fast,
    );
    let bbox = mobility::synth::DatasetPreset::Tweet
        .config(flags.seed)
        .bbox;
    let base = if flags.fast {
        ZooConfig::fast(flags.threads, flags.seed)
    } else {
        ZooConfig::standard(flags.threads, flags.seed)
    }
    .actor;

    eprintln!("fitting ACTOR-complete ...");
    let (complete, _) = actor_core::fit(&d.corpus, &d.split.train, &base).expect("fit complete");
    eprintln!("fitting ACTOR w/o intra ...");
    let (ablated, _) = actor_core::fit(
        &d.corpus,
        &d.split.train,
        &Variant::WithoutIntra.apply(base.clone()),
    )
    .expect("fit ablated");

    let n_activities = base_activity_count(&d);
    let mut table = Table::new([
        "word",
        "sense A",
        "sense B",
        "bare",
        "ctx (complete)",
        "ctx (w/o intra)",
    ]);
    let mut gains_complete = Vec::new();
    let mut gains_ablated = Vec::new();
    for (word, themes) in POLYSEMOUS {
        let [a_name, b_name] = [themes[0], themes[1]];
        let ta = theme_by_name(a_name);
        let tb = theme_by_name(b_name);
        // Both senses must be in the generated world (first n_activities
        // themes) for the comparison to exist.
        let in_world =
            |t: &Theme| THEMES.iter().position(|x| x.name == t.name).unwrap() < n_activities;
        if !in_world(ta) || !in_world(tb) {
            continue;
        }
        let pa = anchor_point(ta, bbox);
        let pb = anchor_point(tb, bbox);
        let context: Vec<&str> = ta.words.iter().take(2).copied().collect();
        let mut query = vec![*word];
        query.extend(&context);

        let (Some(bare), Some(ctx_c), Some(ctx_a)) = (
            margin(&complete, &[word], pa, pb),
            margin(&complete, &query, pa, pb),
            margin(&ablated, &query, pa, pb),
        ) else {
            continue;
        };
        gains_complete.push(ctx_c - bare);
        if let Some(bare_a) = margin(&ablated, &[word], pa, pb) {
            gains_ablated.push(ctx_a - bare_a);
        }
        table.row([
            word.to_string(),
            a_name.to_string(),
            b_name.to_string(),
            format!("{bare:+.3}"),
            format!("{ctx_c:+.3}"),
            format!("{ctx_a:+.3}"),
        ]);
    }
    println!("{}", table.render());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "mean disambiguation gain: complete {:+.3}, w/o intra {:+.3}",
        mean(&gains_complete),
        mean(&gains_ablated)
    );
    println!(
        "\nreading: 'bare' near zero = the lone word is genuinely ambiguous;\n\
         positive 'ctx' = two context words of sense A pull the query toward\n\
         sense A's home location (the paper's Fig. 1 / WSD argument)."
    );
}

fn base_activity_count(d: &benchkit::Dataset) -> usize {
    // The preset records the activity count in its ground truth range.
    d.ground_truth
        .location_activity
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m + 1)
}
