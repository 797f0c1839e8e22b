//! Cross-modal prediction walkthrough: for one held-out record, hide each
//! modality in turn and watch ACTOR rank the truth against noise
//! candidates — the §6.2.1 protocol made visible.
//!
//! Run: `cargo run --example what_where_when --release`

use actor_st::eval::tasks::{build_queries, score_query};
use actor_st::prelude::*;
use mobility::types::format_time_of_day;

fn main() {
    println!("generating a mention-rich corpus (UTGEO2011-like) ...");
    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(99)).expect("valid preset");
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("valid split");
    println!(
        "  mention rate: {:.1}% (paper reports 16.8% for UTGEO2011)",
        100.0 * corpus.stats().mention_rate()
    );

    println!("fitting ACTOR ...");
    let mut config = ActorConfig::fast();
    config.threads = 2;
    config.max_epochs = 40;
    let (model, _) = fit(&corpus, &split.train, &config).expect("fit succeeds");

    let queries = build_queries(&split.test, &EvalParams::default());
    let q = &queries[0];
    let gt = corpus.record(q.record);
    let words: Vec<&str> = gt
        .keywords
        .iter()
        .map(|&k| corpus.vocab().word(k))
        .collect();

    println!("\nthe held-out record:");
    println!("  what : \"{}\"", words.join(" "));
    println!("  where: ({:.4}, {:.4})", gt.location.lat, gt.location.lon);
    println!("  when : {}", format_time_of_day(gt.second_of_day()));

    // WHAT: given where+when, rank 11 candidate texts.
    println!("\nWHAT — activity prediction (given where + when):");
    let rr = score_query(&model, &corpus, q, PredictionTask::Text);
    println!("  reciprocal rank of the true text: {rr:.3}");
    for (i, &nid) in q.noise.iter().take(3).enumerate() {
        let nw: Vec<&str> = corpus
            .record(nid)
            .keywords
            .iter()
            .map(|&k| corpus.vocab().word(k))
            .collect();
        println!("  noise candidate {}: \"{}\"", i + 1, nw.join(" "));
    }

    // WHERE: given what+when.
    println!("\nWHERE — location prediction (given what + when):");
    let rr = score_query(&model, &corpus, q, PredictionTask::Location);
    println!("  reciprocal rank of the true location: {rr:.3}");

    // WHEN: given what+where.
    println!("\nWHEN — time prediction (given what + where):");
    let rr = score_query(&model, &corpus, q, PredictionTask::Time);
    println!("  reciprocal rank of the true time: {rr:.3}");
    println!("  (time is the hardest modality in the paper too: Table 2's");
    println!("   time MRRs are ~0.35 vs ~0.62-0.95 for text/location)");

    // The same what/where/when questions, answered through the serving
    // engine: the observed modalities become one composite query, and the
    // engine returns the most aligned units of each missing modality.
    println!("\nthe engine's open-ended answers (no candidate list needed):");
    let engine = QueryEngine::with_defaults(&model);
    let observed: Vec<String> = words.iter().map(|w| w.to_string()).collect();
    let req = QueryRequest::composite(
        Some(gt.second_of_day()),
        Some(gt.location),
        observed.clone(),
    )
    .with_k(3);
    match engine.query(&req) {
        Ok(r) => {
            let top_words: Vec<&str> = r.words.iter().map(|(w, _)| w.as_str()).collect();
            println!("  WHAT : {}", top_words.join(", "));
            if let Some((s, _)) = r.times.first() {
                println!("  WHEN : {}", format_time_of_day(*s));
            }
            if let Some((p, _)) = r.places.first() {
                println!("  WHERE: ({:.4}, {:.4})", p.lat, p.lon);
            }
        }
        Err(e) => println!("  engine could not answer: {e}"),
    }

    // Aggregate over the full test split.
    println!("\nfull test split MRRs:");
    for task in PredictionTask::ALL {
        let mrr = evaluate_mrr(&model, &corpus, &split.test, task, &EvalParams::default());
        println!("  {:<9} {mrr:.4}", task.label());
    }
}
