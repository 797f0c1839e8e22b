//! Exports a trained model's center vectors as TSV for external
//! visualization (e.g. the TensorFlow Embedding Projector): one
//! `vectors.tsv` with tab-separated floats and one `metadata.tsv` with
//! node type and label columns.
//!
//! Run: `cargo run -p actor-bench --bin export_embeddings --release [-- --fast]`
//! Output: `results/embedding_vectors.tsv`, `results/embedding_metadata.tsv`

use std::fmt::Write as _;
use std::fs;

use benchkit::{dataset, Flags, ZooConfig};
use mobility::types::format_time_of_day;
use stgraph::NodeType;

fn main() {
    let flags = Flags::from_env();
    eprintln!("fitting ACTOR on synth-tweet ...");
    let d = dataset(
        mobility::synth::DatasetPreset::Tweet,
        flags.seed,
        flags.fast,
    );
    let cfg = if flags.fast {
        ZooConfig::fast(flags.threads, flags.seed)
    } else {
        ZooConfig::standard(flags.threads, flags.seed)
    }
    .actor;
    let (model, _) = actor_core::fit(&d.corpus, &d.split.train, &cfg).expect("fit");

    let space = *model.space();
    let mut vectors = String::new();
    let mut metadata = String::from("type\tlabel\n");
    for ty in NodeType::ALL {
        for node in space.nodes_of(ty) {
            let v = model.vector(node);
            let mut first = true;
            for x in v {
                if !first {
                    vectors.push('\t');
                }
                let _ = write!(vectors, "{x}");
                first = false;
            }
            vectors.push('\n');
            let local = space.local_of(node);
            let label = match ty {
                NodeType::Time => format_time_of_day(
                    model
                        .temporal_hotspots()
                        .center(hotspot::TemporalHotspotId(local)),
                ),
                NodeType::Location => {
                    let c = model
                        .spatial_hotspots()
                        .center(hotspot::SpatialHotspotId(local));
                    format!("({:.4},{:.4})", c.lat, c.lon)
                }
                NodeType::Word => model.vocab().word(mobility::KeywordId(local)).to_string(),
                NodeType::User => format!("user{local}"),
            };
            let _ = writeln!(metadata, "{}\t{}", ty.label(), label);
        }
    }
    fs::create_dir_all("results").expect("create results dir");
    fs::write("results/embedding_vectors.tsv", vectors).expect("write vectors");
    fs::write("results/embedding_metadata.tsv", metadata).expect("write metadata");
    println!(
        "exported {} x {} vectors to results/embedding_vectors.tsv (+ metadata)",
        space.len(),
        model.store().dim()
    );
}
