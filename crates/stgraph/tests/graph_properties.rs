//! Property tests for graph construction: the activity graph built from
//! arbitrary small corpora satisfies Definition 1's structural invariants.

use hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use mobility::{Corpus, GeoPoint, KeywordId, Record, RecordId, UserId, Vocabulary};
use proptest::prelude::*;
use stgraph::{ActivityGraphBuilder, BuildOptions, EdgeType};

/// A compact record tuple: (user, lat-cell, lon-cell, hour, keywords,
/// mention).
type Row = (u8, u8, u8, u8, Vec<u8>, Option<u8>);

/// Builds a corpus from compact tuples.
fn corpus_from(rows: Vec<Row>, n_users: u32, vocab_size: u8) -> Corpus {
    let mut vocab = Vocabulary::new();
    for i in 0..vocab_size.max(1) {
        vocab.intern(&format!("kw{i}"));
    }
    let records: Vec<Record> = rows
        .into_iter()
        .enumerate()
        .map(|(i, (user, latc, lonc, hour, kws, mention))| Record {
            id: RecordId::from(i),
            user: UserId(user as u32 % n_users),
            timestamp: hour as i64 % 24 * 3600,
            location: GeoPoint::new((latc % 8) as f64 * 0.1, (lonc % 8) as f64 * 0.1),
            keywords: kws
                .into_iter()
                .map(|k| KeywordId(k as u32 % vocab_size.max(1) as u32))
                .collect(),
            mentions: mention
                .map(|m| vec![UserId(m as u32 % n_users)])
                .unwrap_or_default(),
        })
        .collect();
    Corpus::new("prop", records, vocab, n_users).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn activity_graph_invariants(
        rows in prop::collection::vec(
            (0u8..6, 0u8..8, 0u8..8, 0u8..24,
             prop::collection::vec(0u8..12, 1..6),
             prop::option::of(0u8..6)),
            1..40,
        )
    ) {
        let corpus = corpus_from(rows, 6, 12);
        let ids: Vec<RecordId> = (0..corpus.len()).map(RecordId::from).collect();
        let points: Vec<GeoPoint> = corpus.records().iter().map(|r| r.location).collect();
        let seconds: Vec<f64> =
            corpus.records().iter().map(|r| r.second_of_day()).collect();
        let spatial =
            SpatialHotspots::detect(&points, MeanShiftParams::with_bandwidth(0.05), 1);
        let temporal =
            TemporalHotspots::detect(&seconds, MeanShiftParams::with_bandwidth(3600.0), 1);
        let builder =
            ActivityGraphBuilder::new(&corpus, &spatial, &temporal, BuildOptions::default());
        let (graph, units) = builder.build(&ids);
        let space = graph.space();

        // Unit table covers every record.
        prop_assert_eq!(units.len(), corpus.len());

        // Every edge connects the endpoint types its edge type declares,
        // and weights are positive integers ≤ record count.
        for ty in EdgeType::ALL {
            let Some(te) = graph.edges(ty) else { continue };
            let (ta, tb) = ty.endpoints();
            for e in &te.edges {
                prop_assert_eq!(space.type_of(e.a), ta);
                prop_assert_eq!(space.type_of(e.b), tb);
                prop_assert!(e.weight >= 1.0);
                prop_assert!(e.weight <= corpus.len() as f64);
                prop_assert!((e.weight - e.weight.round()).abs() < 1e-9);
                if ty == EdgeType::WW {
                    prop_assert!(e.a < e.b, "WW edges stored canonically");
                } else {
                    prop_assert_ne!(e.a, e.b);
                }
            }
        }

        // TL total weight counts records exactly.
        let tl = graph.edges(EdgeType::TL).map_or(0.0, |t| t.total_weight());
        prop_assert_eq!(tl as usize, corpus.len());

        // The UT weight equals records plus extra links from mentions of
        // other users (each mention adds one user-unit connection).
        let ut = graph.edges(EdgeType::UT).map_or(0.0, |t| t.total_weight());
        let expected_ut: usize = corpus
            .records()
            .iter()
            .map(|r| 1 + r.mentions.iter().filter(|&&m| m != r.user).count())
            .sum();
        prop_assert_eq!(ut as usize, expected_ut);
    }
}
