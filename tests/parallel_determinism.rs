//! Determinism suite for the parallel preprocessing front-end.
//!
//! The contract (docs/PERFORMANCE.md): for any thread count, the parallel
//! hotspot detectors, activity/user graphs, alias tables, and meta-graph
//! instance counts are **bit-identical** to a single-threaded run —
//! merges are order-canonical, never first-writer-wins. This suite builds
//! the full preprocessing state at 1, 2, and 8 threads (plus a repeated
//! 8-thread run) and compares every output bit for bit: floats are
//! compared through `to_bits`, structures field by field through their
//! public accessors (edge lists, every CSR row, every record's units).

use actor_st::hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use actor_st::prelude::*;
use actor_st::stgraph::{
    ActivityGraphBuilder, BuildOptions, EdgeTables, EdgeType, MetaGraph, NodeId, UserGraph,
    NEGATIVE_POWER,
};
use mobility::{RecordId, UserId};

/// Everything the preprocessing front-end produces, flattened to
/// exactly-comparable form.
///
/// Alias tables compare as `(node ids, prob bits, alias column)`.
type AliasPrint = (Vec<u32>, Vec<u64>, Vec<u32>);
/// Edge samplers compare as `(edge list, prob bits, alias column)`.
type SamplerPrint = (Vec<(u32, u32)>, Vec<u64>, Vec<u32>);
/// An edge type compares as `(edges as (a, b, weight bits), every CSR row
/// as (neighbors, weight bits))`.
type TypedEdgesPrint = (Vec<(u32, u32, u64)>, Vec<(Vec<u32>, Vec<u64>)>);
/// Record units compare as `(record, time, location, words, user)`.
type UnitsPrint = (u32, u32, u32, Vec<u32>, Option<u32>);
/// The user graph compares as `(edges, every user's (neighbor, weight bits) row)`.
type UserGraphPrint = (Vec<(u32, u32, u64)>, Vec<Vec<(u32, u64)>>);

#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    spatial_centers: Vec<(u64, u64)>,
    spatial_counts: Vec<usize>,
    temporal_centers: Vec<u64>,
    temporal_counts: Vec<usize>,
    /// `[n_time, n_location, n_word, n_user]` of the graph's node space.
    space: [u32; 4],
    /// Per edge type: the canonical edge list and every CSR row.
    graph: Vec<Option<TypedEdgesPrint>>,
    units: Vec<UnitsPrint>,
    user_graph: UserGraphPrint,
    /// Per edge type: sampler edge list + alias table columns.
    samplers: Vec<Option<SamplerPrint>>,
    /// Per edge type and side: negative table nodes + alias columns.
    neg_tables: Vec<Vec<AliasPrint>>,
    metagraph_counts: Vec<u64>,
}

fn fingerprint(corpus: &Corpus, train_ids: &[RecordId], n_threads: usize) -> Fingerprint {
    let _guard = par::override_threads(n_threads);

    let points: Vec<GeoPoint> = train_ids
        .iter()
        .map(|&id| corpus.record(id).location)
        .collect();
    let seconds: Vec<f64> = train_ids
        .iter()
        .map(|&id| corpus.record(id).second_of_day())
        .collect();
    let spatial = SpatialHotspots::detect(&points, MeanShiftParams::with_bandwidth(0.01), 3);
    let temporal = TemporalHotspots::detect(&seconds, MeanShiftParams::with_bandwidth(1800.0), 3);

    let builder = ActivityGraphBuilder::new(corpus, &spatial, &temporal, BuildOptions::default());
    let (graph, units) = builder.build(train_ids);
    let user_graph = UserGraph::build(corpus, train_ids);

    let space = graph.space();
    let graph_print = EdgeType::ALL.iter().map(|&ty| {
        let t = graph.edges(ty)?;
        let edges = t.edges.iter().map(|e| (e.a.0, e.b.0, e.weight.to_bits()));
        let rows = (0..t.csr.n_rows() as u32).map(|i| {
            let (nodes, weights) = t.csr.row(NodeId(i));
            (
                nodes.iter().map(|n| n.0).collect(),
                weights.iter().map(|w| w.to_bits()).collect(),
            )
        });
        Some((edges.collect(), rows.collect()))
    });
    let units_print = units.iter().map(|u| {
        let words = u.words.iter().map(|w| w.0).collect();
        (
            u.record.0,
            u.time.0,
            u.location.0,
            words,
            u.user.map(|n| n.0),
        )
    });
    let user_edges = user_graph
        .edges()
        .iter()
        .map(|&(a, b, w)| (a.0, b.0, w.to_bits()));
    let user_rows = (0..user_graph.n_users()).map(|u| {
        let row = user_graph.neighbors(UserId(u));
        row.iter().map(|&(v, w)| (v.0, w.to_bits())).collect()
    });

    // The tables fit trains from, through the builder fit uses.
    let tables = EdgeTables::build(&graph, &EdgeType::ALL, NEGATIVE_POWER);
    let samplers = EdgeType::ALL
        .iter()
        .map(|&ty| {
            tables.sampler(ty).map(|s| {
                (
                    s.edges().iter().map(|&(a, b)| (a.0, b.0)).collect(),
                    s.alias().probs().iter().map(|p| p.to_bits()).collect(),
                    s.alias().aliases().to_vec(),
                )
            })
        })
        .collect();
    let neg_tables = EdgeType::ALL
        .iter()
        .map(|&ty| {
            let (a, b) = ty.endpoints();
            [a, b]
                .into_iter()
                .filter_map(|side| tables.negatives(ty, side))
                .map(|t| {
                    (
                        t.nodes().iter().map(|n| n.0).collect(),
                        t.alias().probs().iter().map(|p| p.to_bits()).collect(),
                        t.alias().aliases().to_vec(),
                    )
                })
                .collect()
        })
        .collect();
    let metagraph_counts = MetaGraph::ALL
        .iter()
        .map(|m| m.count_instances(&graph, &user_graph).to_bits())
        .collect();

    Fingerprint {
        spatial_centers: spatial
            .centers()
            .iter()
            .map(|p| (p.lat.to_bits(), p.lon.to_bits()))
            .collect(),
        spatial_counts: spatial.counts().to_vec(),
        temporal_centers: temporal.centers().iter().map(|c| c.to_bits()).collect(),
        temporal_counts: temporal.counts().to_vec(),
        space: [space.n_time, space.n_location, space.n_word, space.n_user],
        graph: graph_print.collect(),
        units: units_print.collect(),
        user_graph: (user_edges.collect(), user_rows.collect()),
        samplers,
        neg_tables,
        metagraph_counts,
    }
}

fn corpus_and_split() -> (Corpus, Vec<RecordId>) {
    // Utgeo2011 has mentions, so the user graph, UT/UL/UW types, and all
    // six inter meta-graph schemes are exercised.
    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(20140801)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    (corpus, split.train)
}

#[test]
fn preprocessing_is_bit_identical_across_thread_counts() {
    let (corpus, train) = corpus_and_split();
    let serial = fingerprint(&corpus, &train, 1);
    assert!(!serial.spatial_centers.is_empty());
    assert!(!serial.temporal_centers.is_empty());
    assert!(serial.samplers.iter().flatten().count() >= 4);

    for n in [2usize, 8] {
        let parallel = fingerprint(&corpus, &train, n);
        assert_eq!(
            serial.spatial_centers, parallel.spatial_centers,
            "spatial centers diverge at {n} threads"
        );
        assert_eq!(serial.spatial_counts, parallel.spatial_counts);
        assert_eq!(serial.temporal_centers, parallel.temporal_centers);
        assert_eq!(serial.temporal_counts, parallel.temporal_counts);
        assert_eq!(serial.space, parallel.space);
        assert_eq!(
            serial.graph, parallel.graph,
            "activity graph (edge lists, CSR rows) diverges at {n} threads"
        );
        assert_eq!(serial.units, parallel.units);
        assert_eq!(serial.user_graph, parallel.user_graph);
        assert_eq!(
            serial.samplers, parallel.samplers,
            "alias tables diverge at {n} threads"
        );
        assert_eq!(serial.neg_tables, parallel.neg_tables);
        assert_eq!(
            serial.metagraph_counts, parallel.metagraph_counts,
            "meta-graph instance counts diverge at {n} threads"
        );
    }
}

#[test]
fn repeated_runs_at_eight_threads_are_identical() {
    let (corpus, train) = corpus_and_split();
    let a = fingerprint(&corpus, &train, 8);
    let b = fingerprint(&corpus, &train, 8);
    assert_eq!(a, b);
}

#[test]
fn full_fit_is_unchanged_by_preprocessing_threads() {
    // End-to-end guard: the trained model (which consumes hotspots, graph,
    // and alias tables, and already fixes its own SGD thread count via
    // `ActorConfig::threads`) must not observe the preprocessing thread
    // count at all.
    let (corpus, train) = corpus_and_split();
    let mut config = ActorConfig::fast();
    config.threads = 1; // single-threaded SGD is bit-deterministic
    let centers = |n: usize| {
        let _guard = par::override_threads(n);
        let (model, _) = fit(&corpus, &train, &config).unwrap();
        model
            .store()
            .centers
            .row(0)
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u32>>()
    };
    assert_eq!(centers(1), centers(8));
}

/// FNV-1a over every center and context row and the loss trace of a
/// `threads = 1` fit of `ActorConfig::fast()` changed by `tweak`, as raw
/// bits.
fn single_thread_fit_fingerprint(tweak: impl FnOnce(&mut ActorConfig)) -> u64 {
    let (corpus, train) = corpus_and_split();
    let mut config = ActorConfig::fast();
    config.threads = 1;
    tweak(&mut config);
    let (model, report) = fit(&corpus, &train, &config).unwrap();
    let store = model.store();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for matrix in [&store.centers, &store.contexts] {
        for i in 0..matrix.n_rows() {
            matrix
                .row(i)
                .iter()
                .for_each(|x| eat(u64::from(x.to_bits())));
        }
    }
    report.loss_trace.iter().for_each(|l| eat(l.to_bits()));
    hash
}

#[test]
fn single_thread_fit_matches_the_golden_fingerprint() {
    // The 1-thread SGD stream is a compatibility contract: a changed
    // shard seed, split or merge order shows up here even when every
    // caller of the driver changes together.
    assert_eq!(single_thread_fit_fingerprint(|_| {}), 8939872798215476721);
}

#[test]
fn ablated_single_thread_fits_match_their_golden_fingerprints() {
    // The default config trains intra edges through the record bag and
    // anneals; these pin the typed-edge intra path (each intra type drawn
    // as an edge), the fit without inter-record batches, and the constant
    // learning rate.
    let without_intra_bag = single_thread_fit_fingerprint(|c| c.use_intra_bag = false);
    assert_eq!(without_intra_bag, 12260718637654011929);
    let without_inter = single_thread_fit_fingerprint(|c| c.use_inter = false);
    assert_eq!(without_inter, 14178424038942637215);
    let anneal_off = single_thread_fit_fingerprint(|c| c.anneal = false);
    assert_eq!(anneal_off, 1092396860641383347);
}
