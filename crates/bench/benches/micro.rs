//! Criterion microbenchmarks backing the paper's complexity claim
//! (§5.4: one optimization step costs `O(d(K+1))` given O(1) alias
//! sampling, overall `O(dK|E|)`):
//!
//! * alias-table build and draw,
//! * the dot-product kernel and one negative-sampling SGD step (scalar
//!   in `d`), unclipped and with the ACTOR fit's clipping,
//! * the serving kernel `dot_unit`, and one HNSW graph build and top-10
//!   search at the size of one modality of the serving benchmark's model
//!   (3000 clustered unit vectors of width 64),
//! * spatial and temporal hotspot detection (mean-shift), the temporal one
//!   at 3k and at the benchmark's 30k records,
//! * activity-graph construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use actor_core::ActorConfig;
use embed::{EmbeddingStore, NegativeSamplingUpdate, SgdParams};
use hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use mobility::synth::{generate, DatasetPreset};
use mobility::GeoPoint;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serve::hnsw::{HnswIndex, SearchScratch, VectorSource};
use serve::testkit::clustered_unit_vectors;
use stgraph::{ActivityGraphBuilder, AliasTable, BuildOptions};

fn bench_alias(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let weights: Vec<f64> = (0..100_000).map(|_| rng.random_range(0.1..10.0)).collect();

    {
        let mut g = c.benchmark_group("alias_build");
        g.sample_size(30);
        g.bench_function("alias/build_100k", |b| {
            b.iter(|| AliasTable::new(black_box(&weights)).unwrap())
        });
        g.finish();
    }

    let table = AliasTable::new(&weights).unwrap();
    c.bench_function("alias/sample", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(table.sample(&mut rng)))
    });
}

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("math/dot");
    for dim in [32usize, 128, 300] {
        let mut rng = StdRng::seed_from_u64(5);
        let a: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bch, _| {
            bch.iter(|| embed::math::dot(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_dot_unit(c: &mut Criterion) {
    let mut group = c.benchmark_group("math/dot_unit");
    for dim in [64usize, 128] {
        let mut rng = StdRng::seed_from_u64(6);
        let a: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bch, _| {
            bch.iter(|| embed::math::dot_unit(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_hnsw(c: &mut Criterion) {
    let (n, dim) = (3000usize, 64);
    let vecs = clustered_unit_vectors(n, dim, 64, 7);
    let mut group = c.benchmark_group("hnsw");
    group.sample_size(5);
    group.bench_function("build_3k_d64", |b| {
        b.iter(|| HnswIndex::build(black_box(&vecs)))
    });
    let index = HnswIndex::build(&vecs);
    group.sample_size(20);
    group.bench_function("search_3k_d64_k10", |b| {
        let mut scratch = SearchScratch::new();
        let mut probe = 0u32;
        b.iter(|| {
            probe = (probe + 37) % n as u32;
            index.search(&vecs, black_box(vecs.vector(probe)), 10, None, &mut scratch)
        })
    });
    group.finish();
}

/// `sgd/step` runs with clipping off (`SgdParams::default()`, the
/// baselines' setting); `sgd/step_clipped` uses the ACTOR fit's
/// parameters, whose clipping adds two norms to every step.
fn bench_sgd_step(c: &mut Criterion) {
    for (name, params) in [
        ("sgd/step", SgdParams::default()),
        ("sgd/step_clipped", ActorConfig::default().sgd()),
    ] {
        let mut group = c.benchmark_group(name);
        for dim in [32usize, 128, 300] {
            let mut rng = StdRng::seed_from_u64(3);
            let store = EmbeddingStore::init(1000, dim, &mut rng);
            group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
                let mut upd = NegativeSamplingUpdate::new(dim, params);
                let mut rng = StdRng::seed_from_u64(4);
                b.iter(|| {
                    let center = rng.random_range(0..1000);
                    let ctx = rng.random_range(0..1000);
                    upd.step(&store, center, ctx, &mut rng, |r| r.random_range(0..1000))
                })
            });
        }
        group.finish();
    }
}

fn bench_meanshift(c: &mut Criterion) {
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(5)).unwrap();
    let points: Vec<GeoPoint> = corpus.records().iter().map(|r| r.location).collect();
    let seconds: Vec<f64> = corpus.records().iter().map(|r| r.second_of_day()).collect();

    let mut c = c.benchmark_group("meanshift");
    c.sample_size(10);
    c.bench_function("meanshift/spatial_3k", |b| {
        b.iter(|| {
            SpatialHotspots::detect(
                black_box(&points),
                MeanShiftParams::with_bandwidth(0.008),
                3,
            )
        })
    });
    // The benchmark's corpus size beside the small one: a window holds ~n·2h/day
    // values, while a prefix-sum window mean costs O(log n).
    let mut config = DatasetPreset::Foursquare.config(5);
    config.n_records = 30_000;
    let (corpus_30k, _) = generate(config).unwrap();
    let seconds_30k: Vec<f64> = corpus_30k
        .records()
        .iter()
        .map(|r| r.second_of_day())
        .collect();
    for (name, seconds) in [
        ("meanshift/temporal_3k", &seconds),
        ("meanshift/temporal_30k", &seconds_30k),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                TemporalHotspots::detect(
                    black_box(seconds),
                    MeanShiftParams::with_bandwidth(1800.0),
                    3,
                )
            })
        });
    }
    c.finish();
}

fn bench_graph_build(c: &mut Criterion) {
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(6)).unwrap();
    let points: Vec<GeoPoint> = corpus.records().iter().map(|r| r.location).collect();
    let seconds: Vec<f64> = corpus.records().iter().map(|r| r.second_of_day()).collect();
    let spatial = SpatialHotspots::detect(&points, MeanShiftParams::with_bandwidth(0.008), 3);
    let temporal = TemporalHotspots::detect(&seconds, MeanShiftParams::with_bandwidth(1800.0), 3);
    let ids: Vec<mobility::RecordId> = (0..corpus.len()).map(mobility::RecordId::from).collect();

    let mut c = c.benchmark_group("graph");
    c.sample_size(10);
    c.bench_function("graph/build_3k_records", |b| {
        let builder =
            ActivityGraphBuilder::new(&corpus, &spatial, &temporal, BuildOptions::default());
        b.iter(|| builder.build(black_box(&ids)))
    });
    c.finish();
}

criterion_group!(
    benches,
    bench_alias,
    bench_dot,
    bench_dot_unit,
    bench_sgd_step,
    bench_meanshift,
    bench_graph_build,
    bench_hnsw
);
criterion_main!(benches);
