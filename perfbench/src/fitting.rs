//! The batch side: corpus generation, `fit`, evaluation, and the traced
//! stage-by-stage replay of the preprocessing `fit` runs internally.

use actor_core::{ActorConfig, FitReport, TrainedModel};
use embed::{EmbeddingStore, LineOrder, LineParams, LineTrainer, NegativeSamplingUpdate};
use hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use mobility::synth::{generate, DatasetPreset};
use mobility::{Corpus, CorpusSplit, GeoPoint, SplitSpec};
use rand::{rngs::StdRng, SeedableRng};
use stgraph::{
    ActivityGraphBuilder, BuildOptions, EdgeSampler, EdgeType, NegativeTable, NodeType, UserGraph,
};

use crate::record::Report;
use crate::stats::{median, timed};
use crate::trace::Tracer;

/// A generated corpus and its train/valid/test split.
pub struct Data {
    pub corpus: Corpus,
    pub split: CorpusSplit,
}

/// Seed of the synthetic worlds the workloads run on. Each workload has
/// one fixed dataset, as a benchmark on real data would; the workload
/// seed draws everything sampled from it (split, training, evaluation
/// candidates, query keys, stream order).
pub const WORLD_SEED: u64 = 2011;

/// Corpus size of a workload: synth-utgeo2011 at `n_records`, or the
/// preset's miniature (3k records, 600 users) when `n_records` is `None`.
#[derive(Debug, Clone, Copy)]
pub struct DataSpec {
    pub n_records: Option<usize>,
}

impl DataSpec {
    /// Generates the corpus and its split for `seed`; the same seed gives
    /// the same split.
    pub fn make(self, seed: u64) -> Data {
        let preset = DatasetPreset::Utgeo2011;
        let config = match self.n_records {
            Some(n) => {
                let mut c = preset.config(WORLD_SEED);
                c.n_records = n;
                c
            }
            None => preset.small_config(WORLD_SEED),
        };
        let (corpus, _) = generate(config).expect("synth-utgeo2011 configs are valid");
        let split = CorpusSplit::new(
            &corpus,
            SplitSpec {
                seed: seed ^ 0x5117,
                ..SplitSpec::default()
            },
        )
        .expect("default split fractions are valid");
        Data { corpus, split }
    }
}

/// Seconds each timed set-up batch should last. One generation takes
/// 20–100 ms, and this host alternates between a fast and a slow state
/// every fraction of a second; a batch this long spans several states, so
/// its per-generation time is steady where a single generation's is not.
const SETUP_BATCH_SECS: f64 = 0.3;

/// Timed set-up batches of a fit workload: corpus generations, each batch
/// long enough to span several host states.
pub struct Setup {
    spec: DataSpec,
    seed: u64,
    /// Generations per batch.
    batch: usize,
    /// Per-generation seconds of each batch.
    secs: Vec<f64>,
}

impl Setup {
    /// Generates the corpus once untimed (the process's first allocations
    /// fault in fresh pages), then times `reps` batches; returns the last
    /// corpus.
    pub fn start(spec: DataSpec, seed: u64, reps: usize) -> (Self, Data) {
        let (_, first) = timed(|| spec.make(seed));
        let batch = ((SETUP_BATCH_SECS / first.max(1e-3)).ceil() as usize).clamp(1, 50);
        let mut setup = Self {
            spec,
            seed,
            batch,
            secs: Vec::new(),
        };
        let data = setup.time_batches(reps.max(1));
        (setup, data)
    }

    /// Times `reps` more batches, so that batches taken at different
    /// points of a run sample different host states; returns the last
    /// corpus.
    pub fn time_batches(&mut self, reps: usize) -> Data {
        let mut data = None;
        for _ in 0..reps {
            let (d, s) = timed(|| {
                for _ in 1..self.batch {
                    drop(self.spec.make(self.seed));
                }
                self.spec.make(self.seed)
            });
            self.secs.push(s / self.batch as f64);
            data = Some(d);
        }
        data.expect("at least one batch")
    }

    /// Reports the median per-generation time as `setup_s`.
    pub fn report(&self, rep: &mut Report) {
        rep.info("setup_batch", self.batch);
        rep.set("setup_s", median(&self.secs), self.secs.len() * self.batch);
    }
}

/// One `fit` call on the training split, timed end to end.
pub fn fit_timed(tr: &Tracer, data: &Data, config: &ActorConfig) -> (TrainedModel, FitReport, f64) {
    let ((model, report), secs) = tr.time("core.fit", || {
        actor_core::fit(&data.corpus, &data.split.train, config)
            .expect("benchmark configs are valid")
    });
    (model, report, secs)
}

/// Fits at least `min_fits` times and keeps fitting while another fit is
/// expected to end within `budget_s` seconds of the first one starting;
/// reports the median as `fit_s` and returns the last model.
pub fn fit_repeated(
    tr: &Tracer,
    rep: &mut Report,
    data: &Data,
    config: &ActorConfig,
    min_fits: usize,
    budget_s: f64,
) -> (TrainedModel, FitReport, f64) {
    let mut secs: Vec<f64> = Vec::new();
    loop {
        let (model, report, s) = fit_timed(tr, data, config);
        secs.push(s);
        check_model(rep, &model, &report);
        let spent: f64 = secs.iter().sum();
        if secs.len() >= min_fits && spent + median(&secs) > budget_s {
            rep.set("fit_s", median(&secs), secs.len());
            return (model, report, s);
        }
    }
}

/// Output checks on a fitted model: every embedding finite and the
/// report's structure consistent with the model.
pub fn check_model(rep: &mut Report, model: &TrainedModel, report: &FitReport) {
    rep.ops(1, 0);
    let store = model.store();
    let bad_rows = (0..store.n_nodes())
        .filter(|&i| {
            !(store.centers.row(i).iter().all(|x| x.is_finite())
                && store.contexts.row(i).iter().all(|x| x.is_finite()))
        })
        .count();
    rep.check(
        "fit.embeddings_finite",
        bad_rows == 0,
        format!(
            "{bad_rows} of {} rows hold a non-finite value",
            store.n_nodes()
        ),
    );
    let space = model.space();
    rep.check(
        "fit.structure",
        report.n_nodes == space.len()
            && report.n_spatial == space.count(NodeType::Location) as usize
            && report.n_temporal == space.count(NodeType::Time) as usize
            && report.n_spatial > 0
            && report.n_temporal > 0
            && report.n_edges > 0,
        format!(
            "report nodes/spatial/temporal/edges {}/{}/{}/{} vs model {}/{}/{}",
            report.n_nodes,
            report.n_spatial,
            report.n_temporal,
            report.n_edges,
            space.len(),
            space.count(NodeType::Location),
            space.count(NodeType::Time)
        ),
    );
}

/// MRR of 11-candidate ranking with the true candidate placed at random:
/// what a model that knows nothing scores.
const RANDOM_MRR: f64 = 0.2745;

/// Evaluates `model` on the test split's three prediction tasks and
/// checks each MRR clears its floor.
pub fn evaluate(rep: &mut Report, model: &TrainedModel, data: &Data, seed: u64) {
    let params = evalkit::EvalParams {
        seed: seed ^ 0xE7A1,
        ..evalkit::EvalParams::default()
    };
    let summary = evalkit::evaluate_all(model, &data.corpus, &data.split.test, &params);
    let time = summary.time.unwrap_or(0.0);
    rep.set("mrr_text", summary.text, summary.n_queries);
    rep.set("mrr_location", summary.location, summary.n_queries);
    rep.set("mrr_time", time, summary.n_queries);
    rep.ops(3 * summary.n_queries as u64, 0);
    // Text and location beat chance on every preset, even with the fast
    // configuration; time-of-day is barely above it by design of the
    // corpus (uniform posting hours).
    for (task, mrr, floor) in [
        ("text", summary.text, RANDOM_MRR + 0.01),
        ("location", summary.location, RANDOM_MRR + 0.01),
        ("time", time, RANDOM_MRR - 0.05),
    ] {
        rep.check(
            format!("eval.mrr_{task}_floor"),
            mrr > floor,
            format!(
                "{mrr:.4} vs floor {floor:.4} over {} queries",
                summary.n_queries
            ),
        );
    }
}

/// The traced replay: runs each preprocessing stage of `fit` on its own
/// under a span, checks that it reproduces the fit's hotspot and edge
/// counts, times the alias draw and SGD step kernels on the replayed
/// graph, and reports the per-layer metrics. Returns the share by which
/// the replayed stages plus the fit's own training time miss `fit_s`.
pub fn replay_layers(
    tr: &Tracer,
    rep: &mut Report,
    data: &Data,
    config: &ActorConfig,
    report: &FitReport,
    fit_s: f64,
) -> f64 {
    let corpus = &data.corpus;
    let train = &data.split.train;
    let _replay = tr.span("replay");
    let points: Vec<GeoPoint> = train.iter().map(|&id| corpus.record(id).location).collect();
    let seconds: Vec<f64> = train
        .iter()
        .map(|&id| (corpus.record(id).timestamp as f64).rem_euclid(config.temporal_period))
        .collect();

    let iterations_before = meanshift_iterations();
    let (spatial, spatial_s) = tr.time("hotspot.spatial_detect", || {
        SpatialHotspots::detect(
            &points,
            MeanShiftParams::with_bandwidth(config.spatial_bandwidth),
            config.min_hotspot_support,
        )
    });
    let (temporal, temporal_s) = tr.time("hotspot.temporal_detect", || {
        TemporalHotspots::detect_with_period(
            &seconds,
            config.temporal_period,
            MeanShiftParams::with_bandwidth(config.temporal_bandwidth),
            config.min_hotspot_support,
        )
    });
    let iterations = meanshift_iterations() - iterations_before;

    let ((graph, units), activity_s) = tr.time("stgraph.activity_build", || {
        ActivityGraphBuilder::new(
            corpus,
            &spatial,
            &temporal,
            BuildOptions {
                include_users: true,
                include_mentioned_users: config.include_mentioned_users,
            },
        )
        .build(train)
    });
    let (user_graph, user_s) = tr.time("stgraph.user_build", || UserGraph::build(corpus, train));
    let (tables, tables_s) = tr.time("stgraph.tables", || {
        par::par_map(&EdgeType::ALL, |_, &ty| {
            let sampler = EdgeSampler::new(&graph, ty);
            let (a, b) = ty.endpoints();
            let negs: Vec<(NodeType, NegativeTable)> = [a, b]
                .into_iter()
                .filter_map(|side| {
                    NegativeTable::with_power(&graph, ty, side, config.negative_power)
                        .map(|t| (side, t))
                })
                .collect();
            (ty, sampler, negs)
        })
    });

    let line_s = if config.use_inter && !user_graph.is_empty() {
        let edges: Vec<(u32, u32, f64)> = user_graph
            .edges()
            .iter()
            .map(|&(a, b, w)| (a.0, b.0, w))
            .collect();
        match LineTrainer::new(user_graph.n_users() as usize, &edges) {
            Some(line) => {
                let params = LineParams {
                    dim: config.dim,
                    samples: config
                        .pretrain_samples
                        .min(100 * user_graph.n_edges() as u64),
                    threads: config.threads,
                    sgd: config.sgd(),
                    order: LineOrder::Second,
                    seed: config.seed ^ 0x11E,
                };
                tr.time("embed.line_train", || line.train(params)).1
            }
            None => 0.0,
        }
    } else {
        0.0
    };

    rep.check(
        "replay.counts",
        spatial.len() == report.n_spatial
            && temporal.len() == report.n_temporal
            && graph.n_nodes() == report.n_nodes
            && graph.n_edges() == report.n_edges
            && user_graph.n_edges() == report.n_user_edges,
        format!(
            "replay spatial/temporal/nodes/edges/user-edges {}/{}/{}/{}/{} vs fit {}/{}/{}/{}/{}",
            spatial.len(),
            temporal.len(),
            graph.n_nodes(),
            graph.n_edges(),
            user_graph.n_edges(),
            report.n_spatial,
            report.n_temporal,
            report.n_nodes,
            report.n_edges,
            report.n_user_edges
        ),
    );

    rep.set("hotspot.spatial_detect_s", spatial_s, 1);
    rep.set("hotspot.temporal_detect_s", temporal_s, 1);
    rep.set("hotspot.meanshift_iterations", iterations as f64, 1);
    rep.set("stgraph.activity_build_s", activity_s, 1);
    rep.set("stgraph.user_build_s", user_s, 1);
    rep.set("stgraph.tables_s", tables_s, 1);
    rep.set("embed.line_train_s", line_s, 1);

    let updates = report
        .telemetry
        .counters
        .iter()
        .find(|c| c.name == "core.train.updates")
        .map_or(0, |c| c.value);
    rep.set("core.train_s", report.train_seconds, 1);
    rep.set(
        "core.updates_per_s",
        updates as f64 / report.train_seconds.max(1e-9),
        updates as usize,
    );

    kernels(tr, rep, &graph, &units, &tables);

    let staged =
        spatial_s + temporal_s + activity_s + user_s + tables_s + line_s + report.train_seconds;
    staged / fit_s - 1.0
}

/// Total mean-shift iterations the program has recorded so far.
fn meanshift_iterations() -> u64 {
    obs::snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "hotspot.meanshift.iterations")
        .map_or(0, |h| h.sum)
}

type Tables = Vec<(
    EdgeType,
    Option<EdgeSampler>,
    Vec<(NodeType, NegativeTable)>,
)>;

/// Alias draws and SGD steps at the paper's setting (d = 128, K = 1) on
/// edges sampled from the replayed graph. Inputs are drawn before the
/// timed loops, so each loop times one kernel only.
fn kernels(
    tr: &Tracer,
    rep: &mut Report,
    graph: &stgraph::ActivityGraph,
    units: &[stgraph::build::RecordUnits],
    tables: &Tables,
) {
    const DRAWS: usize = 2_000_000;
    const STEPS: usize = 400_000;
    const BAG_STEPS: usize = 150_000;
    let mut rng = StdRng::seed_from_u64(0xBE7C);

    let samplers: Vec<&EdgeSampler> = tables.iter().filter_map(|(_, s, _)| s.as_ref()).collect();
    let biggest = samplers
        .iter()
        .max_by_key(|s| s.len())
        .expect("the activity graph has edges");
    let (acc, draw_s) = tr.time("stgraph.alias_draw", || {
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            let (a, b) = biggest.sample(&mut rng);
            acc = acc.wrapping_add(u64::from(a.0 ^ b.0));
        }
        acc
    });
    std::hint::black_box(acc);
    rep.set("stgraph.alias_draw_ns", draw_s * 1e9 / DRAWS as f64, DRAWS);

    // (center, context, negative) triples over every trained edge type.
    let mut pairs: Vec<(usize, usize, usize)> = Vec::with_capacity(STEPS);
    let typed: Vec<(&EdgeSampler, &NegativeTable)> = tables
        .iter()
        .filter_map(|(ty, s, negs)| {
            let side = ty.endpoints().1;
            let neg = negs.iter().find(|(n, _)| *n == side).map(|(_, t)| t)?;
            Some((s.as_ref()?, neg))
        })
        .collect();
    for i in 0..STEPS {
        let (sampler, neg) = typed[i % typed.len()];
        let (a, b) = sampler.sample(&mut rng);
        pairs.push((a.idx(), b.idx(), neg.sample(&mut rng).idx()));
    }
    let location_neg = tables
        .iter()
        .find(|(ty, _, _)| *ty == EdgeType::LW)
        .and_then(|(_, _, negs)| negs.iter().find(|(n, _)| *n == NodeType::Location))
        .map(|(_, t)| t)
        .expect("LW edges have a location negative table");
    let bags: Vec<(Vec<usize>, usize, usize)> = (0..BAG_STEPS)
        .filter_map(|i| {
            let u = &units[(i * 7919) % units.len()];
            (!u.words.is_empty()).then(|| {
                (
                    u.words.iter().map(|w| w.idx()).collect(),
                    u.location.idx(),
                    location_neg.sample(&mut rng).idx(),
                )
            })
        })
        .collect();

    let paper = ActorConfig::default();
    let store = EmbeddingStore::init(graph.n_nodes(), paper.dim, &mut rng);
    let mut upd = NegativeSamplingUpdate::new(paper.dim, paper.sgd());
    let (loss, step_s) = tr.time("embed.sgd_step", || {
        let mut loss = 0.0;
        for &(c, x, n) in &pairs {
            loss += upd.step(&store, c, x, &mut rng, |_| n);
        }
        loss
    });
    let (bag_loss, bag_s) = tr.time("embed.sgd_step_bag", || {
        let mut loss = 0.0;
        for (bag, x, n) in &bags {
            loss += upd.step_bag(&store, bag, *x, &mut rng, |_| *n);
        }
        loss
    });
    rep.check(
        "kernels.finite",
        loss.is_finite() && bag_loss.is_finite(),
        format!("step loss {loss}, bag loss {bag_loss}"),
    );
    rep.set(
        "embed.sgd_step_ns",
        step_s * 1e9 / pairs.len() as f64,
        pairs.len(),
    );
    rep.set(
        "embed.sgd_step_bag_ns",
        bag_s * 1e9 / bags.len().max(1) as f64,
        bags.len(),
    );
}
