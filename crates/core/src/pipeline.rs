//! The end-to-end ACTOR fitting pipeline (Algorithm 1).

use std::sync::Arc;
use std::time::Instant;

use embed::{
    annealed, EmbeddingStore, LineOrder, LineParams, LineTrainer, NegativeSamplingUpdate, StepPlan,
};
use hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use mobility::{Corpus, GeoPoint, RecordId};
use rand::seq::IndexedRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use stgraph::build::RecordUnits;
use stgraph::{
    ActivityGraph, ActivityGraphBuilder, BuildOptions, EdgeTables, EdgeType, NodeType, UserGraph,
};

use crate::config::ActorConfig;
use crate::error::FitError;
use crate::model::{ModelArtifacts, TrainedModel};

/// Diagnostics emitted by [`fit`].
///
/// The structural counts and stage timings are a convenience view over
/// the run's [`obs`] telemetry: timings come from the `core.fit.*` spans
/// and the full span tree / counter set rides along in
/// [`FitReport::telemetry`] (render it with
/// [`obs::RunTelemetry::render_tree`] or serialize it with
/// [`obs::RunTelemetry::to_json`]).
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Detected spatial hotspots.
    pub n_spatial: usize,
    /// Detected temporal hotspots.
    pub n_temporal: usize,
    /// Activity graph vertices.
    pub n_nodes: usize,
    /// Activity graph edges.
    pub n_edges: usize,
    /// User interaction graph edges.
    pub n_user_edges: usize,
    /// Whether the user layer was pre-trained (line 3 ran).
    pub pretrained: bool,
    /// Wall-clock seconds spent in the SGD loop (lines 5–11).
    pub train_seconds: f64,
    /// Mean per-update loss in 20 progress buckets across training
    /// (negative log-likelihood of Eq. 7); a decreasing curve is the
    /// convergence diagnostic.
    pub loss_trace: Vec<f64>,
    /// Total wall-clock seconds of the whole fit.
    pub total_seconds: f64,
    /// Everything the telemetry registry recorded during this fit:
    /// the nested `core.fit.*` span tree plus the counters and histograms
    /// flushed by the lower layers (hotspot, stgraph, embed).
    pub telemetry: obs::RunTelemetry,
}

/// Fits ACTOR on the training split of `corpus`.
///
/// Each Algorithm-1 stage runs under an [`obs`] span (`core.fit.hotspot`,
/// `.graph`, `.pretrain`, `.train` nested in `core.fit`), so a live
/// [`obs::Reporter`] shows where a long fit currently is and the returned
/// [`FitReport::telemetry`] carries the per-stage breakdown.
pub fn fit(
    corpus: &Corpus,
    train_ids: &[RecordId],
    config: &ActorConfig,
) -> Result<(TrainedModel, FitReport), FitError> {
    let mut run = FitRun::start(corpus, train_ids, config)?;
    let train = obs::span!("core.fit.train");
    train_epoch_range(&run.prep, config, 0, config.max_epochs, 1.0, &mut run.trace);
    Ok(run.finish(train))
}

/// One fit from its prologue to its report. [`fit`] and the resilience
/// driver ([`crate::fit_checkpointed`]) both start and finish through it,
/// and differ only in how they run lines 5–11 in between.
pub(crate) struct FitRun {
    pub prep: Prepared,
    /// `(loss sum, update count)` per [`FitReport::loss_trace`] bucket.
    pub trace: Vec<(f64, u64)>,
    baseline: obs::Snapshot,
    span: obs::Span,
}

impl FitRun {
    /// Validates `config` and the split, then opens `core.fit` and runs
    /// Algorithm-1 lines 1–4 ([`prepare`]).
    pub(crate) fn start(
        corpus: &Corpus,
        train_ids: &[RecordId],
        config: &ActorConfig,
    ) -> Result<Self, FitError> {
        config.validate()?;
        if train_ids.is_empty() {
            return Err(FitError::EmptyTrainingSplit);
        }
        let baseline = obs::snapshot();
        let span = obs::span!("core.fit");
        Ok(Self {
            prep: prepare(corpus, train_ids, config),
            trace: vec![(0.0, 0); TRACE_BUCKETS],
            baseline,
            span,
        })
    }

    /// Closes `train` (the `core.fit.train` span), then `core.fit`, and
    /// hands back the model with its [`FitReport`].
    pub(crate) fn finish(self, train: obs::Span) -> (TrainedModel, FitReport) {
        let train_seconds = train.finish().as_secs_f64();
        let total_seconds = self.span.finish().as_secs_f64();
        let prep = self.prep;
        let report = FitReport {
            n_spatial: prep.artifacts.spatial.len(),
            n_temporal: prep.artifacts.temporal.len(),
            n_nodes: prep.graph.n_nodes(),
            n_edges: prep.graph.n_edges(),
            n_user_edges: prep.n_user_edges,
            pretrained: prep.pretrained,
            train_seconds,
            loss_trace: self
                .trace
                .iter()
                .map(|&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
                .collect(),
            total_seconds,
            telemetry: obs::RunTelemetry::since(&self.baseline),
        };
        (
            TrainedModel::from_shared(prep.artifacts, prep.store),
            report,
        )
    }
}

/// Everything Algorithm-1 lines 1–4 produce: the shared immutable
/// [`ModelArtifacts`] (hotspots, layout, vocab, config — built here,
/// never copied again), the initialized embedding store, and the training
/// context (graph, samplers, negative tables) that lines 5–11 consume.
///
/// Splitting preparation from training lets the resilience driver
/// ([`crate::fit_checkpointed`]) run the SGD loop as a sequence of
/// checkpointed segments over one shared `Prepared` — and swap the store
/// for a restored snapshot between segments.
pub(crate) struct Prepared {
    pub artifacts: Arc<ModelArtifacts>,
    pub store: EmbeddingStore,
    pub graph: ActivityGraph,
    pub units: Vec<RecordUnits>,
    pub tables: EdgeTables,
    pub n_user_edges: usize,
    pub pretrained: bool,
}

/// Algorithm-1 line 1: the spatial and temporal hotspots of the records in
/// `train_ids`, found by mean-shift with `config`'s bandwidths, temporal
/// period and minimum support. ACTOR's fit and the baselines' shared
/// substrate both take their hotspots from here.
pub fn detect_hotspots(
    corpus: &Corpus,
    train_ids: &[RecordId],
    config: &ActorConfig,
) -> (SpatialHotspots, TemporalHotspots) {
    let points: Vec<GeoPoint> = train_ids
        .iter()
        .map(|&id| corpus.record(id).location)
        .collect();
    let seconds: Vec<f64> = train_ids
        .iter()
        .map(|&id| (corpus.record(id).timestamp as f64).rem_euclid(config.temporal_period))
        .collect();
    let spatial = SpatialHotspots::detect(
        &points,
        MeanShiftParams::with_bandwidth(config.spatial_bandwidth),
        config.min_hotspot_support,
    );
    let temporal = TemporalHotspots::detect_with_period(
        &seconds,
        config.temporal_period,
        MeanShiftParams::with_bandwidth(config.temporal_bandwidth),
        config.min_hotspot_support,
    );
    (spatial, temporal)
}

/// Algorithm-1 lines 1–4 (hotspots, graphs, LINE pre-training, unit
/// initialization) plus the sampler and negative-table construction that
/// lines 5–11 draw from. Deterministic given `(corpus, train_ids,
/// config)` — resuming a run re-derives this state instead of
/// checkpointing it.
pub(crate) fn prepare(corpus: &Corpus, train_ids: &[RecordId], config: &ActorConfig) -> Prepared {
    // Line 1: hotspot detection.
    let hotspot_span = obs::span!("core.fit.hotspot");
    let (spatial, temporal) = detect_hotspots(corpus, train_ids, config);
    hotspot_span.finish();

    // Line 2: graph construction.
    let graph_span = obs::span!("core.fit.graph");
    let builder = ActivityGraphBuilder::new(
        corpus,
        &spatial,
        &temporal,
        BuildOptions {
            include_users: true,
            include_mentioned_users: config.include_mentioned_users,
        },
    );
    let (graph, units) = builder.build(train_ids);
    let user_graph = UserGraph::build(corpus, train_ids);
    let space = *graph.space();
    graph_span.finish();

    // Line 3: pre-train the user layer with LINE (second order).
    let pretrain_span = obs::span!("core.fit.pretrain");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut store = EmbeddingStore::init(space.len(), config.dim, &mut rng);
    let mut pretrained = false;
    if config.use_inter && !user_graph.is_empty() {
        let edges: Vec<(u32, u32, f64)> = user_graph
            .edges()
            .iter()
            .map(|&(a, b, w)| (a.0, b.0, w))
            .collect();
        if let Some(line) = LineTrainer::new(user_graph.n_users() as usize, &edges) {
            // Cap pre-training at ~100 samples per user edge: skip-gram
            // norms grow with oversampling, and outsized user vectors
            // would dominate the line-4 initialization of every unit.
            let samples = config
                .pretrain_samples
                .min(100 * user_graph.n_edges() as u64);
            let user_store = line.train(LineParams {
                dim: config.dim,
                samples,
                threads: config.threads,
                sgd: config.sgd(),
                order: LineOrder::Second,
                seed: config.seed ^ 0x11E,
            });
            pretrained = true;

            // Copy user embeddings into the joint store (users keep their
            // pre-trained vectors; isolated users keep random init — the
            // "random vector" rule of §5.2.1).
            let user_off = space.offset(NodeType::User) as usize;
            for u in user_graph.connected_users() {
                store
                    .centers
                    .set_row(user_off + u.idx(), user_store.centers.row(u.idx()));
                store
                    .contexts
                    .set_row(user_off + u.idx(), user_store.contexts.row(u.idx()));
            }

            // Line 4: initialize each unit's *center* from its strongest
            // user, keeping the unit's own small noise so
            // identical-initialized units remain distinguishable. Contexts
            // stay zero (the word2vec convention) — seeding them too would
            // plant a large shared component that the annealed learning
            // rate never fully washes out.
            if config.init_scale != 0.0 {
                for ty in [NodeType::Time, NodeType::Location, NodeType::Word] {
                    for node in space.nodes_of(ty) {
                        if let Some(user_node) = graph.strongest_user_of(node) {
                            let user_center = store.centers.row(user_node.idx()).to_vec();
                            let row = store.centers.row_mut(node.idx());
                            for (x, &u) in row.iter_mut().zip(&user_center) {
                                *x += config.init_scale * u;
                            }
                        }
                    }
                }
            }
        }
    }
    pretrain_span.finish();

    // The samplers and negative tables lines 5–11 draw from.
    let sampler_span = obs::span!("core.fit.samplers");
    let tables = EdgeTables::build(&graph, &EdgeType::ALL, config.negative_power);
    sampler_span.finish();

    let artifacts = Arc::new(ModelArtifacts::new(
        space,
        spatial,
        temporal,
        corpus.vocab().clone(),
        config.clone(),
    ));

    Prepared {
        artifacts,
        store,
        graph,
        units,
        tables,
        n_user_edges: user_graph.n_edges(),
        pretrained,
    }
}

/// Number of progress buckets in [`FitReport::loss_trace`].
const TRACE_BUCKETS: usize = 20;

/// Aggregate SGD statistics of one trained segment.
pub(crate) struct SegmentStats {
    /// Mean per-update loss across the segment (`0.0` when nothing ran);
    /// the resilience driver feeds this to its divergence detector.
    pub mean_loss: f64,
    /// Pair updates performed in the segment.
    pub updates: u64,
}

/// Lines 5–11: alternate inter-record and intra-record mini-batches over
/// epochs `[epoch_start, epoch_end)` of a `config.max_epochs` schedule.
///
/// Per-type batch sizes follow each type's share of the total edge weight
/// ([`EdgeTables::batches`]; Algorithm 1's fixed `m` per type is read as
/// the inner-loop batch mechanism, not as an equal-weight prior over edge
/// types).
///
/// Work is split as `epochs × batches_per_type` rounds distributed over
/// Hogwild shards by `par::run_seeded`, so the total sample budget is
/// independent of the thread count (required by the weak-scaling
/// experiment, Fig. 12c). Each shard is a [`par::pipeline`]: a helper
/// thread draws round `r + 1` ([`RoundDraw`]) while the shard applies
/// round `r` ([`embed::StepPlan::apply`]), so `config.threads` shards run
/// on twice as many threads. A draw reads only the shard's RNG and the
/// frozen tables, and rounds are applied in draw order, so the update
/// stream is the one a serial draw-then-step loop produces, bit for bit.
/// Annealing progress and trace buckets are computed against the *whole*
/// schedule, so a run cut into checkpointed segments anneals exactly like
/// an uninterrupted one. `lr_scale` multiplies the learning rate
/// throughout the segment (the divergence-retry backoff; `1.0` is a
/// bit-exact no-op).
pub(crate) fn train_epoch_range(
    prep: &Prepared,
    config: &ActorConfig,
    epoch_start: usize,
    epoch_end: usize,
    lr_scale: f32,
    trace: &mut [(f64, u64)],
) -> SegmentStats {
    let total_epochs = config.max_epochs;
    debug_assert!(epoch_start <= epoch_end && epoch_end <= total_epochs);
    let span_epochs = epoch_end - epoch_start;
    let store = &prep.store;
    let tables = &prep.tables;

    // Live-throughput counter, flushed once per round (~7m updates) so the
    // SGD hot path never touches shared state.
    let updates_done = obs::counter("core.train.updates");
    // How long the apply side waits for each drawn round: near zero while
    // the draw thread keeps ahead.
    let draw_wait = obs::histogram("core.train.draw_wait_us");
    let rounds = (span_epochs * config.batches_per_type) as u64;
    let m = config.batch_size;

    // Weight shares over the trained edge types (Eq. 6's implicit mix).
    let weight = |types: &[EdgeType]| -> f64 { types.iter().map(|&t| tables.weight(t)).sum() };
    let inter_w = if config.use_inter {
        weight(&EdgeType::INTER)
    } else {
        0.0
    };
    let intra_w = weight(&EdgeType::INTRA);
    let total_w = (inter_w + intra_w).max(1e-12);
    // Round budget: 7m weighted samples, as if all seven types ran an
    // m-sized batch. Each bag draw performs ~7 pair updates, so the
    // record-sample count is scaled down accordingly.
    let round_budget = 7.0 * m as f64;
    const BAG_UPDATES_PER_DRAW: f64 = 7.0;
    // Typed-edge batches: the inter-record meta-graph types (lines 6–8),
    // then, without the record bag, the intra-record ones (lines 9–11).
    let mut edge_batches = Vec::new();
    if config.use_inter {
        edge_batches = tables.batches(&EdgeType::INTER, round_budget, total_w);
    }
    if !config.use_intra_bag {
        edge_batches.extend(tables.batches(&EdgeType::INTRA, round_budget, total_w));
    }
    let draw = RoundDraw {
        tables,
        units: &prep.units,
        edge_batches,
        bag_draws: if config.use_intra_bag {
            (round_budget * (intra_w / total_w) / BAG_UPDATES_PER_DRAW).round() as usize
        } else {
            0
        },
        negatives: config.negatives,
    };

    // Per-segment Hogwild seed. A segment starting at epoch 0 reproduces
    // the historical whole-run stream (`seed ^ 0xAC7`, the golden-ratio
    // term multiplies to zero), so plain `fit` is bit-identical to the
    // pre-resilience pipeline; later segments decorrelate from it.
    let seed = (config.seed ^ 0xAC7) ^ (epoch_start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let whole_run = epoch_start == 0 && epoch_end == total_epochs;

    let shard_traces = par::run_seeded(config.threads, rounds, seed, |rng, n| {
        let mut upd = NegativeSamplingUpdate::new(config.dim, config.sgd());
        let lr0 = config.learning_rate;
        if lr_scale != 1.0 {
            // Applies the backoff even when annealing is off (the loop
            // below never calls set_learning_rate then).
            upd.set_learning_rate(lr_scale * lr0);
        }
        let mut local = vec![(0.0f64, 0u64); TRACE_BUCKETS];
        let mut waiting_since = Instant::now();
        par::pipeline(
            n,
            |_, round: &mut DrawnRound| draw.fill(round, rng),
            |r, round| {
                draw_wait.record(waiting_since.elapsed().as_micros() as u64);
                // Linear annealing to 10% of η over the *whole-run*
                // budget: this thread's local round sits at global
                // fraction (e₀·n + span·r) / (E·n). The whole-run case
                // uses the reduced form r/n, which is the historical f32
                // sequence bit for bit.
                if config.anneal {
                    let progress = if whole_run {
                        r as f32 / n as f32
                    } else {
                        ((epoch_start as f64 + span_epochs as f64 * (r as f64 / n as f64))
                            / total_epochs as f64) as f32
                    };
                    upd.set_learning_rate(lr_scale * annealed(lr0, progress));
                }
                // Trace bucket from the same global fraction, in integer
                // arithmetic (the shared factors cancel exactly, so the
                // whole-run case matches the historical `r·B / n`).
                let num = epoch_start as u64 * n + span_epochs as u64 * r;
                let den = (total_epochs as u64 * n).max(1);
                let bucket = ((num * TRACE_BUCKETS as u64 / den) as usize).min(TRACE_BUCKETS - 1);
                local[bucket].0 += round.steps.apply(store, &mut upd);
                local[bucket].1 += round.updates;
                updates_done.add(round.updates);
                waiting_since = Instant::now();
            },
        );
        local
    });
    // Merge in shard order, so a given set of shard traces always sums
    // the same way.
    let (mut loss, mut updates) = (0.0f64, 0u64);
    for local in &shard_traces {
        for (t, &(sum, count)) in trace.iter_mut().zip(local) {
            t.0 += sum;
            t.1 += count;
        }
        loss += local.iter().map(|&(sum, _)| sum).sum::<f64>();
        updates += local.iter().map(|&(_, count)| count).sum::<u64>();
    }
    SegmentStats {
        mean_loss: if updates == 0 {
            0.0
        } else {
            loss / updates as f64
        },
        updates,
    }
}

/// One drawn SGD round, recycled from round to round by [`par::pipeline`].
#[derive(Default)]
struct DrawnRound {
    /// The round's steps in draw order.
    steps: StepPlan,
    /// Pair updates the round counts toward the loss trace: one per
    /// typed-edge draw, even one whose context side has no noise table,
    /// and one per record-bag step.
    updates: u64,
}

/// The draw stage of one SGD round: what a round draws, from tables that
/// stay frozen while it trains.
struct RoundDraw<'a> {
    tables: &'a EdgeTables,
    units: &'a [RecordUnits],
    /// `(type, draws)` typed-edge batches, in draw order.
    edge_batches: Vec<(EdgeType, usize)>,
    /// Record-bag draws per round (`0` without the bag).
    bag_draws: usize,
    /// Negatives per step, `K`.
    negatives: usize,
}

impl RoundDraw<'_> {
    /// Draws one round into `round`: the typed-edge batches, one step and
    /// one loss group per draw, then the record bags, one loss group per
    /// record.
    fn fill(&self, round: &mut DrawnRound, rng: &mut StdRng) {
        let k = self.negatives;
        let plan = &mut round.steps;
        plan.clear();
        round.updates = 0;
        for &(ty, count) in &self.edge_batches {
            for _ in 0..count {
                if let Some((center, context, noise)) = self.tables.draw(ty, rng) {
                    plan.push([center.idx()], context.idx(), k, rng, |r| {
                        noise.sample(r).idx()
                    });
                    plan.close_group();
                }
                round.updates += 1;
            }
        }
        // Intra-record meta-graph batches through the record bag
        // (lines 9–11).
        for _ in 0..self.bag_draws {
            let before = plan.len();
            self.draw_record_bag(plan, rng);
            plan.close_group();
            round.updates += (plan.len() - before) as u64;
        }
    }

    /// One intra-record draw with the bag-of-words textual representation
    /// (footnote 4): sample a record, then its T–L pair, its bag→L and
    /// bag→T alignments (plus reverse word-context updates), and W–W
    /// pairs.
    fn draw_record_bag(&self, plan: &mut StepPlan, rng: &mut StdRng) {
        let Some(rec) = self.units.choose(rng) else {
            return;
        };
        let (k, tables) = (self.negatives, self.tables);
        let (time, location) = (rec.time.idx(), rec.location.idx());
        let words = || rec.words.iter().map(|w| w.idx());

        // TL (both directions, random order).
        if let Some(neg) = tables.negatives(EdgeType::TL, NodeType::Location) {
            plan.push([time], location, k, rng, |r| neg.sample(r).idx());
        }
        if let Some(neg) = tables.negatives(EdgeType::TL, NodeType::Time) {
            plan.push([location], time, k, rng, |r| neg.sample(r).idx());
        }

        if !rec.words.is_empty() {
            // LW: bag → location, location → one word.
            if let Some(neg) = tables.negatives(EdgeType::LW, NodeType::Location) {
                plan.push(words(), location, k, rng, |r| neg.sample(r).idx());
            }
            if let Some(neg) = tables.negatives(EdgeType::LW, NodeType::Word) {
                let w = rec.words.choose(rng).expect("non-empty bag").idx();
                plan.push([location], w, k, rng, |r| neg.sample(r).idx());
            }
            // WT: bag → time, time → one word.
            if let Some(neg) = tables.negatives(EdgeType::WT, NodeType::Time) {
                plan.push(words(), time, k, rng, |r| neg.sample(r).idx());
            }
            if let Some(neg) = tables.negatives(EdgeType::WT, NodeType::Word) {
                let w = rec.words.choose(rng).expect("non-empty bag").idx();
                plan.push([time], w, k, rng, |r| neg.sample(r).idx());
            }
            // WW: up to three random ordered pairs — the record's word-pair
            // mass grows quadratically in its length, so a single pair would
            // under-train the heaviest intra edge class.
            let len = rec.words.len();
            if len >= 2 {
                if let Some(neg) = tables.negatives(EdgeType::WW, NodeType::Word) {
                    for _ in 0..(len * (len - 1) / 2).min(3) {
                        let i = rng.random_range(0..len);
                        let mut j = rng.random_range(0..len - 1);
                        if j >= i {
                            j += 1;
                        }
                        let (a, b) = (rec.words[i].idx(), rec.words[j].idx());
                        plan.push([a], b, k, rng, |r| neg.sample(r).idx());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embed::math::cosine;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::CorpusSplit;
    use mobility::SplitSpec;

    fn fit_small(seed: u64, tweak: impl FnOnce(&mut ActorConfig)) -> (TrainedModel, FitReport) {
        let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(seed)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let mut config = ActorConfig::fast();
        config.seed = seed;
        tweak(&mut config);
        fit(&corpus, &split.train, &config).unwrap()
    }

    #[test]
    fn fit_produces_sane_report() {
        let (model, report) = fit_small(1, |_| {});
        assert!(report.n_spatial > 3, "{report:?}");
        assert!(report.n_temporal >= 2, "{report:?}");
        assert!(report.n_edges > 100);
        assert!(report.n_user_edges > 0);
        assert!(report.pretrained);
        assert_eq!(model.space().n_word as usize, model.vocab().len());
    }

    #[test]
    fn loss_trace_decreases() {
        let (_, report) = fit_small(12, |c| {
            c.max_epochs = 40;
        });
        assert_eq!(report.loss_trace.len(), 20);
        assert!(report.loss_trace.iter().all(|&l| l.is_finite() && l >= 0.0));
        // The mean loss over the last quarter must sit below the first
        // quarter — SGD converges.
        let first: f64 = report.loss_trace[..5].iter().sum::<f64>() / 5.0;
        let last: f64 = report.loss_trace[15..].iter().sum::<f64>() / 5.0;
        assert!(
            last < first,
            "loss should fall: first {first:.4} -> last {last:.4}"
        );
    }

    #[test]
    fn fit_rejects_empty_training_split() {
        let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(2)).unwrap();
        let Err(err) = fit(&corpus, &[], &ActorConfig::fast()) else {
            panic!("empty split accepted");
        };
        assert_eq!(err, FitError::EmptyTrainingSplit);
    }

    #[test]
    fn fit_rejects_invalid_config_with_typed_error() {
        let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(2)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let mut config = ActorConfig::fast();
        config.dim = 0;
        let Err(err) = fit(&corpus, &split.train, &config) else {
            panic!("invalid config accepted");
        };
        assert_eq!(err, FitError::Config(crate::error::ConfigError::ZeroDim));
    }

    #[test]
    fn fit_report_exposes_stage_telemetry() {
        let (_, report) = fit_small(21, |_| {});
        let stage = |name: &str| {
            report
                .telemetry
                .spans
                .iter()
                .find(|s| s.name == "core.fit")
                .and_then(|root| root.children.iter().find(|c| c.name == name).cloned())
                .unwrap_or_else(|| {
                    panic!("span core.fit>{name} missing: {:?}", report.telemetry.spans)
                })
        };
        // Every Algorithm-1 stage ran under the root span (counts can
        // exceed 1 when sibling tests fit concurrently — the registry is
        // process-global).
        for name in [
            "core.fit.hotspot",
            "core.fit.graph",
            "core.fit.pretrain",
            "core.fit.train",
        ] {
            assert!(stage(name).count >= 1, "{name}");
        }
        // FitReport's timing fields are views over the same spans.
        let train = stage("core.fit.train");
        assert!(train.seconds + 0.05 >= report.train_seconds);
        assert!(report.total_seconds >= report.train_seconds);
        // The lower layers flushed their counters into the same capture.
        let counter = |name: &str| {
            report
                .telemetry
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert!(
            counter("stgraph.records") > 0,
            "{:?}",
            report.telemetry.counters
        );
        assert!(counter("hotspot.meanshift.seeds") > 0);
        assert!(counter("core.train.updates") > 0);
        assert!(counter("embed.sgd.steps") >= counter("core.train.updates"));
        // The apply side timed its wait for every drawn round.
        let config = ActorConfig::fast();
        let draw_wait = report
            .telemetry
            .histograms
            .iter()
            .find(|h| h.name == "core.train.draw_wait_us")
            .expect("core.train.draw_wait_us emitted");
        assert!(draw_wait.count >= (config.max_epochs * config.batches_per_type) as u64);
    }

    #[test]
    fn embeddings_are_finite_after_training() {
        let (model, _) = fit_small(3, |_| {});
        for i in 0..model.space().len() {
            assert!(model.store().centers.row(i).iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn cooccurring_units_align() {
        // Words of the same theme should land closer together than words
        // of different themes (they co-occur in records). Averaged over
        // several pairs to be robust on the small test corpus.
        let (model, _) = fit_small(4, |c| {
            c.max_epochs = 60;
        });
        let v = model.vocab();
        let pairs = [("beach", "surf"), ("bar", "cocktail"), ("coffee", "latte")];
        let cross = [("beach", "cocktail"), ("bar", "latte"), ("coffee", "surf")];
        let mean_cos = |words: &[(&str, &str)]| -> f64 {
            let mut total = 0.0;
            for (a, b) in words {
                let (Some(a), Some(b)) = (v.get(a), v.get(b)) else {
                    panic!("theme words missing from vocab");
                };
                total += cosine(
                    model.vector(model.word_node(a)),
                    model.vector(model.word_node(b)),
                );
            }
            total / words.len() as f64
        };
        let same = mean_cos(&pairs);
        let diff = mean_cos(&cross);
        assert!(same > diff, "same-theme {same} vs cross-theme {diff}");
    }

    #[test]
    fn ablation_variants_fit() {
        let (_, r1) = fit_small(5, |c| c.use_inter = false);
        assert!(!r1.pretrained);
        let (_, r2) = fit_small(5, |c| c.use_intra_bag = false);
        assert!(r2.pretrained);
    }

    #[test]
    fn multithreaded_fit_works() {
        let (model, _) = fit_small(6, |c| c.threads = 3);
        assert!(model.vector(model.space().node(NodeType::Time, 0))[0].is_finite());
    }

    #[test]
    fn weekly_temporal_period_is_supported() {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(13)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let mut config = ActorConfig::fast();
        config.temporal_period = mobility::SECONDS_PER_WEEK as f64;
        config.temporal_bandwidth = 3.0 * 3600.0;
        let (model, report) = fit(&corpus, &split.train, &config).unwrap();
        assert!(report.n_temporal >= 1);
        assert_eq!(
            model.temporal_hotspots().period(),
            mobility::SECONDS_PER_WEEK as f64
        );
        // Timestamps a week apart map to the same weekly hotspot.
        let t = corpus.records()[0].timestamp;
        assert_eq!(
            model.time_node(t),
            model.time_node(t + mobility::SECONDS_PER_WEEK)
        );
    }

    #[test]
    fn mention_free_corpus_skips_pretraining() {
        let (corpus, _) = generate(DatasetPreset::Tweet.small_config(7)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let (_, report) = fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();
        assert!(!report.pretrained);
        assert_eq!(report.n_user_edges, 0);
    }
}
