//! The two workloads. Each runs the model's whole life — fit, evaluate,
//! serve reads, stream writes — so every run reports every end-to-end
//! metric, and each makes one part heavy (README.md says which and why).

use std::sync::Arc;
use std::time::Instant;

use actor_core::{ActorConfig, ModelSink, OnlineActor, OnlineParams, TrainedModel};
use mobility::Record;
use serve::testkit::synthetic_model;
use serve::{EngineParams, IndexParams, QueryEngine, Snapshot};
use stgraph::NodeType;

use crate::fitting::{self, Data, DataSpec};
use crate::record::Report;
use crate::serving::{self, QueryPool, StreamStats, TimedSink};
use crate::stats::median;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitPaper,
    ServeRead,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::FitPaper, Workload::ServeRead];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FitPaper => "fit-paper",
            Workload::ServeRead => "serve-read",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size for measurement; smoke size (seconds long) for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub secs: f64,
    pub scale: Scale,
}

/// Timed set-up batches behind `setup_s` on fit-paper, taken at the
/// start, the middle and the end of the run.
const SETUP_REPS: [usize; 3] = [2, 2, 2];

/// Fits behind `fit_s`: the paper fits of fit-paper, and the fast fits on
/// serve-read.
const PAPER_FITS: usize = 2;
const FAST_FITS: usize = 3;

/// Key-draw skew of serve-read's closed loop. It makes ~40% of queries
/// hits: far enough from half that the p50 stays on the miss (search)
/// side instead of flipping between the hit and miss modes from run to
/// run.
const CACHE_SKEW: f64 = 1.5;

/// Records each streaming publish covers.
const PUBLISH_EVERY: u64 = 100;

/// Open-loop query rate beside fit-paper's stream. One client answers
/// ~10k queries/s when every query misses the cache (each publish clears
/// it), so the generator keeps up and sleeps between sends. (A closed loop
/// here gave a p50 that flipped between ~60 and ~95 µs from run to run on
/// a 2-vCPU virtual machine; paced sends did not.)
const STREAM_RATE: f64 = 2000.0;

/// Seconds a stream chunk runs unmeasured after the stream was idle.
const CHUNK_WARMUP_SECS: f64 = 0.5;

/// Requests of the pool checked against the exact top-k.
const RECALL_REQUESTS: usize = 1000;

/// Thread counts, never above the host's cores.
#[derive(Debug, Clone, Copy)]
pub struct Threads {
    pub nproc: usize,
    /// Preprocessing workers (`par`), pinned for the whole run.
    pub prep: usize,
    /// Closed-loop query clients.
    pub clients: usize,
}

impl Threads {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            prep: nproc.min(2),
            clients: nproc.min(2),
        }
    }
}

/// Runs one workload and returns everything it measured and checked.
pub fn run_workload(run: &Run, tr: &Tracer) -> Report {
    let threads = Threads::detect();
    let _pinned = par::override_threads(threads.prep);
    let mut rep = Report::default();
    rep.info("workload", run.workload.name());
    rep.info("seed", run.seed);
    rep.info("run_seconds", run.secs);
    rep.info("trace", tr.enabled());
    rep.info("scale", format!("{:?}", run.scale));
    rep.info("nproc", threads.nproc);
    rep.info("prep_threads", threads.prep);
    rep.info("hogwild_threads", ActorConfig::default().threads);
    rep.info("query_clients", threads.clients);
    let baseline = obs::snapshot();

    match run.workload {
        Workload::FitPaper => {
            let spec = match run.scale {
                Scale::Full => DataSpec {
                    n_records: Some(30_000),
                },
                Scale::Smoke => DataSpec { n_records: None },
            };
            let mut config = seeded(ActorConfig::default(), run.seed);
            if run.scale == Scale::Smoke {
                config.max_epochs = 10;
            }
            fit_paper(run, tr, &mut rep, spec, &config);
        }
        Workload::ServeRead => serve_read(run, tr, &mut rep, threads),
    }

    let telemetry = obs::RunTelemetry::since(&baseline);
    rep.counters = telemetry
        .counters
        .iter()
        .map(|c| (c.name.clone(), c.value))
        .chain(telemetry.histograms.iter().flat_map(|h| {
            [
                (format!("{}.count", h.name), h.count),
                (format!("{}.sum", h.name), h.sum),
            ]
        }))
        .collect();
    rep.set("peak_rss_mb", peak_rss_mb(), 1);
    rep.set("failed_frac", rep.failed_frac(), rep.attempted as usize);
    rep.spans = tr.summary();
    rep
}

/// fit-paper: corpus set-up, repeated paper fits, evaluation, a serve
/// phase in two chunks, and the traced stage replay. The served model is a
/// fast-config fit of the same corpus, made first: the paper model's 4 MB
/// snapshot buffers make every other delta publish pay page faults (1.0
/// and 4.7 ms alternate), so a publish p50 would flip between the two.
/// The first chunk runs right after the fast fit and the second after the
/// paper fits and the evaluation.
fn fit_paper(run: &Run, tr: &Tracer, rep: &mut Report, spec: DataSpec, config: &ActorConfig) {
    let (mut setup, data) = fitting::Setup::start(spec, run.seed, SETUP_REPS[0]);
    let (served, served_report, _) =
        fitting::fit_timed(tr, &data, &seeded(ActorConfig::fast(), run.seed));
    fitting::check_model(rep, &served, &served_report);
    let mut serve = SideServe::new(run, tr, rep, served, &data, true);
    serve.chunk(run, tr, 0);
    setup.time_batches(SETUP_REPS[1]);
    let (model, report, fit_s) =
        fitting::fit_repeated(tr, rep, &data, config, PAPER_FITS, run.secs);
    fitting::evaluate(rep, &model, &data, run.seed);
    serve.chunk(run, tr, 1);
    serve.finish(run, tr, rep);
    setup.time_batches(SETUP_REPS[2]);
    setup.report(rep);
    if tr.enabled() {
        let miss = fitting::replay_layers(tr, rep, &data, config, &report, fit_s);
        // The traced pass is the stage-by-stage replay plus the fit's own
        // training time; its excess over the untraced fit is the overhead.
        rep.set("trace_overhead_frac", miss, 1);
        rep.check(
            "replay.accounts_for_fit",
            miss.abs() <= 0.25,
            format!(
                "replayed stages plus training miss fit_s {fit_s:.3} s by {:+.1}%",
                100.0 * miss
            ),
        );
    }
}

/// Chunks a stream phase is cut into. The host's fast and slow states
/// last seconds, so chunks run apart, between a workload's other phases,
/// sample more of them than one chunk of the same total length.
const CHUNKS: u32 = 2;

/// Seconds one stream chunk measures.
fn chunk_secs(run: &Run) -> f64 {
    match run.scale {
        Scale::Full => run.secs / f64::from(CHUNKS),
        Scale::Smoke => 0.25,
    }
}

/// The serve phase on a fitted model: an exact-scan engine (cheap to
/// build) absorbs a stream of the held-out records, beside open-loop
/// queries when `reads` asks for the query metrics. Its cache is off, so
/// every query ranks (serve-read's closed loop measures the cache).
struct SideServe<'a> {
    engine: Arc<QueryEngine>,
    sink: Arc<TimedSink>,
    online: OnlineActor,
    pool: QueryPool,
    records: Vec<&'a Record>,
    reads: bool,
    stats: Option<StreamStats>,
}

impl<'a> SideServe<'a> {
    fn new(
        run: &Run,
        tr: &Tracer,
        rep: &mut Report,
        model: TrainedModel,
        data: &'a Data,
        reads: bool,
    ) -> Self {
        let index = IndexParams {
            ann_threshold: usize::MAX,
            ..IndexParams::default()
        };
        if tr.enabled() && reads {
            let (_, s) = tr.time("serve.snapshot_build", || {
                Snapshot::build(&model, &index, 1)
            });
            rep.set("serve.snapshot_build_s", s, 1);
        }
        let engine = Arc::new(QueryEngine::new(
            &model,
            EngineParams {
                index,
                // One entry (the engine's floor): practically no hits.
                cache_capacity: 0,
                cache_shards: 1,
            },
        ));
        // Uniform keys: with the cache off, a skew would only concentrate
        // the p50 on a few popular queries.
        let pool = QueryPool::new(&model, keys_of(&model), 1.0);
        let sink = Arc::new(TimedSink::new(Arc::clone(&engine)));
        let mut online = OnlineActor::new(model, online_params(run.seed));
        online.attach_sink(Arc::clone(&sink) as Arc<dyn ModelSink>, PUBLISH_EVERY);
        Self {
            engine,
            sink,
            online,
            pool,
            records: held_out(data),
            reads,
            stats: None,
        }
    }

    /// A short warm-up (the stream was idle or new), then chunk `i` of the
    /// stream, beside open-loop reads when `reads` is set.
    fn chunk(&mut self, run: &Run, tr: &Tracer, i: u32) {
        let warmup = match run.scale {
            Scale::Full => CHUNK_WARMUP_SECS,
            Scale::Smoke => 0.1,
        };
        serving::warm_up(&mut self.online, PUBLISH_EVERY, &self.records, warmup);
        let st = serving::stream_with_reads(
            tr,
            &mut self.online,
            &self.sink,
            PUBLISH_EVERY,
            &self.records,
            &self.pool,
            self.reads.then_some(STREAM_RATE),
            chunk_secs(run),
            run.seed ^ (u64::from(i) << 32),
        );
        match &mut self.stats {
            Some(total) => total.append(st),
            None => self.stats = Some(st),
        }
    }

    /// Reports the stream and query metrics and checks what was served.
    fn finish(self, run: &Run, tr: &Tracer, rep: &mut Report) {
        let mut st = self.stats.expect("at least one chunk");
        st.report_end_to_end(rep);
        serving::check_served(rep, &self.sink, self.online.model());
        if self.reads {
            st.queries.report_end_to_end(rep);
            serving::check_recall(
                rep,
                &self.engine,
                &self.pool,
                RECALL_REQUESTS,
                0.95,
                run.seed,
            );
        }
        if tr.enabled() {
            st.report_layers(rep);
            if self.reads {
                st.queries.report_cache(rep);
                serving::time_search(tr, rep, &self.engine.snapshot(), &self.pool, 256);
            }
        }
    }
}

/// serve-read: a closed loop of queries from two clients against HNSW
/// indexes over a synthetic model. Fast fits of the 30k-record corpus
/// supply the batch metrics, and a stream on the fitted model, in two
/// chunks around the closed loop, the streaming ones.
fn serve_read(run: &Run, tr: &Tracer, rep: &mut Report, threads: Threads) {
    let spec = match run.scale {
        Scale::Full => DataSpec {
            n_records: Some(30_000),
        },
        Scale::Smoke => DataSpec { n_records: None },
    };
    let data = spec.make(run.seed);
    let config = seeded(ActorConfig::fast(), run.seed);
    let (model, report, fit_s) = fitting::fit_repeated(tr, rep, &data, &config, FAST_FITS, 0.0);
    fitting::evaluate(rep, &model, &data, run.seed);
    let mut serve = SideServe::new(run, tr, rep, model, &data, false);
    serve.chunk(run, tr, 0);

    let (n, dim, index) = match run.scale {
        Scale::Full => (3_000, 64, IndexParams::default()),
        Scale::Smoke => (
            600,
            16,
            IndexParams {
                ann_threshold: 256,
                ..IndexParams::default()
            },
        ),
    };
    let params = EngineParams {
        index,
        ..EngineParams::default()
    };
    let mut secs = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let model = synthetic_model(n, dim, fitting::WORLD_SEED);
        let engine = QueryEngine::new(&model, params);
        secs.push(t0.elapsed().as_secs_f64());
        (model, engine)
    };
    // Timed twice: here and at the end of the run.
    let (model, engine) = set_up();
    let snap = engine.snapshot();
    rep.check(
        "serve_read.ann_indexed",
        [NodeType::Word, NodeType::Time, NodeType::Location]
            .iter()
            .all(|&ty| snap.is_ann(ty)),
        format!(
            "{n} units per modality, ANN threshold {}",
            index.ann_threshold
        ),
    );
    drop(snap);

    let pool = QueryPool::new(&model, n, CACHE_SKEW);
    let mut q = serving::closed_loop(tr, &engine, &pool, threads.clients, run.secs, run.seed);
    q.report_end_to_end(rep);
    serving::check_recall(rep, &engine, &pool, RECALL_REQUESTS, 0.95, run.seed);
    if tr.enabled() {
        q.report_cache(rep);
        serving::time_search(tr, rep, &engine.snapshot(), &pool, 256);
        let (_, s) = tr.time("serve.snapshot_build", || {
            Snapshot::build(&model, &index, 99)
        });
        rep.set("serve.snapshot_build_s", s, 1);
    }
    drop(engine);

    serve.chunk(run, tr, 1);
    serve.finish(run, tr, rep);
    drop(set_up());
    rep.set("setup_s", median(&secs), secs.len());
    if tr.enabled() {
        let miss = fitting::replay_layers(tr, rep, &data, &config, &report, fit_s);
        rep.info("replay_miss_frac", miss);
    }
}

/// Query keys per kind: enough to cover the largest modality.
fn keys_of(model: &TrainedModel) -> usize {
    let s = model.space();
    [NodeType::Word, NodeType::Time, NodeType::Location]
        .iter()
        .map(|&ty| s.count(ty) as usize)
        .max()
        .unwrap_or(1)
}

/// `config` with its training seed mixed with the workload seed.
fn seeded(mut config: ActorConfig, seed: u64) -> ActorConfig {
    config.seed ^= seed;
    config
}

fn online_params(seed: u64) -> OnlineParams {
    OnlineParams {
        seed: seed ^ 0x0511,
        ..OnlineParams::default()
    }
}

/// The validation and test records, in split order.
fn held_out(data: &Data) -> Vec<&Record> {
    data.split
        .valid
        .iter()
        .chain(&data.split.test)
        .map(|&id| data.corpus.record(id))
        .collect()
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, PER_LAYER};

    /// Runs `workload` at smoke size, untraced then traced, and checks
    /// that every output check passed and every metric was measured.
    fn smoke(workload: Workload) {
        for trace in [false, true] {
            let run = Run {
                workload,
                seed: 20261016,
                secs: 1.0,
                scale: Scale::Smoke,
            };
            let tr = Tracer::new(trace);
            let rep = run_workload(&run, &tr);
            let failed: Vec<_> = rep.checks.iter().filter(|c| !c.ok).collect();
            assert!(
                rep.correct(),
                "{}: failed checks {failed:?}",
                workload.name()
            );
            let defs = if trace { PER_LAYER } else { END_TO_END };
            // Panics on a metric that was not measured.
            let _ = rep.result_line(defs);
            if !trace {
                for d in END_TO_END {
                    let v = rep.get(d.name).unwrap();
                    assert!(
                        v > 0.0,
                        "{}: end-to-end metric {} is {v}",
                        workload.name(),
                        d.name
                    );
                }
            }
            assert!(rep.attempted > 0);
            if trace {
                assert!(
                    tr.records().iter().any(|s| s.request != 0),
                    "queries carry request ids"
                );
                assert!(!rep.spans.is_empty());
            }
        }
    }

    #[test]
    fn fit_paper_smoke() {
        smoke(Workload::FitPaper);
    }

    #[test]
    fn serve_read_smoke() {
        smoke(Workload::ServeRead);
    }

    #[test]
    fn mrr_repeats_exactly_for_a_seed() {
        let run = Run {
            workload: Workload::FitPaper,
            seed: 7,
            secs: 0.1,
            scale: Scale::Smoke,
        };
        let a = run_workload(&run, &Tracer::new(false));
        let b = run_workload(&run, &Tracer::new(false));
        for name in ["mrr_text", "mrr_location", "mrr_time"] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())),
                "{}",
                w.name()
            );
        }
        assert_eq!(
            json.matches("\"why\":").count(),
            Workload::ALL.len(),
            "no workload beyond the catalog"
        );
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name,
                d.unit,
                d.better.label()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = json.matches("\"better\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len(),
            "no metric beyond the catalog"
        );
    }
}
