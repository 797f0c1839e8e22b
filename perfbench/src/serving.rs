//! The online side: the query mix, a closed-loop reader, the streaming
//! writer with an open-loop reader beside it, and the checks on what the
//! engine serves.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use actor_core::{ModelSink, OnlineActor, StoreDelta, TrainedModel};
use embed::math::normalize_into;
use hotspot::{SpatialHotspotId, TemporalHotspotId};
use mobility::{KeywordId, Record};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serve::{QueryEngine, QueryKind, QueryRequest, QueryResponse, SearchScratch, Snapshot};
use stgraph::{NodeId, NodeType};

use crate::record::Report;
use crate::stats::{thread_cpu_time, Samples, Windowed};
use crate::trace::Tracer;

/// Results per returned modality.
pub const K: usize = 10;

/// Tracing alternates on and off in slices of this length, so the traced
/// run measures its own overhead against interleaved untraced queries.
const TRACE_SLICE: Duration = Duration::from_millis(250);

/// Modalities answered for every query.
const MODALITIES: [NodeType; 3] = [NodeType::Word, NodeType::Time, NodeType::Location];

/// The query mix: spatial, temporal, keyword and composite requests over
/// a model's hotspot centers and vocabulary, interleaved by kind.
pub struct QueryPool {
    pub requests: Vec<QueryRequest>,
    /// Expected result count per modality (`K` or the modality's size).
    expected: [usize; 3],
    /// Exponent of the key draw `index = u^skew · len`: 1 is uniform,
    /// larger repeats popular keys more.
    skew: f64,
}

impl QueryPool {
    /// `n_keys` requests of each kind (keys past a modality's size wrap),
    /// drawn with `skew`.
    pub fn new(model: &TrainedModel, n_keys: usize, skew: f64) -> Self {
        let times = model.temporal_hotspots().centers();
        let places = model.spatial_hotspots().centers();
        let vocab = model.vocab();
        let word = |i: usize| vocab.word(KeywordId((i % vocab.len()) as u32)).to_string();
        let mut requests = Vec::with_capacity(4 * n_keys);
        for i in 0..n_keys {
            requests.push(QueryRequest::spatial(places[i % places.len()], K));
            requests.push(QueryRequest::temporal(times[i % times.len()], K));
            requests.push(QueryRequest::keyword(word(i), K));
            requests.push(
                QueryRequest::composite(
                    Some(times[(7 * i + 3) % times.len()]),
                    Some(places[(13 * i + 5) % places.len()]),
                    vec![word(31 * i + 7)],
                )
                .with_k(K),
            );
        }
        let space = model.space();
        let expected = MODALITIES.map(|ty| K.min(space.count(ty) as usize));
        Self {
            requests,
            expected,
            skew,
        }
    }

    /// A skewed draw of a request index.
    fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        ((u.powf(self.skew) * self.requests.len() as f64) as usize).min(self.requests.len() - 1)
    }

    /// Whether a response carries the expected number of results.
    fn complete(&self, r: &QueryResponse) -> bool {
        [r.words.len(), r.times.len(), r.places.len()] == self.expected
    }
}

/// Samples a window needs before its p99 counts (ten beyond it).
const P99_MIN: usize = 500;

/// Latencies and outcomes of a query loop.
pub struct QueryStats {
    /// All reported latencies by window: wall time for a closed loop, the
    /// querying thread's CPU time for an open one (see [`open_loop`]).
    pub all: Windowed,
    pub hit: Samples,
    pub miss: Samples,
    /// How late an open-loop generator sent each request.
    pub lag: Samples,
    /// Open-loop wall time from the send and from the due time.
    pub from_send: Samples,
    pub from_due: Samples,
    pub answered: u64,
    pub failed: u64,
    /// Wall seconds of the loop.
    pub elapsed_s: f64,
    /// Latency sums and counts in traced and untraced slices.
    traced: (f64, u64),
    untraced: (f64, u64),
}

impl QueryStats {
    fn new(start: Instant, secs: f64) -> Self {
        Self {
            all: Windowed::new(start, secs),
            hit: Samples::new(),
            miss: Samples::new(),
            lag: Samples::new(),
            from_send: Samples::new(),
            from_due: Samples::new(),
            answered: 0,
            failed: 0,
            elapsed_s: 0.0,
            traced: (0.0, 0),
            untraced: (0.0, 0),
        }
    }

    /// Adds another loop's queries: one that ran alongside (its windows
    /// cover the same time) or, when `later`, a later phase (its windows
    /// follow these, and its time adds to `elapsed_s`).
    fn combine(&mut self, o: QueryStats, later: bool) {
        if later {
            self.all.append(o.all);
            self.elapsed_s += o.elapsed_s;
        } else {
            self.all.merge(o.all);
        }
        self.hit.extend(o.hit);
        self.miss.extend(o.miss);
        self.lag.extend(o.lag);
        self.from_send.extend(o.from_send);
        self.from_due.extend(o.from_due);
        self.answered += o.answered;
        self.failed += o.failed;
        self.traced.0 += o.traced.0;
        self.traced.1 += o.traced.1;
        self.untraced.0 += o.untraced.0;
        self.untraced.1 += o.untraced.1;
    }

    /// Records one query's reported latency; `at` places it in a window
    /// (completion time for a closed loop, due time for an open one).
    fn record(
        &mut self,
        pool: &QueryPool,
        out: Result<QueryResponse, serve::QueryError>,
        at: Instant,
        latency: Duration,
        traced: bool,
    ) {
        match out {
            Ok(r) if pool.complete(&r) => {
                self.answered += 1;
                if r.from_cache {
                    self.hit.push(latency);
                } else {
                    self.miss.push(latency);
                }
            }
            _ => self.failed += 1,
        }
        self.all.push(at, latency);
        let slot = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        slot.0 += latency.as_nanos() as f64;
        slot.1 += 1;
    }

    /// Mean latency in traced slices over that in untraced slices, minus 1.
    pub fn trace_overhead(&self) -> f64 {
        let mean = |(sum, n): (f64, u64)| sum / n.max(1) as f64;
        if self.traced.1 == 0 || self.untraced.1 == 0 {
            return 0.0;
        }
        mean(self.traced) / mean(self.untraced) - 1.0
    }

    /// Reports `query_qps`, `query_p50_us` and `query_p99_us` (the
    /// percentiles are medians over the phase's windows) and counts the
    /// queries as operations.
    pub fn report_end_to_end(&mut self, rep: &mut Report) {
        let n = self.all.len();
        rep.set(
            "query_qps",
            self.answered as f64 / self.elapsed_s.max(1e-9),
            n,
        );
        rep.set("query_p50_us", self.all.quantile_ns(0.50, 20) / 1e3, n);
        rep.set("query_p99_us", self.all.quantile_ns(0.99, P99_MIN) / 1e3, n);
        rep.info("windows.query_us_p50", self.all.describe(0.50, 20, 1e3));
        rep.info(
            "windows.query_us_p99",
            self.all.describe(0.99, P99_MIN, 1e3),
        );
        if !self.from_due.is_empty() {
            rep.info(
                "query_p99_from_send_us",
                self.from_send.quantile_ns(0.99) / 1e3,
            );
            rep.info(
                "query_p99_from_due_us",
                self.from_due.quantile_ns(0.99) / 1e3,
            );
        }
        rep.ops(self.answered + self.failed, self.failed);
        rep.check(
            "serve.queries_complete",
            self.failed == 0 && self.answered > 0,
            format!(
                "{} answered with {K} results per modality, {} failed",
                self.answered, self.failed
            ),
        );
    }

    /// Reports the cache split of the loop.
    pub fn report_cache(&mut self, rep: &mut Report) {
        let q = self.hit.len() + self.miss.len();
        rep.set(
            "serve.cache_hit_ratio",
            self.hit.len() as f64 / q.max(1) as f64,
            q,
        );
        rep.set("serve.cache_queries", q as f64, q);
        rep.set(
            "serve.query_hit_us_p50",
            self.hit.quantile_ns(0.5) / 1e3,
            self.hit.len(),
        );
        rep.set(
            "serve.query_miss_us_p50",
            self.miss.quantile_ns(0.5) / 1e3,
            self.miss.len(),
        );
        rep.set(
            "trace_overhead_frac",
            self.trace_overhead(),
            self.traced.1 as usize,
        );
    }
}

fn traced_slice(tr: &Tracer, start: Instant) -> bool {
    tr.enabled() && (start.elapsed().as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1
}

/// `clients` threads each send their next query when the previous one
/// returns, for `secs` seconds.
pub fn closed_loop(
    tr: &Tracer,
    engine: &QueryEngine,
    pool: &QueryPool,
    clients: usize,
    secs: f64,
    seed: u64,
) -> QueryStats {
    let phase = tr.span("serve.closed_loop");
    let parent = phase.id();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(secs);
    let mut total = QueryStats::new(start, secs);
    let parts: Vec<QueryStats> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E_0000 + c));
                    let mut st = QueryStats::new(start, secs);
                    let mut request = c << 40;
                    while start.elapsed() < budget {
                        let req = &pool.requests[pool.draw(&mut rng)];
                        let on = traced_slice(tr, start);
                        request += 1;
                        let span = tr.span_under("serve.query", parent, request, on);
                        let t0 = Instant::now();
                        let out = engine.query(req);
                        let done = Instant::now();
                        drop(span);
                        st.record(pool, out, done, done - t0, on);
                    }
                    st
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("query client panicked"))
            .collect()
    });
    for p in parts {
        total.combine(p, false);
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// One publish the engine absorbed through [`TimedSink`].
#[derive(Debug, Clone, Copy)]
pub struct PublishEvent {
    pub start: Instant,
    pub end: Instant,
    pub dirty_rows: usize,
    pub delta: bool,
}

/// A `ModelSink` that forwards to the engine and times each publish.
pub struct TimedSink {
    pub engine: Arc<QueryEngine>,
    events: Mutex<Vec<PublishEvent>>,
}

impl TimedSink {
    pub fn new(engine: Arc<QueryEngine>) -> Self {
        Self {
            engine,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Publishes absorbed so far.
    pub fn count(&self) -> usize {
        self.events.lock().expect("publish log lock").len()
    }

    /// Publishes absorbed after the first `from`.
    pub fn events_since(&self, from: usize) -> Vec<PublishEvent> {
        self.events.lock().expect("publish log lock")[from..].to_vec()
    }

    fn log(&self, start: Instant, dirty_rows: usize, delta: bool) {
        let end = Instant::now();
        self.events
            .lock()
            .expect("publish log lock")
            .push(PublishEvent {
                start,
                end,
                dirty_rows,
                delta,
            });
    }
}

impl ModelSink for TimedSink {
    fn publish(&self, model: &TrainedModel) {
        let start = Instant::now();
        self.engine.publish(model);
        self.log(start, 2 * model.store().n_nodes(), false);
    }

    fn publish_delta(&self, model: &TrainedModel, delta: &StoreDelta) {
        let start = Instant::now();
        self.engine.publish_delta(model, delta);
        self.log(start, delta.dirty_rows(), true);
    }
}

/// Outcome of a streaming phase.
pub struct StreamStats {
    pub queries: QueryStats,
    /// Wall time of `observe` calls that did not publish.
    pub observe: Samples,
    /// Delta publish times by window of their start.
    pub publish: Windowed,
    pub accepted: u64,
    pub offered: u64,
    pub elapsed_s: f64,
    pub publishes: Vec<PublishEvent>,
}

/// Streams `records` (cycling) through `online`, which publishes a delta
/// to `sink` every `every` accepted records, while (given a `rate`) one
/// generator thread sends the query mix as an open loop at that many
/// queries per second. Stops on a publish boundary once `secs` have
/// passed, so the engine serves exactly the model's rows at the end.
#[allow(clippy::too_many_arguments)]
pub fn stream_with_reads(
    tr: &Tracer,
    online: &mut OnlineActor,
    sink: &TimedSink,
    every: u64,
    records: &[&Record],
    pool: &QueryPool,
    rate: Option<f64>,
    secs: f64,
    seed: u64,
) -> StreamStats {
    let phase = tr.span("serve.stream");
    let parent = phase.id();
    let stop_flag = AtomicBool::new(false);
    let stop = &stop_flag;
    let start = Instant::now();
    let published_before = sink.count();
    let engine = &*sink.engine;
    let mut observe = Samples::new();
    let (mut accepted, mut offered) = (0u64, 0u64);
    let queries = std::thread::scope(|s| {
        let generator = rate.map(|rate| {
            s.spawn(move || open_loop(tr, engine, pool, rate, secs, stop, parent, seed))
        });
        let budget = Duration::from_secs_f64(secs);
        let mut seen = published_before;
        for (i, rec) in records.iter().cycle().enumerate() {
            let on = traced_slice(tr, start);
            let span = tr.span_under("core.observe", parent, i as u64 + 1, on);
            let t0 = Instant::now();
            let ok = online.observe(rec);
            let dt = t0.elapsed();
            offered += 1;
            accepted += u64::from(ok);
            let now_seen = sink.count();
            if now_seen == seen {
                observe.push(dt);
            } else if on {
                for p in sink.events_since(seen) {
                    tr.record("serve.publish_delta", span.id(), p.start, p.end);
                }
            }
            drop(span);
            seen = now_seen;
            let elapsed = start.elapsed();
            if ok && online.observed().is_multiple_of(every) && elapsed >= budget {
                break;
            }
            // A stream that accepts nothing never reaches a boundary.
            if elapsed >= 3 * budget + Duration::from_secs(1) {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        generator.map_or_else(
            || QueryStats::new(start, secs),
            |g| g.join().expect("query generator panicked"),
        )
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let publishes = sink.events_since(published_before);
    let mut publish = Windowed::new(start, secs);
    for p in publishes.iter().filter(|p| p.delta) {
        publish.push(p.start, p.end - p.start);
    }
    StreamStats {
        queries,
        observe,
        publish,
        accepted,
        offered,
        elapsed_s,
        publishes,
    }
}

/// Streams `records` through `online` for about `secs` seconds, up to a
/// publish boundary, without measuring: the warm-up before a stream phase.
pub fn warm_up(online: &mut OnlineActor, every: u64, records: &[&Record], secs: f64) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(secs);
    for rec in records.iter().cycle() {
        let ok = online.observe(rec);
        let elapsed = start.elapsed();
        if (ok && online.observed().is_multiple_of(every) && elapsed >= budget)
            || elapsed >= 3 * budget + Duration::from_secs(1)
        {
            break;
        }
    }
}

/// Sends the query mix on a fixed schedule until `stop`. Each query's
/// reported latency is the CPU time the generator thread spent in it.
/// On a small shared virtual machine the host pauses a vCPU for 0.2–4 ms
/// about ten times a second, more often in bursts that last tens of
/// seconds; a paused thread's CPU clock stands still, so these pauses
/// stay out of the figure, while wall time from the send or from the due
/// time puts them in the p99 (several-fold between runs). Both wall times
/// are kept for the run record, and how late each send was as `lag`.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    tr: &Tracer,
    engine: &QueryEngine,
    pool: &QueryPool,
    rate: f64,
    secs: f64,
    stop: &AtomicBool,
    parent: u64,
    seed: u64,
) -> QueryStats {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE4_100B);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut st = QueryStats::new(start, secs);
    let mut n: u32 = 0;
    while !stop.load(Ordering::Relaxed) {
        let due = start + interval * n;
        n += 1;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let wait = due - now;
            if wait > Duration::from_micros(300) {
                std::thread::sleep(wait - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let req = &pool.requests[pool.draw(&mut rng)];
        let on = traced_slice(tr, start);
        let sent = Instant::now();
        st.lag.push(sent - due);
        let span = tr.span_under("serve.query", parent, u64::from(n), on);
        let cpu0 = thread_cpu_time();
        let out = engine.query(req);
        let cpu1 = thread_cpu_time();
        let done = Instant::now();
        drop(span);
        st.from_send.push(done - sent);
        st.from_due.push(done - due);
        let latency = match (cpu0, cpu1) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => done - sent,
        };
        st.record(pool, out, due, latency, on);
    }
    st.elapsed_s = start.elapsed().as_secs_f64();
    st
}

impl StreamStats {
    /// Adds a later chunk of the same stream.
    pub fn append(&mut self, o: StreamStats) {
        self.queries.combine(o.queries, true);
        self.observe.extend(o.observe);
        self.publish.append(o.publish);
        self.accepted += o.accepted;
        self.offered += o.offered;
        self.elapsed_s += o.elapsed_s;
        self.publishes.extend(o.publishes);
    }

    /// Reports the stream's end-to-end metrics (publish percentiles are
    /// medians over the phase's windows) and counts its operations.
    pub fn report_end_to_end(&mut self, rep: &mut Report) {
        let deltas: Vec<&PublishEvent> = self.publishes.iter().filter(|p| p.delta).collect();
        let n = self.publish.len();
        rep.set(
            "stream_records_per_s",
            self.accepted as f64 / self.elapsed_s.max(1e-9),
            self.accepted as usize,
        );
        rep.set("publish_p50_ms", self.publish.quantile_ns(0.5, 10) / 1e6, n);
        rep.set("publish_p90_ms", self.publish.quantile_ns(0.9, 10) / 1e6, n);
        rep.info(
            "windows.publish_ms_p50",
            self.publish.describe(0.5, 10, 1e6),
        );
        rep.info(
            "windows.publish_ms_p90",
            self.publish.describe(0.9, 10, 1e6),
        );
        rep.ops(self.offered + deltas.len() as u64, 0);
        rep.check(
            "stream.progress",
            self.accepted > 0 && !deltas.is_empty(),
            format!(
                "{} of {} records accepted, {} delta publishes",
                self.accepted,
                self.offered,
                deltas.len()
            ),
        );
    }

    /// Reports the stream's per-layer metrics.
    pub fn report_layers(&mut self, rep: &mut Report) {
        let deltas: Vec<&PublishEvent> = self.publishes.iter().filter(|p| p.delta).collect();
        let rows: usize = deltas.iter().map(|p| p.dirty_rows).sum();
        let secs: f64 = deltas.iter().map(|p| (p.end - p.start).as_secs_f64()).sum();
        rep.set(
            "core.observe_us",
            self.observe.mean_ns() / 1e3,
            self.observe.len(),
        );
        rep.set(
            "serve.publish_dirty_rows",
            rows as f64 / deltas.len().max(1) as f64,
            deltas.len(),
        );
        rep.set(
            "serve.publish_us_per_row",
            secs * 1e6 / rows.max(1) as f64,
            rows,
        );
        rep.set(
            "loadgen.lag_us_p99",
            self.queries.lag.quantile_ns(0.99) / 1e3,
            self.queries.lag.len(),
        );
    }
}

/// After the last publish: the served rows equal the model's rows and the
/// epoch equals 1 plus the publishes the engine absorbed.
pub fn check_served(rep: &mut Report, sink: &TimedSink, model: &TrainedModel) {
    let snap = sink.engine.snapshot();
    let n = model.space().len();
    let differing = (0..n as u32)
        .filter(|&i| snap.vector(NodeId(i)) != model.vector(NodeId(i)))
        .count();
    rep.check(
        "stream.served_rows_equal_model",
        differing == 0,
        format!("{differing} of {n} served rows differ from the model"),
    );
    let stats = sink.engine.stats();
    let logged = sink.count() as u64;
    rep.check(
        "stream.epoch",
        stats.epoch == 1 + stats.publishes && stats.publishes == logged,
        format!(
            "epoch {} after {} publishes ({logged} seen by the sink)",
            stats.epoch, stats.publishes
        ),
    );
}

/// The unit query vector the engine builds for `kind`, from the same
/// public snapshot rows (§6.2.1: the mean of the observed modalities).
fn unit_query(snap: &Snapshot, kind: &QueryKind) -> Option<Vec<f32>> {
    let arts = snap.artifacts();
    let word = |w: &String| arts.vocab().get(w);
    let raw: Vec<f32> = match kind {
        QueryKind::Spatial(p) => snap.vector(arts.location_node(*p)).to_vec(),
        QueryKind::Temporal(s) => snap.vector(arts.time_of_day_node(*s)).to_vec(),
        QueryKind::Keyword(w) => snap.vector(arts.word_node(word(w)?)).to_vec(),
        QueryKind::Composite {
            second_of_day,
            point,
            words,
        } => {
            let kws: Vec<KeywordId> = words.iter().map(word).collect::<Option<_>>()?;
            let mut parts: Vec<Vec<f32>> = Vec::new();
            if let Some(s) = second_of_day {
                parts.push(snap.vector(arts.time_of_day_node(*s)).to_vec());
            }
            if let Some(p) = point {
                parts.push(snap.vector(arts.location_node(*p)).to_vec());
            }
            if !kws.is_empty() {
                parts.push(snap.text_vector(&kws));
            }
            let views: Vec<&[f32]> = parts.iter().map(|v| v.as_slice()).collect();
            snap.query_vector(&views)
        }
    };
    let mut unit = vec![0.0f32; raw.len()];
    normalize_into(&raw, &mut unit);
    Some(unit)
}

/// Recall@K of the engine's answers against `Snapshot::top_k_exact` on
/// the served snapshot, over `n` requests drawn uniformly from the pool.
/// Reports `ann_recall_at_10` and checks it reaches `floor`.
pub fn check_recall(
    rep: &mut Report,
    engine: &QueryEngine,
    pool: &QueryPool,
    n: usize,
    floor: f64,
    seed: u64,
) {
    let snap = engine.snapshot();
    let arts = snap.artifacts();
    let space = arts.space();
    let mut scratch = SearchScratch::new();
    let (mut found, mut total, mut failed) = (0usize, 0usize, 0u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007E_C411);
    let mut asked = 0u64;
    for _ in 0..n {
        let req = &pool.requests[rng.random_range(0..pool.requests.len())];
        asked += 1;
        let (Ok(resp), Some(unit)) = (engine.query(req), unit_query(&snap, &req.kind)) else {
            failed += 1;
            continue;
        };
        let mut exact = |ty| snap.top_k_exact(ty, &unit, req.k, &mut scratch);
        let words: HashSet<String> = exact(NodeType::Word)
            .into_iter()
            .map(|(node, _)| {
                arts.vocab()
                    .word(KeywordId(space.local_of(node)))
                    .to_string()
            })
            .collect();
        let times: Vec<f64> = exact(NodeType::Time)
            .into_iter()
            .map(|(node, _)| {
                arts.temporal_hotspots()
                    .center(TemporalHotspotId(space.local_of(node)))
            })
            .collect();
        let places: Vec<mobility::GeoPoint> = exact(NodeType::Location)
            .into_iter()
            .map(|(node, _)| {
                arts.spatial_hotspots()
                    .center(SpatialHotspotId(space.local_of(node)))
            })
            .collect();
        total += words.len() + times.len() + places.len();
        found += resp.words.iter().filter(|(w, _)| words.contains(w)).count();
        found += resp.times.iter().filter(|(t, _)| times.contains(t)).count();
        found += resp
            .places
            .iter()
            .filter(|(p, _)| places.contains(p))
            .count();
    }
    let recall = found as f64 / total.max(1) as f64;
    rep.set("ann_recall_at_10", recall, total);
    rep.ops(asked, failed);
    rep.check(
        "serve.recall_at_10",
        recall >= floor && failed == 0,
        format!("{found} of {total} exact top-{K} results served ({recall:.4}, floor {floor}); {failed} queries failed"),
    );
}

/// Times `Snapshot::top_k` (the served index) and `top_k_exact` per
/// modality on the pool's first `n` query vectors.
pub fn time_search(tr: &Tracer, rep: &mut Report, snap: &Snapshot, pool: &QueryPool, n: usize) {
    let queries: Vec<Vec<f32>> = pool
        .requests
        .iter()
        .take(n)
        .filter_map(|r| unit_query(snap, &r.kind))
        .collect();
    let mut scratch = SearchScratch::new();
    let calls = queries.len() * MODALITIES.len();
    let mut sink = 0usize;
    let (_, ann_s) = tr.time("serve.top_k", || {
        for q in &queries {
            for ty in MODALITIES {
                sink += snap.top_k(ty, q, K, None, &mut scratch).len();
            }
        }
    });
    let (_, exact_s) = tr.time("serve.top_k_exact", || {
        for q in &queries {
            for ty in MODALITIES {
                sink += snap.top_k_exact(ty, q, K, &mut scratch).len();
            }
        }
    });
    std::hint::black_box(sink);
    rep.set(
        "serve.ann_search_us",
        ann_s * 1e6 / calls.max(1) as f64,
        calls,
    );
    rep.set(
        "serve.exact_scan_us",
        exact_s * 1e6 / calls.max(1) as f64,
        calls,
    );
}
