//! Query and candidate-set construction for cross-modal prediction
//! (§6.2.1).
//!
//! For each test record, the observed modalities form the query and the
//! held-out modality is the ground truth; 10 noise candidates are drawn
//! from *other* test records (the paper draws noise "from the spatial
//! hotspots / test corpus"), giving candidate sets of size 11.

use mobility::{Corpus, GeoPoint, KeywordId, RecordId, Timestamp};
use rand::seq::IndexedRandom;
use rand::{rngs::StdRng, SeedableRng};

use crate::model::CrossModalModel;
use crate::mrr::{mean_reciprocal_rank, reciprocal_rank};

/// The three sub-tasks of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionTask {
    /// Predict the text ("activity prediction").
    Text,
    /// Predict the location.
    Location,
    /// Predict the timestamp.
    Time,
}

impl PredictionTask {
    /// All tasks in the paper's column order.
    pub const ALL: [PredictionTask; 3] = [
        PredictionTask::Text,
        PredictionTask::Location,
        PredictionTask::Time,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            PredictionTask::Text => "Text",
            PredictionTask::Location => "Location",
            PredictionTask::Time => "Time",
        }
    }
}

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalParams {
    /// Noise candidates per query (the paper uses 10 → candidate set 11).
    pub n_noise: usize,
    /// Maximum queries (caps very large test sets); `usize::MAX` = all.
    pub max_queries: usize,
    /// Candidate-sampling seed.
    pub seed: u64,
}

impl Default for EvalParams {
    fn default() -> Self {
        Self {
            n_noise: 10,
            max_queries: usize::MAX,
            seed: 0xE7A1,
        }
    }
}

/// One prediction query: a test record plus the records providing its
/// noise candidates. Candidate 0 is always the ground truth.
#[derive(Debug, Clone)]
pub struct Query {
    /// The query (ground-truth) record.
    pub record: RecordId,
    /// Noise-candidate source records (distinct from `record`).
    pub noise: Vec<RecordId>,
}

/// Builds the query set for a task over `test_ids`.
pub fn build_queries(test_ids: &[RecordId], params: &EvalParams) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = test_ids.len().min(params.max_queries);
    let mut queries = Vec::with_capacity(n);
    for &rid in test_ids.iter().take(n) {
        let mut noise = Vec::with_capacity(params.n_noise);
        // Rejection-sample distinct records; duplicates among noise are
        // allowed only when the test set is smaller than the candidate set.
        let mut guard = 0;
        while noise.len() < params.n_noise {
            let cand = *test_ids.choose(&mut rng).expect("non-empty test set");
            if cand != rid || test_ids.len() == 1 {
                noise.push(cand);
            }
            guard += 1;
            if guard > params.n_noise * 50 {
                break;
            }
        }
        queries.push(Query { record: rid, noise });
    }
    queries
}

/// Scores one query under `model`, returning the reciprocal rank of the
/// ground truth.
pub fn score_query<M: CrossModalModel + ?Sized>(
    model: &M,
    corpus: &Corpus,
    query: &Query,
    task: PredictionTask,
) -> f64 {
    let gt = corpus.record(query.record);
    let mut scores = Vec::with_capacity(query.noise.len() + 1);
    match task {
        PredictionTask::Location => {
            let score = |p: GeoPoint| model.score_location(gt.timestamp, &gt.keywords, p);
            scores.push(score(gt.location));
            for &nid in &query.noise {
                scores.push(score(corpus.record(nid).location));
            }
        }
        PredictionTask::Time => {
            let score = |t: Timestamp| model.score_time(gt.location, &gt.keywords, t);
            scores.push(score(gt.timestamp));
            for &nid in &query.noise {
                scores.push(score(corpus.record(nid).timestamp));
            }
        }
        PredictionTask::Text => {
            let score = |w: &[KeywordId]| model.score_text(gt.timestamp, gt.location, w);
            scores.push(score(&gt.keywords));
            for &nid in &query.noise {
                scores.push(score(&corpus.record(nid).keywords));
            }
        }
    }
    reciprocal_rank(&scores, 0)
}

/// Full MRR evaluation of `model` on `test_ids` for one task.
pub fn evaluate_mrr<M: CrossModalModel + ?Sized>(
    model: &M,
    corpus: &Corpus,
    test_ids: &[RecordId],
    task: PredictionTask,
    params: &EvalParams,
) -> f64 {
    let queries = build_queries(test_ids, params);
    let rrs: Vec<f64> = queries
        .iter()
        .map(|q| score_query(model, corpus, q, task))
        .collect();
    mean_reciprocal_rank(&rrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    /// An oracle that scores candidates by closeness to the ground truth
    /// it secretly knows — must reach MRR 1. A scrambler must sit near
    /// the random baseline.
    struct Oracle {
        gt_location: GeoPoint,
        gt_time: Timestamp,
        gt_words: Vec<KeywordId>,
    }

    impl CrossModalModel for Oracle {
        fn score_location(&self, _: Timestamp, _: &[KeywordId], c: GeoPoint) -> f64 {
            -c.dist(&self.gt_location)
        }
        fn score_time(&self, _: GeoPoint, _: &[KeywordId], c: Timestamp) -> f64 {
            -((c - self.gt_time).abs() as f64)
        }
        fn score_text(&self, _: Timestamp, _: GeoPoint, c: &[KeywordId]) -> f64 {
            if c == self.gt_words.as_slice() {
                1.0
            } else {
                0.0
            }
        }
        fn name(&self) -> &str {
            "oracle"
        }
    }

    #[test]
    fn oracle_reaches_mrr_one() {
        let (corpus, _) = generate(DatasetPreset::Tweet.small_config(3)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let params = EvalParams {
            max_queries: 20,
            ..EvalParams::default()
        };
        let queries = build_queries(&split.test, &params);
        for q in &queries {
            let gt = corpus.record(q.record);
            let oracle = Oracle {
                gt_location: gt.location,
                gt_time: gt.timestamp,
                gt_words: gt.keywords.clone(),
            };
            for task in PredictionTask::ALL {
                let rr = score_query(&oracle, &corpus, q, task);
                // Location/time can tie when two test records share a
                // value; text bags are effectively unique.
                if task == PredictionTask::Text {
                    assert_eq!(rr, 1.0);
                } else {
                    assert!(rr >= 0.5, "task {task:?} rr {rr}");
                }
            }
        }
    }

    struct Constant;
    impl CrossModalModel for Constant {
        fn score_location(&self, _: Timestamp, _: &[KeywordId], _: GeoPoint) -> f64 {
            0.0
        }
        fn score_time(&self, _: GeoPoint, _: &[KeywordId], _: Timestamp) -> f64 {
            0.0
        }
        fn score_text(&self, _: Timestamp, _: GeoPoint, _: &[KeywordId]) -> f64 {
            0.0
        }
        fn name(&self) -> &str {
            "constant"
        }
    }

    #[test]
    fn constant_model_earns_floor_mrr() {
        let (corpus, _) = generate(DatasetPreset::Tweet.small_config(4)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let params = EvalParams {
            max_queries: 10,
            ..EvalParams::default()
        };
        let mrr = evaluate_mrr(
            &Constant,
            &corpus,
            &split.test,
            PredictionTask::Text,
            &params,
        );
        // Average-rank ties: a constant scorer earns rank (11+1)/2 = 6.
        assert!((mrr - 1.0 / 6.0).abs() < 1e-9, "{mrr}");
    }

    #[test]
    fn queries_have_requested_noise_and_exclude_self() {
        let (corpus, _) = generate(DatasetPreset::Tweet.small_config(5)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let params = EvalParams::default();
        let queries = build_queries(&split.test, &params);
        assert_eq!(queries.len(), split.test.len());
        for q in &queries {
            assert_eq!(q.noise.len(), 10);
            assert!(!q.noise.contains(&q.record));
        }
        let _ = corpus;
    }

    #[test]
    fn query_building_is_deterministic() {
        let ids: Vec<RecordId> = (0u32..50).map(RecordId::from).collect();
        let a = build_queries(&ids, &EvalParams::default());
        let b = build_queries(&ids, &EvalParams::default());
        assert_eq!(a[7].noise, b[7].noise);
    }

    #[test]
    fn max_queries_caps() {
        let ids: Vec<RecordId> = (0u32..50).map(RecordId::from).collect();
        let q = build_queries(
            &ids,
            &EvalParams {
                max_queries: 5,
                ..EvalParams::default()
            },
        );
        assert_eq!(q.len(), 5);
    }
}
