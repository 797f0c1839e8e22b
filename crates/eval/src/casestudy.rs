//! Side-by-side case studies (§6.2.4: Fig. 5, Table 3, Fig. 8).
//!
//! Runs the same query under two models and reports each candidate's rank
//! in both — the format of the paper's ACTOR-vs-CrossMap tables.

use mobility::Corpus;

use crate::model::CrossModalModel;
use crate::tasks::{PredictionTask, Query};

/// One candidate's description and its rank under each model.
#[derive(Debug, Clone)]
pub struct CaseRow {
    /// Candidate description (text, timestamp, or coordinates).
    pub candidate: String,
    /// True for the ground-truth row.
    pub is_ground_truth: bool,
    /// 1-based rank under the first model.
    pub rank_a: usize,
    /// 1-based rank under the second model.
    pub rank_b: usize,
}

/// A completed case study.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// First model's name.
    pub model_a: String,
    /// Second model's name.
    pub model_b: String,
    /// The task.
    pub task: PredictionTask,
    /// Rows in candidate order (ground truth first).
    pub rows: Vec<CaseRow>,
}

impl CaseStudy {
    /// Rank of the ground truth under model A.
    pub fn gt_rank_a(&self) -> usize {
        self.rows[0].rank_a
    }

    /// Rank of the ground truth under model B.
    pub fn gt_rank_b(&self) -> usize {
        self.rows[0].rank_b
    }
}

/// Scores `query` under both models and assembles the comparison table.
pub fn compare<A: CrossModalModel + ?Sized, B: CrossModalModel + ?Sized>(
    model_a: &A,
    model_b: &B,
    corpus: &Corpus,
    query: &Query,
    task: PredictionTask,
) -> CaseStudy {
    let describe = |rid: mobility::RecordId| -> String {
        let r = corpus.record(rid);
        match task {
            PredictionTask::Text => {
                let words: Vec<&str> = r.keywords.iter().map(|&k| corpus.vocab().word(k)).collect();
                words.join(" ")
            }
            PredictionTask::Time => format!(
                "day {} {}",
                (r.timestamp - mobility::synth::EPOCH_BASE) / mobility::SECONDS_PER_DAY,
                mobility::types::format_time_of_day(r.second_of_day())
            ),
            PredictionTask::Location => {
                format!("({:.4}, {:.4})", r.location.lat, r.location.lon)
            }
        }
    };

    let candidates: Vec<mobility::RecordId> = std::iter::once(query.record)
        .chain(query.noise.iter().copied())
        .collect();
    let gt = corpus.record(query.record);

    fn scores_for<M: CrossModalModel + ?Sized>(
        model: &M,
        corpus: &Corpus,
        gt: &mobility::Record,
        candidates: &[mobility::RecordId],
        task: PredictionTask,
    ) -> Vec<f64> {
        candidates
            .iter()
            .map(|&rid| {
                let c = corpus.record(rid);
                match task {
                    PredictionTask::Text => {
                        model.score_text(gt.timestamp, gt.location, &c.keywords)
                    }
                    PredictionTask::Location => {
                        model.score_location(gt.timestamp, &gt.keywords, c.location)
                    }
                    PredictionTask::Time => {
                        model.score_time(gt.location, &gt.keywords, c.timestamp)
                    }
                }
            })
            .collect()
    }

    let sa = scores_for(model_a, corpus, gt, &candidates, task);
    let sb = scores_for(model_b, corpus, gt, &candidates, task);
    let ranks = |scores: &[f64]| -> Vec<usize> {
        // rank = 1 + number of strictly better candidates, ties broken by
        // index (earlier candidate wins).
        (0..scores.len())
            .map(|i| {
                1 + scores
                    .iter()
                    .enumerate()
                    .filter(|&(j, &s)| s > scores[i] || (s == scores[i] && j < i))
                    .count()
            })
            .collect()
    };
    let ra = ranks(&sa);
    let rb = ranks(&sb);

    let rows = candidates
        .iter()
        .enumerate()
        .map(|(i, &rid)| CaseRow {
            candidate: describe(rid),
            is_ground_truth: i == 0,
            rank_a: ra[i],
            rank_b: rb[i],
        })
        .collect();

    CaseStudy {
        model_a: model_a.name().to_string(),
        model_b: model_b.name().to_string(),
        task,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{build_queries, EvalParams};
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, GeoPoint, KeywordId, SplitSpec, Timestamp};

    struct Oracle {
        gt: mobility::Record,
    }
    impl CrossModalModel for Oracle {
        fn score_location(&self, _: Timestamp, _: &[KeywordId], c: GeoPoint) -> f64 {
            -c.dist(&self.gt.location)
        }
        fn score_time(&self, _: GeoPoint, _: &[KeywordId], c: Timestamp) -> f64 {
            -((c - self.gt.timestamp).abs() as f64)
        }
        fn score_text(&self, _: Timestamp, _: GeoPoint, c: &[KeywordId]) -> f64 {
            -((c.len() as i64 - self.gt.keywords.len() as i64).abs() as f64)
                + if c == self.gt.keywords.as_slice() {
                    100.0
                } else {
                    0.0
                }
        }
        fn name(&self) -> &str {
            "oracle"
        }
    }

    struct Anti;
    impl CrossModalModel for Anti {
        fn score_location(&self, _: Timestamp, _: &[KeywordId], c: GeoPoint) -> f64 {
            c.lon
        }
        fn score_time(&self, _: GeoPoint, _: &[KeywordId], c: Timestamp) -> f64 {
            c as f64
        }
        fn score_text(&self, _: Timestamp, _: GeoPoint, c: &[KeywordId]) -> f64 {
            c.len() as f64
        }
        fn name(&self) -> &str {
            "anti"
        }
    }

    #[test]
    fn compare_ranks_ground_truth_first_for_oracle() {
        let (corpus, _) = generate(DatasetPreset::Tweet.small_config(9)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let queries = build_queries(
            &split.test,
            &EvalParams {
                max_queries: 3,
                ..EvalParams::default()
            },
        );
        for q in &queries {
            let oracle = Oracle {
                gt: corpus.record(q.record).clone(),
            };
            let cs = compare(&oracle, &Anti, &corpus, q, PredictionTask::Text);
            assert_eq!(cs.gt_rank_a(), 1);
            assert_eq!(cs.rows.len(), 11);
            assert!(cs.rows[0].is_ground_truth);
            assert!(cs.rows[1..].iter().all(|r| !r.is_ground_truth));
            // Ranks are a permutation of 1..=11.
            let mut ra: Vec<usize> = cs.rows.iter().map(|r| r.rank_a).collect();
            ra.sort_unstable();
            assert_eq!(ra, (1..=11).collect::<Vec<_>>());
            assert_eq!(cs.model_a, "oracle");
            assert_eq!(cs.model_b, "anti");
        }
    }

    #[test]
    fn descriptions_match_task() {
        let (corpus, _) = generate(DatasetPreset::Tweet.small_config(10)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let queries = build_queries(
            &split.test,
            &EvalParams {
                max_queries: 1,
                ..EvalParams::default()
            },
        );
        let oracle = Oracle {
            gt: corpus.record(queries[0].record).clone(),
        };
        let cs = compare(
            &oracle,
            &Anti,
            &corpus,
            &queries[0],
            PredictionTask::Location,
        );
        assert!(cs.rows[0].candidate.starts_with('('));
        let cs = compare(&oracle, &Anti, &corpus, &queries[0], PredictionTask::Time);
        assert!(cs.rows[0].candidate.starts_with("day "));
    }
}
