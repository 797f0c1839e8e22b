//! Deterministic train/valid/test splitting.
//!
//! The paper splits each dataset randomly into train/valid/test (Table 1).
//! The split here is a seeded Fisher–Yates shuffle of record ids, so every
//! experiment binary reproduces the exact same partition for a given seed.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

use crate::corpus::Corpus;
use crate::error::MobilityError;
use crate::types::RecordId;

/// Fractions of the corpus assigned to validation and test; the remainder
/// is training data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitSpec {
    /// Fraction of records held out for validation.
    pub valid_fraction: f64,
    /// Fraction of records held out for testing.
    pub test_fraction: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SplitSpec {
    fn default() -> Self {
        // Mirrors the paper's roughly 97/1/2 partitions (Table 1).
        Self {
            valid_fraction: 0.01,
            test_fraction: 0.02,
            seed: 0xAC70,
        }
    }
}

/// Disjoint record-id partitions of a corpus.
#[derive(Debug, Clone)]
pub struct CorpusSplit {
    /// Training record ids.
    pub train: Vec<RecordId>,
    /// Validation record ids.
    pub valid: Vec<RecordId>,
    /// Test record ids.
    pub test: Vec<RecordId>,
}

impl CorpusSplit {
    /// Splits `corpus` per `spec`.
    pub fn new(corpus: &Corpus, spec: SplitSpec) -> Result<Self, MobilityError> {
        let vf = spec.valid_fraction;
        let tf = spec.test_fraction;
        if !(0.0..1.0).contains(&vf) || !(0.0..1.0).contains(&tf) || vf + tf >= 1.0 {
            return Err(MobilityError::InvalidSplit {
                reason: format!("valid={vf} test={tf} must be in [0,1) and sum below 1"),
            });
        }
        let n = corpus.len();
        let mut ids: Vec<RecordId> = (0..n).map(RecordId::from).collect();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        ids.shuffle(&mut rng);

        let n_valid = (n as f64 * vf).round() as usize;
        let n_test = (n as f64 * tf).round() as usize;
        let valid = ids[..n_valid].to_vec();
        let test = ids[n_valid..n_valid + n_test].to_vec();
        let train = ids[n_valid + n_test..].to_vec();
        Ok(Self { train, valid, test })
    }

    /// Total records across the three partitions.
    pub fn len(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }

    /// True if all partitions are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{GeoPoint, Record, UserId};
    use crate::vocab::Vocabulary;

    fn corpus(n: usize) -> Corpus {
        let records = (0..n)
            .map(|i| Record {
                id: RecordId::from(i),
                user: UserId(0),
                timestamp: i as i64,
                location: GeoPoint::new(0.0, 0.0),
                keywords: vec![],
                mentions: vec![],
            })
            .collect();
        Corpus::new("t", records, Vocabulary::new(), 1).unwrap()
    }

    #[test]
    fn split_partitions_all_records() {
        let c = corpus(1000);
        let spec = SplitSpec {
            valid_fraction: 0.1,
            test_fraction: 0.2,
            seed: 1,
        };
        let s = CorpusSplit::new(&c, spec).unwrap();
        assert_eq!(s.len(), 1000);
        assert_eq!(s.valid.len(), 100);
        assert_eq!(s.test.len(), 200);
        assert_eq!(s.train.len(), 700);

        let mut seen = vec![false; 1000];
        for id in s.train.iter().chain(&s.valid).chain(&s.test) {
            assert!(!seen[id.idx()], "duplicate {id}");
            seen[id.idx()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let c = corpus(100);
        let spec = SplitSpec::default();
        let a = CorpusSplit::new(&c, spec).unwrap();
        let b = CorpusSplit::new(&c, spec).unwrap();
        assert_eq!(a.test, b.test);
        let other = CorpusSplit::new(
            &c,
            SplitSpec {
                seed: spec.seed + 1,
                ..spec
            },
        )
        .unwrap();
        assert_ne!(a.train, other.train);
    }

    #[test]
    fn rejects_bad_fractions() {
        let c = corpus(10);
        for (vf, tf) in [(-0.1, 0.1), (0.5, 0.6), (1.0, 0.0), (0.0, 1.0)] {
            let err = CorpusSplit::new(
                &c,
                SplitSpec {
                    valid_fraction: vf,
                    test_fraction: tf,
                    seed: 0,
                },
            );
            assert!(err.is_err(), "vf={vf} tf={tf} should fail");
        }
    }

    #[test]
    fn empty_fractions_put_everything_in_train() {
        let c = corpus(10);
        let s = CorpusSplit::new(
            &c,
            SplitSpec {
                valid_fraction: 0.0,
                test_fraction: 0.0,
                seed: 0,
            },
        )
        .unwrap();
        assert_eq!(s.train.len(), 10);
        assert!(!s.is_empty());
    }
}
