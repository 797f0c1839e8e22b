//! Corpus container and aggregate statistics.

use crate::error::MobilityError;
use crate::types::{Record, RecordId};
use crate::vocab::Vocabulary;

/// A validated corpus of mobile-data records plus its vocabulary.
///
/// Invariants (checked by [`Corpus::new`]):
/// * every record's `id` equals its index,
/// * every user id (author or mention) is `< num_users`,
/// * every keyword id is `< vocab.len()`.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Human-readable corpus name (e.g. `synth-utgeo2011`).
    pub name: String,
    records: Vec<Record>,
    vocab: Vocabulary,
    num_users: u32,
}

impl Corpus {
    /// Builds a corpus, re-numbering record ids to match their index and
    /// validating all cross-references.
    pub fn new(
        name: impl Into<String>,
        mut records: Vec<Record>,
        vocab: Vocabulary,
        num_users: u32,
    ) -> Result<Self, MobilityError> {
        if records.is_empty() {
            return Err(MobilityError::EmptyCorpus);
        }
        for (i, r) in records.iter_mut().enumerate() {
            r.id = RecordId::from(i);
            if r.user.0 >= num_users {
                return Err(MobilityError::UnknownUser {
                    record: i,
                    user: r.user.0,
                    num_users,
                });
            }
            for &m in &r.mentions {
                if m.0 >= num_users {
                    return Err(MobilityError::UnknownUser {
                        record: i,
                        user: m.0,
                        num_users,
                    });
                }
            }
            for &w in &r.keywords {
                if w.idx() >= vocab.len() {
                    return Err(MobilityError::UnknownKeyword {
                        record: i,
                        keyword: w.0,
                        vocab_size: vocab.len() as u32,
                    });
                }
            }
        }
        Ok(Self {
            name: name.into(),
            records,
            vocab,
            num_users,
        })
    }

    /// All records, in id order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// A record by id.
    pub fn record(&self, id: RecordId) -> &Record {
        &self.records[id.idx()]
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the corpus holds no records (never true for a constructed
    /// corpus; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The keyword vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of distinct users.
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Aggregate statistics (the raw-data half of the paper's Table 1).
    pub fn stats(&self) -> CorpusStats {
        let mut mention_records = 0usize;
        let mut mention_edges = 0usize;
        let mut keyword_tokens = 0usize;
        let mut users_seen = vec![false; self.num_users as usize];
        for r in &self.records {
            if r.has_mentions() {
                mention_records += 1;
            }
            mention_edges += r.mentions.len();
            keyword_tokens += r.keywords.len();
            users_seen[r.user.idx()] = true;
            for &m in &r.mentions {
                users_seen[m.idx()] = true;
            }
        }
        CorpusStats {
            records: self.records.len(),
            users: users_seen.iter().filter(|&&b| b).count(),
            vocab_size: self.vocab.len(),
            keyword_tokens,
            mention_records,
            mention_edges,
        }
    }
}

/// Aggregate corpus statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Total number of records.
    pub records: usize,
    /// Number of users appearing as author or mention.
    pub users: usize,
    /// Distinct keywords.
    pub vocab_size: usize,
    /// Total keyword tokens across all records.
    pub keyword_tokens: usize,
    /// Records containing at least one mention (16.8 % in UTGEO2011 per §1).
    pub mention_records: usize,
    /// Total mention edges.
    pub mention_edges: usize,
}

impl CorpusStats {
    /// Fraction of records with at least one mention.
    pub fn mention_rate(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.mention_records as f64 / self.records as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{GeoPoint, KeywordId, UserId};

    fn record(user: u32, kws: &[u32], mentions: &[u32]) -> Record {
        Record {
            id: RecordId(0),
            user: UserId(user),
            timestamp: 1000,
            location: GeoPoint::new(34.0, -118.0),
            keywords: kws.iter().map(|&k| KeywordId(k)).collect(),
            mentions: mentions.iter().map(|&m| UserId(m)).collect(),
        }
    }

    fn vocab(n: usize) -> Vocabulary {
        let mut v = Vocabulary::new();
        for i in 0..n {
            v.intern(&format!("kw{i}"));
        }
        v
    }

    #[test]
    fn new_renumbers_ids_and_validates() {
        let c = Corpus::new(
            "t",
            vec![record(0, &[0], &[]), record(1, &[1], &[0])],
            vocab(2),
            2,
        )
        .unwrap();
        assert_eq!(c.record(RecordId(1)).id, RecordId(1));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Corpus::new("t", vec![], vocab(1), 1).unwrap_err(),
            MobilityError::EmptyCorpus
        );
    }

    #[test]
    fn rejects_unknown_user_and_mention() {
        let err = Corpus::new("t", vec![record(5, &[0], &[])], vocab(1), 2).unwrap_err();
        assert!(matches!(err, MobilityError::UnknownUser { user: 5, .. }));
        let err = Corpus::new("t", vec![record(0, &[0], &[9])], vocab(1), 2).unwrap_err();
        assert!(matches!(err, MobilityError::UnknownUser { user: 9, .. }));
    }

    #[test]
    fn rejects_unknown_keyword() {
        let err = Corpus::new("t", vec![record(0, &[3], &[])], vocab(2), 1).unwrap_err();
        assert!(matches!(
            err,
            MobilityError::UnknownKeyword { keyword: 3, .. }
        ));
    }

    #[test]
    fn stats_count_mentions_and_tokens() {
        let c = Corpus::new(
            "t",
            vec![
                record(0, &[0, 1], &[1]),
                record(1, &[1], &[]),
                record(0, &[0, 0, 1], &[1, 1]),
            ],
            vocab(2),
            3, // user 2 never appears
        )
        .unwrap();
        let s = c.stats();
        assert_eq!(s.records, 3);
        assert_eq!(s.users, 2);
        assert_eq!(s.vocab_size, 2);
        assert_eq!(s.keyword_tokens, 6);
        assert_eq!(s.mention_records, 2);
        assert_eq!(s.mention_edges, 3);
        assert!((s.mention_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
