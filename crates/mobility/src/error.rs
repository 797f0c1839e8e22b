//! Error type for corpus construction and validation.

use std::fmt;

/// Errors produced while building or validating corpora.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MobilityError {
    /// A record referenced a user id outside the corpus' user range.
    UnknownUser {
        /// Offending record index.
        record: usize,
        /// The out-of-range user id.
        user: u32,
        /// Number of users in the corpus.
        num_users: u32,
    },
    /// A record referenced a keyword id outside the vocabulary.
    UnknownKeyword {
        /// Offending record index.
        record: usize,
        /// The out-of-range keyword id.
        keyword: u32,
        /// Vocabulary size.
        vocab_size: u32,
    },
    /// Split fractions did not describe a valid partition.
    InvalidSplit {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The corpus was empty where a non-empty corpus is required.
    EmptyCorpus,
}

impl fmt::Display for MobilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobilityError::UnknownUser {
                record,
                user,
                num_users,
            } => write!(
                f,
                "record {record} references user {user}, but corpus has {num_users} users"
            ),
            MobilityError::UnknownKeyword {
                record,
                keyword,
                vocab_size,
            } => write!(
                f,
                "record {record} references keyword {keyword}, but vocabulary has {vocab_size} entries"
            ),
            MobilityError::InvalidSplit { reason } => write!(f, "invalid split: {reason}"),
            MobilityError::EmptyCorpus => write!(f, "corpus contains no records"),
        }
    }
}

impl std::error::Error for MobilityError {}

/// A failed lenient ingest (see [`crate::io::parse_tsv_lenient`]).
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The fraction of malformed lines exceeded the configured budget —
    /// the input looks systematically broken, not merely noisy.
    BudgetExceeded {
        /// Malformed data lines seen so far.
        bad: usize,
        /// Data lines seen so far (good + bad).
        seen: usize,
        /// The configured ceiling on `bad / seen`.
        max_fraction: f64,
        /// 1-based line number where the budget check tripped.
        line: usize,
    },
    /// The surviving records did not form a valid corpus (e.g. every
    /// line was skipped).
    Corpus(MobilityError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::BudgetExceeded {
                bad,
                seen,
                max_fraction,
                line,
            } => write!(
                f,
                "error budget exceeded at line {line}: {bad} of {seen} data lines malformed \
                 (budget {:.2}%)",
                max_fraction * 100.0
            ),
            IngestError::Corpus(e) => write!(f, "ingest produced no usable corpus: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Corpus(e) => Some(e),
            IngestError::BudgetExceeded { .. } => None,
        }
    }
}

impl From<MobilityError> for IngestError {
    fn from(e: MobilityError) -> Self {
        IngestError::Corpus(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MobilityError::UnknownUser {
            record: 7,
            user: 99,
            num_users: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("record 7"));
        assert!(msg.contains("user 99"));

        let e = MobilityError::InvalidSplit {
            reason: "test fraction negative".into(),
        };
        assert!(e.to_string().contains("test fraction negative"));
        assert!(MobilityError::EmptyCorpus
            .to_string()
            .contains("no records"));
    }
}
