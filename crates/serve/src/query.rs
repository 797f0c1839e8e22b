//! Typed query API for the serving engine.
//!
//! A [`QueryRequest`] names *what is observed* (a point, a second-of-day,
//! a keyword, or any combination — the paper's "what/where/when" queries)
//! and *what to return* (which modalities, how many results). The engine
//! resolves it to graph nodes, and on a cache miss turns those into one
//! unit query vector and answers from the current snapshot's per-modality
//! indexes.

use std::fmt;

use mobility::types::format_time_of_day;
use mobility::{CoordinateFault, GeoPoint};

/// Which result modalities a query wants back. Skipping a modality skips
/// its index walk entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModalityMask {
    /// Return top keywords.
    pub words: bool,
    /// Return top temporal hotspots.
    pub times: bool,
    /// Return top spatial hotspots.
    pub places: bool,
}

impl ModalityMask {
    /// All three modalities.
    pub const ALL: Self = Self {
        words: true,
        times: true,
        places: true,
    };
}

impl Default for ModalityMask {
    fn default() -> Self {
        Self::ALL
    }
}

/// The observed side of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// "What happens here?" — a raw geographic point (Fig. 9).
    Spatial(GeoPoint),
    /// "What happens at this hour?" — a second-of-day in `[0, 86400)`
    /// (or `[0, period)` for weekly models) (Fig. 10).
    Temporal(f64),
    /// "Where and when does this activity happen?" — a vocabulary keyword
    /// (Fig. 11).
    Keyword(String),
    /// Any combination of the three modalities, averaged per §6.2.1.
    /// At least one part must be present.
    Composite {
        /// Observed second-of-day, if any.
        second_of_day: Option<f64>,
        /// Observed location, if any.
        point: Option<GeoPoint>,
        /// Observed keywords (may be empty if another part is set).
        words: Vec<String>,
    },
}

impl QueryKind {
    /// The observed second-of-day, point and keywords.
    pub(crate) fn parts(&self) -> (Option<f64>, Option<GeoPoint>, &[String]) {
        match self {
            Self::Spatial(p) => (None, Some(*p), &[]),
            Self::Temporal(s) => (Some(*s), None, &[]),
            Self::Keyword(w) => (None, None, std::slice::from_ref(w)),
            Self::Composite {
                second_of_day,
                point,
                words,
            } => (*second_of_day, *point, words),
        }
    }
}

/// A human-readable restatement: `location (34.0000, -118.2000)`, `time
/// 22:00:00`, `keyword "beach"`, or a composite's parts joined by ` + `.
impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Spatial(_) => f.write_str("location ")?,
            Self::Temporal(_) => f.write_str("time ")?,
            Self::Keyword(w) => return write!(f, "keyword {w:?}"),
            Self::Composite { .. } => {}
        }
        let (second_of_day, point, words) = self.parts();
        let mut sep = "";
        if let Some(s) = second_of_day {
            f.write_str(&format_time_of_day(s))?;
            sep = " + ";
        }
        if let Some(p) = point {
            write!(f, "{sep}({:.4}, {:.4})", p.lat, p.lon)?;
            sep = " + ";
        }
        if !words.is_empty() {
            write!(f, "{sep}{}", words.join(" "))?;
        }
        Ok(())
    }
}

/// A complete request: what was observed, what to return.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The observed modalities.
    pub kind: QueryKind,
    /// Results per returned modality.
    pub k: usize,
    /// Which modalities to return.
    pub modalities: ModalityMask,
}

impl QueryRequest {
    /// A spatial query returning all modalities.
    pub fn spatial(point: GeoPoint, k: usize) -> Self {
        Self {
            kind: QueryKind::Spatial(point),
            k,
            modalities: ModalityMask::ALL,
        }
    }

    /// A temporal (second-of-day) query returning all modalities.
    pub fn temporal(second_of_day: f64, k: usize) -> Self {
        Self {
            kind: QueryKind::Temporal(second_of_day),
            k,
            modalities: ModalityMask::ALL,
        }
    }

    /// A keyword query returning all modalities.
    pub fn keyword(word: impl Into<String>, k: usize) -> Self {
        Self {
            kind: QueryKind::Keyword(word.into()),
            k,
            modalities: ModalityMask::ALL,
        }
    }

    /// A composite what/where/when query returning all modalities.
    pub fn composite(
        second_of_day: Option<f64>,
        point: Option<GeoPoint>,
        words: Vec<String>,
    ) -> Self {
        Self {
            kind: QueryKind::Composite {
                second_of_day,
                point,
                words,
            },
            k: 10,
            modalities: ModalityMask::ALL,
        }
    }

    /// Restricts the returned modalities.
    pub fn with_modalities(mut self, modalities: ModalityMask) -> Self {
        self.modalities = modalities;
        self
    }

    /// Sets the per-modality result count.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }
}

/// The engine's answer. Times and places come back as raw hotspot centers
/// (`second-of-day`, [`GeoPoint`]); presentation-layer formatting belongs
/// to callers (see `eval::neighbor`), which describe a request by its
/// [`QueryKind`]'s `Display`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// True when the answer came from the query cache.
    pub from_cache: bool,
    /// Top keywords with cosine scores, best first.
    pub words: Vec<(String, f64)>,
    /// Top temporal hotspot centers (second-of-period) with scores.
    pub times: Vec<(f64, f64)>,
    /// Top spatial hotspot centers with scores.
    pub places: Vec<(GeoPoint, f64)>,
}

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A keyword is not in the model's vocabulary.
    UnknownWord(String),
    /// A composite query with no observed modality at all.
    EmptyQuery,
    /// The observed second-of-day is NaN or infinite. A finite one
    /// outside `[0, period)` is valid and wraps.
    NonFiniteTime,
    /// The observed point fails [`GeoPoint::validate`].
    InvalidPoint(CoordinateFault),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownWord(w) => write!(f, "word {w:?} is not in the model vocabulary"),
            Self::EmptyQuery => write!(f, "composite query observed no modality"),
            Self::NonFiniteTime => write!(f, "observed second-of-day is not finite"),
            Self::InvalidPoint(fault) => write!(f, "observed point is invalid ({fault:?})"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fill_the_obvious_fields() {
        let q = QueryRequest::spatial(GeoPoint::new(34.0, -118.2), 7);
        assert_eq!(q.k, 7);
        assert_eq!(q.modalities, ModalityMask::ALL);

        let q = QueryRequest::keyword("beach", 3).with_modalities(ModalityMask {
            words: true,
            times: false,
            places: false,
        });
        assert!(q.modalities.words && !q.modalities.times && !q.modalities.places);

        let q = QueryRequest::composite(Some(3600.0), None, vec!["coffee".into()]).with_k(5);
        assert_eq!(q.k, 5);
    }

    #[test]
    fn kinds_describe_themselves() {
        let p = GeoPoint::new(34.0, -118.2);
        assert_eq!(
            QueryKind::Spatial(p).to_string(),
            "location (34.0000, -118.2000)"
        );
        assert_eq!(
            QueryKind::Temporal(22.0 * 3600.0).to_string(),
            "time 22:00:00"
        );
        assert_eq!(
            QueryKind::Keyword("beach".into()).to_string(),
            "keyword \"beach\""
        );
        let q = QueryRequest::composite(Some(9.0 * 3600.0), Some(p), vec!["a".into(), "b".into()]);
        assert_eq!(q.kind.to_string(), "09:00:00 + (34.0000, -118.2000) + a b");
        let q = QueryRequest::composite(None, None, vec!["coffee".into()]);
        assert_eq!(q.kind.to_string(), "coffee");
    }

    #[test]
    fn errors_display_usefully() {
        assert!(QueryError::UnknownWord("zzz".into())
            .to_string()
            .contains("zzz"));
        assert!(QueryError::EmptyQuery.to_string().contains("no modality"));
    }
}
