//! Importing real mobile data.
//!
//! The experiments run on synthetic corpora, but the library is meant to
//! be pointed at real geo-tagged exports too. This module ingests the
//! lowest common denominator — line-delimited records with a timestamp,
//! a latitude/longitude pair, free text, and optional user/mention
//! fields — building the vocabulary (tokenization + stop-word removal)
//! and user table on the fly.
//!
//! Two formats:
//!
//! * **TSV** (`parse_tsv`): `user <TAB> timestamp <TAB> lat <TAB> lon
//!   <TAB> text`, the layout of the UTGEO2011-style dumps. Mentions are
//!   recovered from `@handle` tokens in the text.
//! * **Builder** (`CorpusBuilder`): push records programmatically from any
//!   source (database rows, JSON readers, …).

use std::collections::HashMap;

use crate::corpus::Corpus;
use crate::error::{IngestError, MobilityError};
use crate::types::{CoordinateFault, GeoPoint, KeywordId, Record, RecordId, Timestamp, UserId};
use crate::vocab::Vocabulary;

/// Incrementally builds a corpus from raw records.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    name: String,
    vocab: Vocabulary,
    users: HashMap<String, UserId>,
    user_names: Vec<String>,
    records: Vec<Record>,
}

impl CorpusBuilder {
    /// Creates a named builder.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were pushed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Interns a user handle.
    pub fn user(&mut self, handle: &str) -> UserId {
        let handle = handle.trim().trim_start_matches('@').to_ascii_lowercase();
        if let Some(&id) = self.users.get(&handle) {
            return id;
        }
        let id = UserId::from(self.user_names.len());
        self.users.insert(handle.clone(), id);
        self.user_names.push(handle);
        id
    }

    /// Tokenizes free text: splits on non-alphanumeric boundaries (keeping
    /// `_`, `#`, `@` inside tokens), lower-cases, interns content words,
    /// and returns `@mention` handles separately.
    pub fn tokenize(&mut self, text: &str) -> (Vec<KeywordId>, Vec<UserId>) {
        let mut keywords = Vec::new();
        let mut mentions = Vec::new();
        for raw in text.split(|c: char| c.is_whitespace() || ",.;:!?\"()[]{}".contains(c)) {
            let token = raw.trim();
            if token.is_empty() {
                continue;
            }
            if let Some(handle) = token.strip_prefix('@') {
                if !handle.is_empty() {
                    mentions.push(self.user(handle));
                }
                continue;
            }
            let token = token.trim_start_matches('#');
            // Skip URLs and pure numbers.
            if token.starts_with("http") || token.chars().all(|c| c.is_ascii_digit()) {
                continue;
            }
            if let Some(id) = self.vocab.intern(token) {
                keywords.push(id);
            }
        }
        (keywords, mentions)
    }

    /// Pushes one record with pre-tokenized content.
    pub fn push(
        &mut self,
        user: UserId,
        timestamp: Timestamp,
        location: GeoPoint,
        keywords: Vec<KeywordId>,
        mentions: Vec<UserId>,
    ) {
        self.records.push(Record {
            id: RecordId::from(self.records.len()),
            user,
            timestamp,
            location,
            keywords,
            mentions,
        });
    }

    /// Pushes one record with raw text (tokenized internally; `@mentions`
    /// found in the text become interaction edges).
    pub fn push_text(
        &mut self,
        user_handle: &str,
        timestamp: Timestamp,
        location: GeoPoint,
        text: &str,
    ) {
        let user = self.user(user_handle);
        let (keywords, mut mentions) = self.tokenize(text);
        mentions.retain(|&m| m != user);
        mentions.dedup();
        self.push(user, timestamp, location, keywords, mentions);
    }

    /// Finalizes the corpus.
    pub fn build(self) -> Result<Corpus, MobilityError> {
        Corpus::new(
            self.name,
            self.records,
            self.vocab,
            self.user_names.len() as u32,
        )
    }
}

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// One structurally valid TSV line, before tokenization.
struct RawLine<'a> {
    user: &'a str,
    timestamp: Timestamp,
    lat: f64,
    lon: f64,
    text: &'a str,
}

/// A structural fault in one TSV line, with enough detail to reproduce
/// the strict parser's exact error messages *and* classify the fault for
/// lenient quarantining.
enum LineFault {
    MissingField { what: &'static str },
    BadTimestamp { detail: String },
    BadLatitude { detail: String },
    BadLongitude { detail: String },
    NonFiniteCoordinate { lat: f64, lon: f64 },
    OutOfRangeCoordinate { lat: f64, lon: f64 },
}

impl LineFault {
    /// The strict parser's error, with its historical wording (non-finite
    /// coordinates have always been reported as out of range).
    fn into_parse_error(self, line: usize) -> ParseError {
        let reason = match self {
            Self::MissingField { what } => format!("missing {what} field"),
            Self::BadTimestamp { detail } => format!("bad timestamp: {detail}"),
            Self::BadLatitude { detail } => format!("bad latitude: {detail}"),
            Self::BadLongitude { detail } => format!("bad longitude: {detail}"),
            Self::NonFiniteCoordinate { lat, lon } | Self::OutOfRangeCoordinate { lat, lon } => {
                format!("coordinates out of range: ({lat}, {lon})")
            }
        };
        ParseError { line, reason }
    }

    fn skip_reason(&self) -> SkipReason {
        match self {
            Self::MissingField { .. } => SkipReason::MissingField,
            Self::BadTimestamp { .. } => SkipReason::BadTimestamp,
            Self::BadLatitude { .. } | Self::BadLongitude { .. } => SkipReason::BadCoordinate,
            Self::NonFiniteCoordinate { .. } => SkipReason::NonFiniteCoordinate,
            Self::OutOfRangeCoordinate { .. } => SkipReason::OutOfRangeCoordinate,
        }
    }
}

/// Parses one data line (the caller has already dropped blank/comment
/// lines). Field order and checks mirror the original strict parser.
fn parse_raw_line(line: &str) -> Result<RawLine<'_>, LineFault> {
    let mut parts = line.splitn(5, '\t');
    let mut next = |what: &'static str| {
        parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or(LineFault::MissingField { what })
    };
    let user = next("user")?;
    let timestamp: Timestamp =
        next("timestamp")?
            .parse()
            .map_err(|e: std::num::ParseIntError| LineFault::BadTimestamp {
                detail: e.to_string(),
            })?;
    let lat: f64 = next("lat")?
        .parse()
        .map_err(|e: std::num::ParseFloatError| LineFault::BadLatitude {
            detail: e.to_string(),
        })?;
    let lon: f64 = next("lon")?
        .parse()
        .map_err(|e: std::num::ParseFloatError| LineFault::BadLongitude {
            detail: e.to_string(),
        })?;
    GeoPoint::new(lat, lon)
        .validate()
        .map_err(|fault| match fault {
            CoordinateFault::NonFinite => LineFault::NonFiniteCoordinate { lat, lon },
            CoordinateFault::OutOfRange => LineFault::OutOfRangeCoordinate { lat, lon },
        })?;
    let text = next("text")?;
    Ok(RawLine {
        user,
        timestamp,
        lat,
        lon,
        text,
    })
}

/// Parses `user <TAB> unix_timestamp <TAB> lat <TAB> lon <TAB> text`
/// lines into a corpus. Empty lines and `#`-prefixed comment lines are
/// skipped; any malformed line aborts with its line number.
///
/// For noisy real-world dumps where aborting on the first bad line is
/// unacceptable, use [`parse_tsv_lenient`].
pub fn parse_tsv(name: &str, input: &str) -> Result<Corpus, ParseError> {
    let mut builder = CorpusBuilder::new(name);
    for (i, line) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let raw = parse_raw_line(line).map_err(|f| f.into_parse_error(lineno))?;
        builder.push_text(
            raw.user,
            raw.timestamp,
            GeoPoint::new(raw.lat, raw.lon),
            raw.text,
        );
    }
    builder.build().map_err(|e| ParseError {
        line: 0,
        reason: e.to_string(),
    })
}

/// Why a line was skipped by [`parse_tsv_lenient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkipReason {
    /// Fewer than five tab-separated fields (or an empty field).
    MissingField,
    /// The timestamp did not parse as an integer.
    BadTimestamp,
    /// Latitude or longitude did not parse as a number at all.
    BadCoordinate,
    /// A coordinate parsed but was NaN or infinite.
    NonFiniteCoordinate,
    /// A finite coordinate outside `[-90, 90] × [-180, 180]`.
    OutOfRangeCoordinate,
    /// Tokenization left no keywords (stop words, URLs, and bare numbers
    /// only) — the record would contribute nothing but a degenerate
    /// graph node.
    NoKeywords,
}

impl SkipReason {
    /// Every reason, in a stable order (indexes [`IngestReport::count`]).
    pub const ALL: [SkipReason; 6] = [
        SkipReason::MissingField,
        SkipReason::BadTimestamp,
        SkipReason::BadCoordinate,
        SkipReason::NonFiniteCoordinate,
        SkipReason::OutOfRangeCoordinate,
        SkipReason::NoKeywords,
    ];

    fn index(self) -> usize {
        Self::ALL.iter().position(|&r| r == self).expect("in ALL")
    }

    /// Stable snake_case label, used for the per-reason obs counters
    /// (`mobility.ingest.skipped.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            SkipReason::MissingField => "missing_field",
            SkipReason::BadTimestamp => "bad_timestamp",
            SkipReason::BadCoordinate => "bad_coordinate",
            SkipReason::NonFiniteCoordinate => "non_finite_coordinate",
            SkipReason::OutOfRangeCoordinate => "out_of_range_coordinate",
            SkipReason::NoKeywords => "no_keywords",
        }
    }
}

/// A skipped line retained for inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// 1-based line number in the input.
    pub line: usize,
    /// Why it was skipped.
    pub reason: SkipReason,
    /// The raw line content.
    pub content: String,
}

/// Bounded sink for skipped lines: keeps the first `cap` offenders
/// verbatim so operators can inspect *what* was skipped without an
/// unbounded memory cost on pathological inputs.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    entries: Vec<QuarantinedLine>,
    cap: usize,
    overflow: usize,
}

impl Quarantine {
    /// A quarantine retaining at most `cap` lines.
    pub fn new(cap: usize) -> Self {
        Self {
            entries: Vec::new(),
            cap,
            overflow: 0,
        }
    }

    fn admit(&mut self, line: usize, reason: SkipReason, content: &str) {
        if self.entries.len() < self.cap {
            self.entries.push(QuarantinedLine {
                line,
                reason,
                content: content.to_string(),
            });
        } else {
            self.overflow += 1;
        }
    }

    /// The retained lines, in input order.
    pub fn entries(&self) -> &[QuarantinedLine] {
        &self.entries
    }

    /// Skipped lines that did not fit under the cap.
    pub fn overflow(&self) -> usize {
        self.overflow
    }
}

/// Error budget and retention limits for [`parse_tsv_lenient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LenientPolicy {
    /// Ceiling on `skipped / data lines seen`. Crossing it aborts the
    /// ingest: a systematically broken input should fail loudly, not be
    /// silently decimated.
    pub max_bad_fraction: f64,
    /// Data lines to ingest before the running-fraction check starts
    /// firing (a bad first line is 100% bad; small prefixes need slack).
    /// The final end-of-input check is unconditional.
    pub grace_lines: usize,
    /// Skipped lines retained verbatim in the [`Quarantine`].
    pub quarantine_cap: usize,
}

impl Default for LenientPolicy {
    /// 1% budget, 200 grace lines, 64 quarantined lines.
    fn default() -> Self {
        Self {
            max_bad_fraction: 0.01,
            grace_lines: 200,
            quarantine_cap: 64,
        }
    }
}

/// Outcome of a successful [`parse_tsv_lenient`] run.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Records that made it into the corpus.
    pub parsed: usize,
    /// Data lines skipped, by reason (index with [`IngestReport::count`]).
    counts: [usize; SkipReason::ALL.len()],
    /// The retained offenders.
    pub quarantine: Quarantine,
}

impl IngestReport {
    /// Lines skipped for `reason`.
    pub fn count(&self, reason: SkipReason) -> usize {
        self.counts[reason.index()]
    }

    /// Total lines skipped across all reasons.
    pub fn skipped(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Like [`parse_tsv`], but skips malformed lines instead of aborting —
/// up to the error budget of `policy`.
///
/// Every skipped line is counted by [`SkipReason`], mirrored to the
/// `mobility.ingest.*` obs counters, and retained (up to the quarantine
/// cap) for inspection. Beyond the strict parser's structural checks,
/// records whose text tokenizes to zero keywords are also skipped: they
/// cannot participate in the cross-modal objective.
///
/// Fails with [`IngestError::BudgetExceeded`] as soon as the running
/// bad-line fraction crosses `policy.max_bad_fraction` (after
/// `policy.grace_lines` data lines, and unconditionally at end of
/// input), or with [`IngestError::Corpus`] when no usable records
/// survive.
pub fn parse_tsv_lenient(
    name: &str,
    input: &str,
    policy: &LenientPolicy,
) -> Result<(Corpus, IngestReport), IngestError> {
    let mut builder = CorpusBuilder::new(name);
    let mut counts = [0usize; SkipReason::ALL.len()];
    let mut quarantine = Quarantine::new(policy.quarantine_cap);
    let mut parsed = 0usize;
    let mut seen = 0usize;
    let mut bad = 0usize;

    let skip = |counts: &mut [usize; SkipReason::ALL.len()],
                quarantine: &mut Quarantine,
                lineno: usize,
                reason: SkipReason,
                content: &str| {
        counts[reason.index()] += 1;
        quarantine.admit(lineno, reason, content);
    };

    for (i, line) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        seen += 1;
        match parse_raw_line(line) {
            Ok(raw) => {
                let user = builder.user(raw.user);
                let (keywords, mut mentions) = builder.tokenize(raw.text);
                if keywords.is_empty() {
                    bad += 1;
                    skip(
                        &mut counts,
                        &mut quarantine,
                        lineno,
                        SkipReason::NoKeywords,
                        line,
                    );
                } else {
                    mentions.retain(|&m| m != user);
                    mentions.dedup();
                    builder.push(
                        user,
                        raw.timestamp,
                        GeoPoint::new(raw.lat, raw.lon),
                        keywords,
                        mentions,
                    );
                    parsed += 1;
                }
            }
            Err(fault) => {
                bad += 1;
                skip(
                    &mut counts,
                    &mut quarantine,
                    lineno,
                    fault.skip_reason(),
                    line,
                );
            }
        }
        if seen > policy.grace_lines && bad as f64 > policy.max_bad_fraction * seen as f64 {
            return Err(IngestError::BudgetExceeded {
                bad,
                seen,
                max_fraction: policy.max_bad_fraction,
                line: lineno,
            });
        }
    }
    if bad as f64 > policy.max_bad_fraction * seen.max(1) as f64 {
        return Err(IngestError::BudgetExceeded {
            bad,
            seen,
            max_fraction: policy.max_bad_fraction,
            line: input.lines().count(),
        });
    }

    obs::counter("mobility.ingest.parsed").add(parsed as u64);
    for reason in SkipReason::ALL {
        let n = counts[reason.index()];
        if n > 0 {
            obs::counter(&format!("mobility.ingest.skipped.{}", reason.label())).add(n as u64);
        }
    }

    let corpus = builder.build()?;
    let report = IngestReport {
        parsed,
        counts,
        quarantine,
    };
    Ok((corpus, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# user\ttimestamp\tlat\tlon\ttext
alice\t1406851200\t34.05\t-118.24\tGreat surf at the beach today! @bob
bob\t1406854800\t34.06\t-118.25\tEspresso and a pastry, the usual #coffee

carol\t1406858400\t33.74\t-118.26\tShips at the harbor http://pic.example 42
";

    #[test]
    fn parses_valid_tsv() {
        let corpus = parse_tsv("demo", SAMPLE).unwrap();
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.num_users(), 3);

        let r0 = &corpus.records()[0];
        let words: Vec<&str> = r0
            .keywords
            .iter()
            .map(|&k| corpus.vocab().word(k))
            .collect();
        assert!(words.contains(&"surf"));
        assert!(words.contains(&"beach"));
        // Stop words removed ("at", "the", "today").
        assert!(!words.contains(&"the"));
        assert!(!words.contains(&"today"));
        // Mention captured, not interned as a keyword.
        assert_eq!(r0.mentions.len(), 1);
        assert!(!words.contains(&"bob"));

        // Hashtag and URL handling.
        let r1 = &corpus.records()[1];
        let words1: Vec<&str> = r1
            .keywords
            .iter()
            .map(|&k| corpus.vocab().word(k))
            .collect();
        assert!(words1.contains(&"coffee"));
        let r2 = &corpus.records()[2];
        let words2: Vec<&str> = r2
            .keywords
            .iter()
            .map(|&k| corpus.vocab().word(k))
            .collect();
        assert!(words2.contains(&"harbor"));
        assert!(!words2.iter().any(|w| w.starts_with("http")));
        assert!(!words2.contains(&"42"));
    }

    #[test]
    fn mention_user_ids_are_shared_with_authors() {
        let corpus = parse_tsv("demo", SAMPLE).unwrap();
        let r0 = &corpus.records()[0];
        let r1 = &corpus.records()[1];
        // alice mentioned @bob; bob authored record 1.
        assert_eq!(r0.mentions[0], r1.user);
    }

    #[test]
    fn rejects_malformed_lines_with_position() {
        let bad = "alice\t1406851200\t34.05\t-118.24\thi\nbob\tnot_a_ts\t1\t2\tx";
        let err = parse_tsv("demo", bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("timestamp"));

        let bad = "alice\t1406851200\t934.05\t-118.24\thi";
        let err = parse_tsv("demo", bad).unwrap_err();
        assert!(err.reason.contains("out of range"));

        let bad = "alice\t1406851200\t34.05";
        let err = parse_tsv("demo", bad).unwrap_err();
        assert!(err.reason.contains("missing"));
    }

    #[test]
    fn builder_self_mentions_are_dropped() {
        let mut b = CorpusBuilder::new("t");
        b.push_text(
            "alice",
            0,
            GeoPoint::new(1.0, 2.0),
            "talking to @alice myself",
        );
        let corpus = b.build().unwrap();
        assert!(corpus.records()[0].mentions.is_empty());
    }

    #[test]
    fn builder_user_interning_is_case_insensitive() {
        let mut b = CorpusBuilder::new("t");
        let a = b.user("Alice");
        let b2 = b.user("@alice");
        assert_eq!(a, b2);
        assert_eq!(b.user("bob").idx(), 1);
    }

    #[test]
    fn empty_input_fails_cleanly() {
        let err = parse_tsv("demo", "").unwrap_err();
        assert!(err.reason.contains("no records"));
    }

    /// A policy loose enough that small test inputs never trip the budget.
    fn loose() -> LenientPolicy {
        LenientPolicy {
            max_bad_fraction: 0.9,
            grace_lines: 0,
            quarantine_cap: 64,
        }
    }

    #[test]
    fn lenient_parses_what_strict_parses() {
        let strict = parse_tsv("demo", SAMPLE).unwrap();
        let (lenient, report) = parse_tsv_lenient("demo", SAMPLE, &loose()).unwrap();
        assert_eq!(lenient.len(), strict.len());
        assert_eq!(report.parsed, 3);
        assert_eq!(report.skipped(), 0);
        for (a, b) in strict.records().iter().zip(lenient.records()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn lenient_classifies_each_fault_kind() {
        let input = "\
alice\t1406851200\t34.05\t-118.24\tmorning espresso downtown
bob\t1406854800\t34.06
carol\tnot-a-ts\t33.74\t-118.26\tharbor cranes
dave\t1406862000\tabc\t-118.27\ttacos tonight
erin\t1406865600\tNaN\t-118.28\tramen run
frank\t1406869200\t33.77\t9999.0\tlate shift
grace\t1406872800\t33.78\t-118.30\tthe and of with a 1234
henry\t1406876400\t33.79\t-118.31\tclosing surf session
";
        let (corpus, report) = parse_tsv_lenient("demo", input, &loose()).unwrap();
        assert_eq!(report.parsed, 2);
        assert_eq!(corpus.len(), 2);
        assert_eq!(report.count(SkipReason::MissingField), 1);
        assert_eq!(report.count(SkipReason::BadTimestamp), 1);
        assert_eq!(report.count(SkipReason::BadCoordinate), 1);
        assert_eq!(report.count(SkipReason::NonFiniteCoordinate), 1);
        assert_eq!(report.count(SkipReason::OutOfRangeCoordinate), 1);
        assert_eq!(report.count(SkipReason::NoKeywords), 1);
        assert_eq!(report.skipped(), 6);
        // Quarantine keeps the offending lines with positions.
        let lines: Vec<usize> = report.quarantine.entries().iter().map(|q| q.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(
            report.quarantine.entries()[0].reason,
            SkipReason::MissingField
        );
        assert!(report.quarantine.entries()[1].content.contains("not-a-ts"));
    }

    #[test]
    fn lenient_budget_fails_fast_after_grace() {
        // 30% bad against a 10% budget with a short grace window.
        let mut input = String::new();
        for i in 0..300 {
            if i % 3 == 0 {
                input.push_str(&format!("u{i}\tnot-a-ts\t1.0\t2.0\twords here\n"));
            } else {
                input.push_str(&format!("u{i}\t1406851200\t1.0\t2.0\tkeyword alpha\n"));
            }
        }
        let policy = LenientPolicy {
            max_bad_fraction: 0.1,
            grace_lines: 30,
            quarantine_cap: 8,
        };
        let err = parse_tsv_lenient("demo", &input, &policy).unwrap_err();
        let IngestError::BudgetExceeded {
            bad, seen, line, ..
        } = err
        else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        // Tripped right after the grace window, not at end of input.
        assert!(seen > 30 && seen < 60, "seen {seen}");
        assert!(bad * 10 > seen, "bad {bad} of {seen}");
        assert!(line <= 60);
    }

    #[test]
    fn lenient_budget_checks_at_end_of_short_input() {
        // 1 bad line of 4 = 25% against a 10% budget, but the input is
        // shorter than the grace window — the end-of-input check catches it.
        let input = "\
a\t1406851200\t1.0\t2.0\tkeyword alpha
b\t1406851201\t1.0\t2.0\tkeyword bravo
c\tbroken\t1.0\t2.0\tkeyword charlie
d\t1406851203\t1.0\t2.0\tkeyword delta
";
        let policy = LenientPolicy {
            max_bad_fraction: 0.1,
            grace_lines: 200,
            quarantine_cap: 8,
        };
        let err = parse_tsv_lenient("demo", input, &policy).unwrap_err();
        assert!(
            matches!(
                err,
                IngestError::BudgetExceeded {
                    bad: 1,
                    seen: 4,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn quarantine_cap_bounds_retention() {
        let mut input = String::new();
        for i in 0..50 {
            input.push_str(&format!("u{i}\tnope\t1.0\t2.0\twords\n"));
        }
        input.push_str("ok\t1406851200\t1.0\t2.0\tkeyword alpha\n");
        let policy = LenientPolicy {
            max_bad_fraction: 1.0,
            grace_lines: 0,
            quarantine_cap: 5,
        };
        let (_, report) = parse_tsv_lenient("demo", &input, &policy).unwrap();
        assert_eq!(report.quarantine.entries().len(), 5);
        assert_eq!(report.quarantine.overflow(), 45);
        assert_eq!(report.count(SkipReason::BadTimestamp), 50);
    }

    #[test]
    fn lenient_all_lines_bad_is_a_corpus_error_under_full_budget() {
        let input = "a\tnope\t1.0\t2.0\twords\n";
        let policy = LenientPolicy {
            max_bad_fraction: 1.0,
            grace_lines: 0,
            quarantine_cap: 5,
        };
        let err = parse_tsv_lenient("demo", input, &policy).unwrap_err();
        assert!(
            matches!(err, IngestError::Corpus(MobilityError::EmptyCorpus)),
            "{err:?}"
        );
    }
}
