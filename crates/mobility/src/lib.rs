//! Mobile-data substrate for the ACTOR reproduction.
//!
//! The paper models a corpus `R = {r_1, …, r_N}` of geo-tagged social-media
//! records, each a tuple `⟨t_i, l_i, W_i⟩` of creation timestamp, location,
//! and bag of keywords (§3 of the paper), authored by a user who may
//! *mention* other users (the source of the user interaction graph, §4.1).
//!
//! This crate provides:
//!
//! * the record/corpus data model ([`Record`], [`Corpus`], [`types`]),
//! * keyword interning with stop-word removal ([`vocab`]),
//! * deterministic train/valid/test splitting ([`split`]),
//! * a synthetic corpus generator ([`synth`]) that stands in for the
//!   proprietary UTGEO2011 / TWEET / 4SQ datasets used in the paper. The
//!   generator plants latent *activities* (spatial hotspot + temporal peak +
//!   keyword multinomial) and user *communities* with mention behaviour, so
//!   that every statistical property the ACTOR algorithm exploits exists by
//!   construction. See `DESIGN.md` §3 for the substitution argument.

pub mod corpus;
pub mod error;
pub mod io;
pub mod rng;
pub mod split;
pub mod stopwords;
pub mod synth;
pub mod types;
pub mod vocab;

pub use corpus::{Corpus, CorpusStats};
pub use error::{IngestError, MobilityError};
pub use split::{CorpusSplit, SplitSpec};
pub use types::{
    CoordinateFault, GeoPoint, KeywordId, Record, RecordId, Timestamp, UserId, SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
};
pub use vocab::Vocabulary;
