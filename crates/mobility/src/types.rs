//! Core identifier and record types shared across the workspace.

/// Number of seconds in a day; used for circular time-of-day arithmetic.
pub const SECONDS_PER_DAY: i64 = 86_400;

/// Number of seconds in a week; used for circular time-of-week
/// arithmetic (weekday/weekend rhythms).
pub const SECONDS_PER_WEEK: i64 = 7 * SECONDS_PER_DAY;

/// Creation timestamp of a record, in seconds since the Unix epoch.
pub type Timestamp = i64;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The identifier as a `usize` index into dense per-entity arrays.
            #[inline]
            pub fn idx(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(v: usize) -> Self {
                debug_assert!(v <= u32::MAX as usize);
                Self(v as u32)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// Dense identifier of a record within a [`crate::Corpus`].
    RecordId
);
id_type!(
    /// Dense identifier of a mobile user.
    UserId
);
id_type!(
    /// Dense identifier of a keyword in a [`crate::Vocabulary`].
    KeywordId
);

/// A point on the (locally flattened) earth surface.
///
/// The paper works on city-scale data (Los Angeles, New York), where
/// latitude/longitude behave like a planar coordinate system to within a
/// fraction of a percent, so distances are Euclidean in degree space scaled
/// by the cosine of a reference latitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a new point.
    #[inline]
    pub fn new(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Squared Euclidean distance in degree space.
    ///
    /// Sufficient for nearest-hotspot assignment and mean-shift windows,
    /// where only relative comparisons matter.
    #[inline]
    pub fn dist2(&self, other: &GeoPoint) -> f64 {
        let dlat = self.lat - other.lat;
        let dlon = self.lon - other.lon;
        dlat * dlat + dlon * dlon
    }

    /// Euclidean distance in degree space.
    #[inline]
    pub fn dist(&self, other: &GeoPoint) -> f64 {
        self.dist2(other).sqrt()
    }

    /// The coordinate rule every input path applies (file ingest,
    /// streamed records, served queries): both coordinates finite, the
    /// latitude in `[-90, 90]` and the longitude in `[-180, 180]`.
    /// Anything else would reach nearest-hotspot assignment, where NaN
    /// poisons every distance comparison.
    pub fn validate(&self) -> Result<(), CoordinateFault> {
        if !self.lat.is_finite() || !self.lon.is_finite() {
            Err(CoordinateFault::NonFinite)
        } else if !(-90.0..=90.0).contains(&self.lat) || !(-180.0..=180.0).contains(&self.lon) {
            Err(CoordinateFault::OutOfRange)
        } else {
            Ok(())
        }
    }
}

/// Why a point fails [`GeoPoint::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinateFault {
    /// A coordinate is NaN or infinite.
    NonFinite,
    /// A finite coordinate outside `[-90, 90] × [-180, 180]`.
    OutOfRange,
}

/// The second-of-day (0..86400) of a timestamp, for circular temporal
/// hotspot detection.
#[inline]
pub fn second_of_day(t: Timestamp) -> f64 {
    (t.rem_euclid(SECONDS_PER_DAY)) as f64
}

/// Day of week of a timestamp, `0 = Monday .. 6 = Sunday`
/// (1970-01-01 was a Thursday).
#[inline]
pub fn day_of_week(t: Timestamp) -> u32 {
    ((t.div_euclid(SECONDS_PER_DAY) + 3).rem_euclid(7)) as u32
}

/// True for Saturday and Sunday.
#[inline]
pub fn is_weekend(t: Timestamp) -> bool {
    day_of_week(t) >= 5
}

/// Formats a second-of-day as `HH:MM:SS`, mirroring the timestamps shown in
/// the paper's case studies (Table 3, Figs. 9–11).
pub fn format_time_of_day(seconds: f64) -> String {
    let s = seconds.rem_euclid(SECONDS_PER_DAY as f64) as i64;
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

/// One mobile-data record `⟨t, l, W⟩` plus its author and mentions.
///
/// `keywords` is a *bag*: duplicates are allowed and meaningful (the
/// intra-record meta-graph sums keyword embeddings, footnote 4 of the
/// paper). `mentions` holds the users referenced with an `@`, the raw
/// material of the user interaction graph (Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Dense record identifier, equal to the record's index in its corpus.
    pub id: RecordId,
    /// The authoring user.
    pub user: UserId,
    /// Creation timestamp (seconds since epoch).
    pub timestamp: Timestamp,
    /// Creation location.
    pub location: GeoPoint,
    /// Bag of keywords after stop-word removal.
    pub keywords: Vec<KeywordId>,
    /// Users mentioned in the text, possibly empty.
    pub mentions: Vec<UserId>,
}

impl Record {
    /// True if the record mentions at least one other user.
    #[inline]
    pub fn has_mentions(&self) -> bool {
        !self.mentions.is_empty()
    }

    /// The record's second-of-day, used by the temporal hotspot detector.
    #[inline]
    pub fn second_of_day(&self) -> f64 {
        second_of_day(self.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        let u = UserId::from(42usize);
        assert_eq!(u.idx(), 42);
        assert_eq!(UserId(42), u);
        assert_eq!(format!("{u}"), "UserId(42)");
    }

    #[test]
    fn geo_distance_is_symmetric_and_zero_on_self() {
        let a = GeoPoint::new(34.05, -118.25);
        let b = GeoPoint::new(33.74, -118.26);
        assert_eq!(a.dist2(&a), 0.0);
        assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-12);
        assert!(a.dist(&b) > 0.0);
    }

    #[test]
    fn day_of_week_matches_known_dates() {
        // 1970-01-01 was a Thursday (index 3 with Monday = 0).
        assert_eq!(day_of_week(0), 3);
        assert_eq!(day_of_week(SECONDS_PER_DAY), 4); // Friday
        assert_eq!(day_of_week(3 * SECONDS_PER_DAY), 6); // Sunday
        assert!(is_weekend(2 * SECONDS_PER_DAY)); // Saturday
        assert!(!is_weekend(4 * SECONDS_PER_DAY)); // Monday
                                                   // 2014-08-01 (the synthetic epoch base) was a Friday.
        assert_eq!(day_of_week(1_406_851_200), 4);
        // Negative timestamps wrap consistently.
        assert_eq!(day_of_week(-SECONDS_PER_DAY), 2); // Wednesday
    }

    #[test]
    fn second_of_day_wraps_negative_timestamps() {
        assert_eq!(second_of_day(0), 0.0);
        assert_eq!(second_of_day(86_400 + 5), 5.0);
        assert_eq!(second_of_day(-5), (86_400 - 5) as f64);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(format_time_of_day(0.0), "00:00:00");
        assert_eq!(format_time_of_day(22.0 * 3600.0 + 61.0), "22:01:01");
        assert_eq!(format_time_of_day(86_400.0 + 30.0), "00:00:30");
    }

    #[test]
    fn record_mention_helpers() {
        let r = Record {
            id: RecordId(0),
            user: UserId(1),
            timestamp: 100,
            location: GeoPoint::new(0.0, 0.0),
            keywords: vec![KeywordId(3)],
            mentions: vec![],
        };
        assert!(!r.has_mentions());
        assert_eq!(r.second_of_day(), 100.0);
    }
}
