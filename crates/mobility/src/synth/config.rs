//! Generator configuration and dataset presets.

/// Bounding box and scale parameters of the synthetic world plus all
/// behavioural knobs of the generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Corpus name (also used in reports).
    pub name: String,
    /// Number of records to generate.
    pub n_records: usize,
    /// Number of users.
    pub n_users: usize,
    /// Number of user communities.
    pub n_communities: usize,
    /// Number of latent activities (≤ `THEMES.len()`).
    pub n_activities: usize,
    /// City bounding box: (min_lat, min_lon, max_lat, max_lon).
    pub bbox: (f64, f64, f64, f64),
    /// Spatial std-dev of each activity's Gaussian, in degrees.
    pub spatial_sd_deg: f64,
    /// Multiplier on each theme's hour std-dev (1.0 = as listed).
    pub hour_sd_scale: f64,
    /// Fraction of records whose time-of-day is uniform rather than
    /// activity-peaked (people post at arbitrary hours too; this is what
    /// keeps the paper's Time-prediction MRRs barely above random).
    pub uniform_time_fraction: f64,
    /// Fraction of activities that are weekend-skewed: their records fall
    /// on Saturday/Sunday with high probability, giving the corpus a
    /// weekly rhythm that `temporal_period = SECONDS_PER_WEEK` models can
    /// pick up. `0.0` (the presets' default) keeps the paper's purely
    /// daily structure.
    pub weekend_activity_fraction: f64,
    /// Spatial clusters ("chain branches") per activity; venue tokens are
    /// cluster-specific, see [`super::world::Activity`].
    pub clusters_per_activity: usize,
    /// Number of days the corpus spans.
    pub n_days: u32,
    /// Mean keywords per record (Poisson, clamped to ≥ 1).
    pub keywords_per_record: f64,
    /// Number of venue tokens per activity (4SQ-style check-in names).
    pub venues_per_activity: usize,
    /// Probability that a keyword draw is a venue token of the record's
    /// activity (tight text↔location coupling; high for check-in data).
    pub venue_word_prob: f64,
    /// Probability that a keyword draw is a background (non-topical) word.
    pub background_word_prob: f64,
    /// Probability that a keyword draw is a polysemous word attached to the
    /// record's activity.
    pub polysemous_word_prob: f64,
    /// Number of background filler words in the vocabulary.
    pub n_background_words: usize,
    /// Fraction of records that mention another user.
    pub mention_rate: f64,
    /// Among mention records, fraction whose *text* is drawn from the
    /// mentioned user's favourite activity (the Fig. 1 information flow).
    pub mention_crossover: f64,
    /// Fraction of records that are "sparse" (1–2 keywords only).
    pub sparse_record_fraction: f64,
    /// Number of activities each community prefers.
    pub activities_per_community: usize,
    /// Zipf exponent for user posting frequency.
    pub user_activity_zipf: f64,
    /// RNG seed.
    pub seed: u64,
}

/// The three dataset presets of Table 1, at laptop scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetPreset {
    /// Mirrors UTGEO2011: global-ish Twitter with user mentions
    /// (16.8 % mention rate per §1 of the paper).
    Utgeo2011,
    /// Mirrors TWEET: LA tweets, no user-interaction data (§6.3).
    Tweet,
    /// Mirrors 4SQ: NY Foursquare check-ins — venue-heavy text, small
    /// vocabulary, no user-interaction data, highest MRRs in Table 2.
    Foursquare,
}

impl DatasetPreset {
    /// All presets in Table 1 order.
    pub const ALL: [DatasetPreset; 3] = [
        DatasetPreset::Utgeo2011,
        DatasetPreset::Tweet,
        DatasetPreset::Foursquare,
    ];

    /// The preset's corpus name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetPreset::Utgeo2011 => "synth-utgeo2011",
            DatasetPreset::Tweet => "synth-tweet",
            DatasetPreset::Foursquare => "synth-4sq",
        }
    }

    /// Builds the generator configuration for this preset.
    ///
    /// Scales are ~20–50× below the paper's corpora so the full Table 2
    /// sweep (8 methods × 3 datasets × 3 tasks) runs in minutes; every
    /// structural ratio (mention rate, vocabulary richness, venue
    /// coupling) follows the source dataset.
    pub fn config(self, seed: u64) -> SynthConfig {
        match self {
            DatasetPreset::Utgeo2011 => SynthConfig {
                name: self.name().to_string(),
                n_records: 30_000,
                n_users: 6_000,
                n_communities: 120,
                n_activities: 24,
                // A US-city-sized box (Austin-ish), standing in for the
                // geolocation-Twitter footprint.
                bbox: (30.10, -97.95, 30.50, -97.55),
                spatial_sd_deg: 0.012,
                hour_sd_scale: 1.6,
                uniform_time_fraction: 0.45,
                weekend_activity_fraction: 0.0,
                clusters_per_activity: 3,
                n_days: 90,
                keywords_per_record: 5.0,
                venues_per_activity: 8,
                venue_word_prob: 0.15,
                background_word_prob: 0.28,
                polysemous_word_prob: 0.08,
                n_background_words: 700,
                mention_rate: 0.168,
                mention_crossover: 0.5,
                sparse_record_fraction: 0.45,
                activities_per_community: 3,
                user_activity_zipf: 0.8,
                seed,
            },
            DatasetPreset::Tweet => SynthConfig {
                name: self.name().to_string(),
                n_records: 40_000,
                n_users: 8_000,
                n_communities: 150,
                n_activities: 24,
                // Los Angeles.
                bbox: (33.70, -118.45, 34.15, -118.10),
                spatial_sd_deg: 0.010,
                hour_sd_scale: 1.4,
                uniform_time_fraction: 0.45,
                weekend_activity_fraction: 0.0,
                clusters_per_activity: 3,
                n_days: 120,
                keywords_per_record: 5.5,
                venues_per_activity: 10,
                venue_word_prob: 0.16,
                background_word_prob: 0.24,
                polysemous_word_prob: 0.08,
                n_background_words: 800,
                mention_rate: 0.0,
                mention_crossover: 0.0,
                sparse_record_fraction: 0.35,
                activities_per_community: 3,
                user_activity_zipf: 0.8,
                seed,
            },
            DatasetPreset::Foursquare => SynthConfig {
                name: self.name().to_string(),
                n_records: 20_000,
                n_users: 4_000,
                n_communities: 80,
                n_activities: 20,
                // New York.
                bbox: (40.60, -74.05, 40.85, -73.85),
                spatial_sd_deg: 0.006,
                hour_sd_scale: 1.2,
                uniform_time_fraction: 0.40,
                weekend_activity_fraction: 0.0,
                clusters_per_activity: 4,
                n_days: 240,
                keywords_per_record: 4.0,
                venues_per_activity: 12,
                // Check-ins name their venue: text pins down the place.
                venue_word_prob: 0.55,
                background_word_prob: 0.05,
                polysemous_word_prob: 0.04,
                n_background_words: 200,
                mention_rate: 0.0,
                mention_crossover: 0.0,
                sparse_record_fraction: 0.15,
                activities_per_community: 2,
                user_activity_zipf: 0.8,
                seed,
            },
        }
    }

    /// A miniature configuration of this preset for tests and examples
    /// (seconds, not minutes).
    pub fn small_config(self, seed: u64) -> SynthConfig {
        let mut c = self.config(seed);
        c.n_records = 3_000;
        c.n_users = 600;
        c.n_communities = 24;
        c.n_background_words = 150;
        c
    }
}

impl SynthConfig {
    /// Validates internal consistency; the generator asserts this.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_records == 0 || self.n_users == 0 {
            return Err("records and users must be positive".into());
        }
        if self.n_communities == 0 || self.n_communities > self.n_users {
            return Err("communities must be in 1..=users".into());
        }
        if self.n_activities == 0 || self.n_activities > super::themes::THEMES.len() {
            return Err(format!(
                "activities must be in 1..={}",
                super::themes::THEMES.len()
            ));
        }
        let (lat0, lon0, lat1, lon1) = self.bbox;
        if lat0 >= lat1 || lon0 >= lon1 {
            return Err("bbox must be (min_lat, min_lon, max_lat, max_lon)".into());
        }
        if !(0.0..=1.0).contains(&self.weekend_activity_fraction) {
            return Err(format!(
                "weekend_activity_fraction must be a probability, got {}",
                self.weekend_activity_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.uniform_time_fraction) {
            return Err(format!(
                "uniform_time_fraction must be a probability, got {}",
                self.uniform_time_fraction
            ));
        }
        if self.clusters_per_activity == 0 {
            return Err("clusters_per_activity must be positive".into());
        }
        for (name, p) in [
            ("venue_word_prob", self.venue_word_prob),
            ("background_word_prob", self.background_word_prob),
            ("polysemous_word_prob", self.polysemous_word_prob),
            ("mention_rate", self.mention_rate),
            ("mention_crossover", self.mention_crossover),
            ("sparse_record_fraction", self.sparse_record_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        if self.venue_word_prob + self.background_word_prob + self.polysemous_word_prob >= 1.0 {
            return Err("word-source probabilities must leave room for theme words".into());
        }
        if self.activities_per_community == 0 || self.activities_per_community > self.n_activities {
            return Err("activities_per_community must be in 1..=n_activities".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for p in DatasetPreset::ALL {
            p.config(1).validate().unwrap();
            p.small_config(1).validate().unwrap();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn utgeo_has_paper_mention_rate() {
        let c = DatasetPreset::Utgeo2011.config(0);
        assert!((c.mention_rate - 0.168).abs() < 1e-9);
        assert_eq!(DatasetPreset::Tweet.config(0).mention_rate, 0.0);
        assert_eq!(DatasetPreset::Foursquare.config(0).mention_rate, 0.0);
    }

    #[test]
    fn foursquare_is_venue_heavy() {
        let f = DatasetPreset::Foursquare.config(0);
        let t = DatasetPreset::Tweet.config(0);
        assert!(f.venue_word_prob > 2.0 * t.venue_word_prob);
        assert!(f.n_background_words < t.n_background_words);
    }

    #[test]
    fn validate_catches_errors() {
        let mut c = DatasetPreset::Tweet.small_config(0);
        c.n_records = 0;
        assert!(c.validate().is_err());

        let mut c = DatasetPreset::Tweet.small_config(0);
        c.bbox = (1.0, 0.0, 0.0, 1.0);
        assert!(c.validate().is_err());

        let mut c = DatasetPreset::Tweet.small_config(0);
        c.mention_rate = 1.5;
        assert!(c.validate().is_err());

        let mut c = DatasetPreset::Tweet.small_config(0);
        c.venue_word_prob = 0.5;
        c.background_word_prob = 0.5;
        assert!(c.validate().is_err());

        let mut c = DatasetPreset::Tweet.small_config(0);
        c.n_activities = 10_000;
        assert!(c.validate().is_err());

        let mut c = DatasetPreset::Tweet.small_config(0);
        c.activities_per_community = 0;
        assert!(c.validate().is_err());

        let mut c = DatasetPreset::Tweet.small_config(0);
        c.n_communities = c.n_users + 1;
        assert!(c.validate().is_err());
    }
}
