//! Record generation from a [`World`].

use rand::seq::IndexedRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::corpus::Corpus;
use crate::rng::{normal, poisson, wrapped_normal};
use crate::types::{GeoPoint, KeywordId, Record, RecordId, Timestamp, UserId, SECONDS_PER_DAY};

use super::config::SynthConfig;
use super::world::{Activity, World};

/// Epoch base of generated timestamps (2014-08-01T00:00:00Z, the start of
/// the TWEET collection window).
pub const EPOCH_BASE: Timestamp = 1_406_851_200;

/// Per-record latent state kept alongside the corpus, for tests, tuning,
/// and the qualitative case studies.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Activity that generated each record's location and timestamp.
    pub location_activity: Vec<usize>,
    /// Activity that generated each record's keywords (differs from
    /// `location_activity` exactly for crossover mention records).
    pub text_activity: Vec<usize>,
}

impl GroundTruth {
    /// Records whose text and location activities disagree — the
    /// inter-record high-order cases.
    pub fn crossover_records(&self) -> Vec<RecordId> {
        self.location_activity
            .iter()
            .zip(&self.text_activity)
            .enumerate()
            .filter(|(_, (l, t))| l != t)
            .map(|(i, _)| RecordId::from(i))
            .collect()
    }
}

/// Generates a corpus from `config`. Deterministic per seed.
pub fn generate(config: SynthConfig) -> Result<(Corpus, GroundTruth), String> {
    let mut world = World::build(config)?;
    let cfg = world.config.clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0002);

    let mut records = Vec::with_capacity(cfg.n_records);
    let mut location_activity = Vec::with_capacity(cfg.n_records);
    let mut text_activity = Vec::with_capacity(cfg.n_records);

    for i in 0..cfg.n_records {
        let author = UserId::from(world.user_post_dist.sample(&mut rng));
        let act_idx = world.sample_activity_for_user(author, &mut rng);

        // Mentions: within the author's community, excluding self.
        let mut mentions = Vec::new();
        let mut text_act_idx = act_idx;
        if rng.random::<f64>() < cfg.mention_rate {
            let comm = &world.communities[world.users[author.idx()].community];
            if comm.members.len() > 1 {
                // Rejection-sample a member other than the author (cheap:
                // communities have ≥ 2 members here).
                let mentioned = loop {
                    let m = *comm.members.choose(&mut rng).expect("non-empty community");
                    if m != author {
                        break m;
                    }
                };
                mentions.push(mentioned);
                // Fig. 1 information flow: the record's *text* follows the
                // mentioned user's favourite activity while location/time
                // stay with the author.
                if rng.random::<f64>() < cfg.mention_crossover {
                    text_act_idx = world.users[mentioned.idx()].favorite_activity;
                }
            }
        }

        let loc_act = world.activities[act_idx].clone();
        let text_act = world.activities[text_act_idx].clone();

        // Pick one of the activity's spatial clusters ("chain branches").
        let cluster = rng.random_range(0..loc_act.clusters.len());
        let center = loc_act.clusters[cluster];
        let location = GeoPoint::new(
            normal(&mut rng, center.lat, loc_act.spatial_sd),
            normal(&mut rng, center.lon, loc_act.spatial_sd),
        );
        // Weekend-skewed activities land on Saturday/Sunday with
        // probability 0.85 (EPOCH_BASE is a Friday, so day index d is a
        // weekend day iff (d + 4) % 7 >= 5).
        let day = if loc_act.weekend_skewed && rng.random::<f64>() < 0.85 {
            loop {
                let d = rng.random_range(0..cfg.n_days) as i64;
                if mobility_is_weekend_day(d) {
                    break d;
                }
            }
        } else {
            rng.random_range(0..cfg.n_days) as i64
        };
        let second = if rng.random::<f64>() < cfg.uniform_time_fraction {
            // Off-peak posting: time carries no activity signal.
            rng.random_range(0.0..SECONDS_PER_DAY as f64)
        } else {
            wrapped_normal(
                &mut rng,
                loc_act.peak_second,
                loc_act.second_sd,
                SECONDS_PER_DAY as f64,
            )
        };
        let timestamp = EPOCH_BASE + day * SECONDS_PER_DAY + second as i64;
        // Text drawn from the text activity; venue tokens come from the
        // *location* cluster when text and location activities agree,
        // otherwise from the text activity's anchor cluster.
        let text_cluster = if text_act_idx == act_idx { cluster } else { 0 };

        let n_keywords = if rng.random::<f64>() < cfg.sparse_record_fraction {
            rng.random_range(1..=2)
        } else {
            poisson(&mut rng, cfg.keywords_per_record).max(1)
        };
        let mut keywords = Vec::with_capacity(n_keywords as usize);
        for _ in 0..n_keywords {
            let kw = sample_keyword(&world, &text_act, text_cluster, &cfg, &mut rng);
            keywords.push(kw);
        }
        for &kw in &keywords {
            world.vocab.bump(kw);
        }

        records.push(Record {
            id: RecordId::from(i),
            user: author,
            timestamp,
            location,
            keywords,
            mentions,
        });
        location_activity.push(act_idx);
        text_activity.push(text_act_idx);
    }

    let num_users = cfg.n_users as u32;
    let corpus = Corpus::new(cfg.name.clone(), records, world.vocab, num_users)
        .map_err(|e| e.to_string())?;
    Ok((
        corpus,
        GroundTruth {
            location_activity,
            text_activity,
        },
    ))
}

/// True when day index `d` (counted from [`EPOCH_BASE`]) is a weekend day.
fn mobility_is_weekend_day(d: i64) -> bool {
    crate::types::is_weekend(EPOCH_BASE + d * SECONDS_PER_DAY)
}

/// Draws one keyword for a record of `activity` at spatial `cluster`.
fn sample_keyword<R: Rng + ?Sized>(
    world: &World,
    activity: &Activity,
    cluster: usize,
    cfg: &SynthConfig,
    rng: &mut R,
) -> KeywordId {
    let u: f64 = rng.random();
    if u < cfg.venue_word_prob && !activity.venue_words[cluster].is_empty() {
        *activity.venue_words[cluster]
            .choose(rng)
            .expect("non-empty")
    } else if u < cfg.venue_word_prob + cfg.background_word_prob
        && !world.background_words.is_empty()
    {
        world.background_words[world.background_dist.sample(rng)]
    } else if u < cfg.venue_word_prob + cfg.background_word_prob + cfg.polysemous_word_prob
        && !activity.polysemous_words.is_empty()
    {
        *activity.polysemous_words.choose(rng).expect("non-empty")
    } else {
        *activity.theme_words.choose(rng).expect("themes have words")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::config::DatasetPreset;

    fn gen(preset: DatasetPreset, seed: u64) -> (Corpus, GroundTruth) {
        generate(preset.small_config(seed)).unwrap()
    }

    #[test]
    fn generates_requested_record_count() {
        let (c, gt) = gen(DatasetPreset::Utgeo2011, 1);
        assert_eq!(c.len(), 3000);
        assert_eq!(gt.location_activity.len(), 3000);
        assert_eq!(gt.text_activity.len(), 3000);
    }

    #[test]
    fn mention_rate_matches_config() {
        let (c, _) = gen(DatasetPreset::Utgeo2011, 2);
        let rate = c.stats().mention_rate();
        assert!((rate - 0.168).abs() < 0.03, "rate {rate}");
        let (c, _) = gen(DatasetPreset::Tweet, 2);
        assert_eq!(c.stats().mention_records, 0);
    }

    #[test]
    fn crossover_records_exist_only_with_mentions() {
        let (_, gt) = gen(DatasetPreset::Utgeo2011, 3);
        assert!(!gt.crossover_records().is_empty());
        let (_, gt) = gen(DatasetPreset::Tweet, 3);
        assert!(gt.crossover_records().is_empty());
    }

    #[test]
    fn crossover_records_mention_someone() {
        let (c, gt) = gen(DatasetPreset::Utgeo2011, 4);
        for rid in gt.crossover_records() {
            assert!(c.record(rid).has_mentions());
        }
    }

    #[test]
    fn every_record_has_at_least_one_keyword() {
        let (c, _) = gen(DatasetPreset::Foursquare, 5);
        for r in c.records() {
            assert!(!r.keywords.is_empty());
        }
    }

    #[test]
    fn locations_cluster_near_activity_centers() {
        let cfg = DatasetPreset::Tweet.small_config(6);
        let world = World::build(cfg.clone()).unwrap();
        let (c, gt) = generate(cfg).unwrap();
        let mut within = 0usize;
        for (r, &act) in c.records().iter().zip(&gt.location_activity) {
            // 4 sigma from the *closest* cluster covers all draws.
            let a = &world.activities[act];
            let d = a
                .clusters
                .iter()
                .map(|ctr| r.location.dist(ctr))
                .fold(f64::INFINITY, f64::min);
            if d < 4.0 * a.spatial_sd {
                within += 1;
            }
        }
        let frac = within as f64 / c.len() as f64;
        assert!(frac > 0.98, "frac {frac}");
    }

    #[test]
    fn timestamps_cluster_near_activity_peak() {
        let mut cfg = DatasetPreset::Foursquare.small_config(7);
        // Isolate the peaked component for this check.
        cfg.uniform_time_fraction = 0.0;
        let world = World::build(cfg.clone()).unwrap();
        let (c, gt) = generate(cfg).unwrap();
        let period = SECONDS_PER_DAY as f64;
        let mut within = 0usize;
        for (r, &act) in c.records().iter().zip(&gt.location_activity) {
            let a = &world.activities[act];
            let diff = (r.second_of_day() - a.peak_second).abs();
            let circ = diff.min(period - diff);
            if circ < 3.5 * a.second_sd {
                within += 1;
            }
        }
        let frac = within as f64 / c.len() as f64;
        assert!(frac > 0.98, "frac {frac}");
    }

    #[test]
    fn uniform_time_fraction_flattens_time_of_day() {
        let mut cfg = DatasetPreset::Foursquare.small_config(7);
        cfg.uniform_time_fraction = 1.0;
        let (c, _) = generate(cfg).unwrap();
        // With fully uniform times, each 6-hour quadrant holds ~25%.
        let mut quadrants = [0usize; 4];
        for r in c.records() {
            quadrants[(r.second_of_day() / 21_600.0) as usize % 4] += 1;
        }
        for q in quadrants {
            let f = q as f64 / c.len() as f64;
            assert!((f - 0.25).abs() < 0.05, "quadrant fraction {f}");
        }
    }

    #[test]
    fn weekend_skew_concentrates_records_on_weekends() {
        let mut cfg = DatasetPreset::Tweet.small_config(14);
        cfg.weekend_activity_fraction = 0.5;
        let world = World::build(cfg.clone()).unwrap();
        let (c, gt) = generate(cfg).unwrap();
        let mut weekend_hits = [0usize; 2]; // [skewed, unskewed]
        let mut totals = [0usize; 2];
        for (r, &act) in c.records().iter().zip(&gt.location_activity) {
            let idx = usize::from(!world.activities[act].weekend_skewed);
            totals[idx] += 1;
            if crate::types::is_weekend(r.timestamp) {
                weekend_hits[idx] += 1;
            }
        }
        let skewed_rate = weekend_hits[0] as f64 / totals[0].max(1) as f64;
        let plain_rate = weekend_hits[1] as f64 / totals[1].max(1) as f64;
        assert!(skewed_rate > 0.7, "skewed weekend rate {skewed_rate}");
        assert!(plain_rate < 0.45, "plain weekend rate {plain_rate}");
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = gen(DatasetPreset::Utgeo2011, 8);
        let (b, _) = gen(DatasetPreset::Utgeo2011, 8);
        assert_eq!(a.records()[100], b.records()[100]);
        let (c, _) = gen(DatasetPreset::Utgeo2011, 9);
        assert_ne!(a.records()[100], c.records()[100]);
    }

    #[test]
    fn vocab_counts_reflect_generated_tokens() {
        let (c, _) = gen(DatasetPreset::Tweet, 10);
        // Counting manually must match the vocabulary's tracked counts
        // minus the single interning bump each word got at world build.
        let mut manual = vec![0u64; c.vocab().len()];
        for r in c.records() {
            for &k in &r.keywords {
                manual[k.idx()] += 1;
            }
        }
        let mut checked = 0;
        for (id, _, count) in c.vocab().iter() {
            assert_eq!(count, manual[id.idx()] + 1, "keyword {id}");
            checked += 1;
        }
        assert_eq!(checked, c.vocab().len());
    }

    #[test]
    fn full_preset_configs_generate() {
        // Smoke-test the full-size presets cheaply by shrinking records
        // only (keeping user/community structure at production scale).
        for preset in DatasetPreset::ALL {
            let mut cfg = preset.config(11);
            cfg.n_records = 500;
            let (c, _) = generate(cfg).unwrap();
            assert_eq!(c.len(), 500);
        }
    }
}
