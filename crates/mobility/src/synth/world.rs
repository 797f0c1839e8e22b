//! The latent world model the generator samples from.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::rng::{zipf_weights, Categorical};
use crate::types::{GeoPoint, KeywordId, UserId};
use crate::vocab::Vocabulary;

use super::config::SynthConfig;
use super::themes::{POLYSEMOUS, THEMES};

/// One latent activity: one or more spatial clusters ("chain venues"), a
/// temporal peak, and a keyword distribution, instantiated from a
/// [`super::Theme`].
///
/// The multi-cluster structure is what separates memorizing models from
/// smoothing models downstream: venue tokens are *cluster-specific*, so a
/// graph embedding can tie each venue word to its exact spatial hotspot
/// through `LW` edges, while a K-topic model must describe all clusters of
/// an activity with shared topics and loses the venue→place detail (the
/// realistic failure mode that puts LGTA/MGTM at the bottom of Table 2).
#[derive(Debug, Clone)]
pub struct Activity {
    /// Index within the world.
    pub id: usize,
    /// The source theme's name.
    pub theme_name: &'static str,
    /// Spatial cluster centers; `clusters[0]` is the theme anchor.
    pub clusters: Vec<GeoPoint>,
    /// Spatial std-dev in degrees (per cluster).
    pub spatial_sd: f64,
    /// Time-of-day peak in seconds.
    pub peak_second: f64,
    /// Time-of-day std-dev in seconds.
    pub second_sd: f64,
    /// True when this activity concentrates on Saturday/Sunday.
    pub weekend_skewed: bool,
    /// Theme keywords (shared by all clusters).
    pub theme_words: Vec<KeywordId>,
    /// Venue tokens per cluster (`venue_words[c]` names cluster `c`'s
    /// venues only).
    pub venue_words: Vec<Vec<KeywordId>>,
    /// Polysemous words this activity shares with others.
    pub polysemous_words: Vec<KeywordId>,
}

impl Activity {
    /// The activity's primary (anchor) cluster center.
    pub fn center(&self) -> GeoPoint {
        self.clusters[0]
    }
}

/// A user community: a clique-ish social group with a sparse activity
/// preference.
#[derive(Debug, Clone)]
pub struct Community {
    /// Preferred activity indices (length `activities_per_community`).
    pub activities: Vec<usize>,
    /// Member users.
    pub members: Vec<UserId>,
    /// Weights over `activities` (first listed is most preferred).
    pub activity_dist: Categorical,
}

/// Per-user latent state.
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// The user's community index.
    pub community: usize,
    /// The user's favourite activity (one of the community's).
    pub favorite_activity: usize,
}

/// The fully instantiated world: vocabulary, activities, communities,
/// users, and the samplers the generator draws from.
pub struct World {
    /// The generator configuration this world was built from.
    pub config: SynthConfig,
    /// The interned vocabulary (theme + polysemous + venue + background).
    pub vocab: Vocabulary,
    /// Latent activities.
    pub activities: Vec<Activity>,
    /// User communities.
    pub communities: Vec<Community>,
    /// Per-user profiles (index = user id).
    pub users: Vec<UserProfile>,
    /// Background filler words with Zipf-distributed popularity.
    pub background_words: Vec<KeywordId>,
    /// Sampler over `background_words`.
    pub background_dist: Categorical,
    /// Sampler of record authors (Zipf posting frequency).
    pub user_post_dist: Categorical,
}

impl World {
    /// Instantiates the world from `config` (deterministic per seed).
    pub fn build(config: SynthConfig) -> Result<Self, String> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED_0001);
        let mut vocab = Vocabulary::new();
        let (lat0, lon0, lat1, lon1) = config.bbox;
        let lat_span = lat1 - lat0;
        let lon_span = lon1 - lon0;

        // Activities from the first n_activities themes.
        let mut activities = Vec::with_capacity(config.n_activities);
        for (id, theme) in THEMES.iter().take(config.n_activities).enumerate() {
            let theme_words: Vec<KeywordId> = theme
                .words
                .iter()
                .map(|w| vocab.intern(w).expect("theme words are not stop words"))
                .collect();
            // Cluster 0 sits at the theme anchor; the rest are placed
            // uniformly inside the city box ("chain branches").
            let anchor = GeoPoint::new(
                lat0 + theme.anchor.1 * lat_span,
                lon0 + theme.anchor.0 * lon_span,
            );
            let mut clusters = vec![anchor];
            for _ in 1..config.clusters_per_activity.max(1) {
                clusters.push(GeoPoint::new(
                    lat0 + rng.random_range(0.08..0.92) * lat_span,
                    lon0 + rng.random_range(0.08..0.92) * lon_span,
                ));
            }
            let venue_words: Vec<Vec<KeywordId>> = (0..clusters.len())
                .map(|c| {
                    (0..config.venues_per_activity)
                        .map(|i| {
                            vocab
                                .intern(&format!("{}_venue_{c}_{i:02}", theme.name))
                                .expect("venue tokens are not stop words")
                        })
                        .collect()
                })
                .collect();
            // The first ⌈fraction·n⌉ activities are weekend-skewed; the
            // fixed assignment keeps generation deterministic per seed.
            let weekend_skewed =
                (id as f64) < config.weekend_activity_fraction * config.n_activities as f64;
            activities.push(Activity {
                id,
                theme_name: theme.name,
                clusters,
                spatial_sd: config.spatial_sd_deg,
                peak_second: theme.peak_hour * 3600.0,
                second_sd: theme.hour_sd * 3600.0 * config.hour_sd_scale,
                weekend_skewed,
                theme_words,
                venue_words,
                polysemous_words: Vec::new(),
            });
        }

        // Attach polysemous words to every activity whose theme they list.
        for (word, theme_names) in POLYSEMOUS {
            let id = vocab
                .intern(word)
                .expect("polysemous words are content words");
            for act in activities.iter_mut() {
                if theme_names.contains(&act.theme_name) {
                    act.polysemous_words.push(id);
                }
            }
        }

        // Background chatter vocabulary with Zipf popularity.
        let background_words: Vec<KeywordId> = (0..config.n_background_words)
            .map(|i| {
                vocab
                    .intern(&format!("chatter_{i:04}"))
                    .expect("chatter tokens are not stop words")
            })
            .collect();
        let background_dist =
            Categorical::new(&zipf_weights(config.n_background_words.max(1), 1.1))
                .expect("zipf weights are positive");

        // Communities: round-robin user assignment after a shuffle, so
        // community sizes differ by at most one.
        let mut user_ids: Vec<UserId> = (0..config.n_users).map(UserId::from).collect();
        user_ids.shuffle(&mut rng);
        let mut communities: Vec<Community> = (0..config.n_communities)
            .map(|_| {
                // Sample this community's preferred activities without
                // replacement.
                let mut pool: Vec<usize> = (0..config.n_activities).collect();
                pool.shuffle(&mut rng);
                let acts: Vec<usize> = pool
                    .into_iter()
                    .take(config.activities_per_community)
                    .collect();
                // Geometric-ish preference: first activity dominates.
                let weights: Vec<f64> = (0..acts.len()).map(|i| 0.55f64.powi(i as i32)).collect();
                Community {
                    activities: acts,
                    members: Vec::new(),
                    activity_dist: Categorical::new(&weights).expect("positive weights"),
                }
            })
            .collect();
        let mut users = vec![
            UserProfile {
                community: 0,
                favorite_activity: 0,
            };
            config.n_users
        ];
        for (i, uid) in user_ids.iter().enumerate() {
            let cidx = i % config.n_communities;
            communities[cidx].members.push(*uid);
            let comm = &communities[cidx];
            // A user's favourite is usually the community's top activity.
            let fav = comm.activities[comm.activity_dist.sample(&mut rng)];
            users[uid.idx()] = UserProfile {
                community: cidx,
                favorite_activity: fav,
            };
        }

        // Posting frequency: heavy-tailed, randomly assigned to users.
        let mut post_weights = zipf_weights(config.n_users, config.user_activity_zipf);
        post_weights.shuffle(&mut rng);
        let user_post_dist = Categorical::new(&post_weights).expect("positive weights");

        Ok(Self {
            config,
            vocab,
            activities,
            communities,
            users,
            background_words,
            background_dist,
            user_post_dist,
        })
    }

    /// Samples an activity for `user`: mostly the favourite, otherwise one
    /// of the community's preferred activities.
    pub fn sample_activity_for_user<R: Rng + ?Sized>(&self, user: UserId, rng: &mut R) -> usize {
        let profile = &self.users[user.idx()];
        if rng.random::<f64>() < 0.75 {
            profile.favorite_activity
        } else {
            let comm = &self.communities[profile.community];
            comm.activities[comm.activity_dist.sample(rng)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::config::DatasetPreset;

    fn world() -> World {
        World::build(DatasetPreset::Utgeo2011.small_config(7)).unwrap()
    }

    #[test]
    fn build_creates_requested_scales() {
        let w = world();
        assert_eq!(w.activities.len(), w.config.n_activities);
        assert_eq!(w.communities.len(), w.config.n_communities);
        assert_eq!(w.users.len(), w.config.n_users);
        assert_eq!(w.background_words.len(), w.config.n_background_words);
    }

    #[test]
    fn vocabulary_contains_all_word_classes() {
        let w = world();
        assert!(w.vocab.get("beach").is_some());
        assert!(w.vocab.get("beach_venue_0_00").is_some());
        assert!(w.vocab.get("chatter_0000").is_some());
        assert!(w.vocab.get("rock").is_some());
        // Stop words never enter the vocabulary.
        assert!(w.vocab.get("the").is_none());
    }

    #[test]
    fn polysemous_words_attach_to_multiple_activities() {
        let w = world();
        let rock = w.vocab.get("rock").unwrap();
        let n_with_rock = w
            .activities
            .iter()
            .filter(|a| a.polysemous_words.contains(&rock))
            .count();
        assert!(n_with_rock >= 2, "rock should span ≥2 activities");
    }

    #[test]
    fn activity_centers_are_inside_bbox() {
        let w = world();
        let (lat0, lon0, lat1, lon1) = w.config.bbox;
        for a in &w.activities {
            for c in &a.clusters {
                assert!((lat0..=lat1).contains(&c.lat), "{}", a.theme_name);
                assert!((lon0..=lon1).contains(&c.lon), "{}", a.theme_name);
            }
            assert_eq!(a.center(), a.clusters[0]);
            assert_eq!(a.clusters.len(), w.config.clusters_per_activity);
            assert_eq!(a.venue_words.len(), a.clusters.len());
        }
    }

    #[test]
    fn communities_partition_users() {
        let w = world();
        let total: usize = w.communities.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, w.config.n_users);
        // Balanced within one member.
        let sizes: Vec<usize> = w.communities.iter().map(|c| c.members.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1);
        // Each user's profile points back at a community that owns it.
        for (uid, prof) in w.users.iter().enumerate() {
            assert!(w.communities[prof.community]
                .members
                .contains(&UserId::from(uid)));
        }
    }

    #[test]
    fn favorite_activity_is_a_community_activity() {
        let w = world();
        for prof in &w.users {
            assert!(w.communities[prof.community]
                .activities
                .contains(&prof.favorite_activity));
        }
    }

    #[test]
    fn user_activity_sampling_prefers_favorite() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(3);
        let user = UserId(0);
        let fav = w.users[0].favorite_activity;
        let n = 2000;
        let hits = (0..n)
            .filter(|_| w.sample_activity_for_user(user, &mut rng) == fav)
            .count();
        assert!(hits as f64 / n as f64 > 0.7, "hits {hits}");
    }

    #[test]
    fn build_is_deterministic() {
        let a = World::build(DatasetPreset::Tweet.small_config(9)).unwrap();
        let b = World::build(DatasetPreset::Tweet.small_config(9)).unwrap();
        assert_eq!(a.users[5].favorite_activity, b.users[5].favorite_activity);
        assert_eq!(a.communities[3].activities, b.communities[3].activities);
    }
}
