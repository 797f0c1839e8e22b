//! Shared machinery for the geographical topic models.
//!
//! LGTA couples latent topics with a modest number of *Gaussian regions*
//! (its fixed region count is the very limitation MGTM's multi-Dirichlet
//! process was designed to relax), so both models here share one core:
//! coarse Gaussian regions fitted by mean-shift at a widened bandwidth
//! ([`GaussianRegions`]), per-region topic mixtures `θ[r][k]`, and
//! per-topic word distributions `φ[k][w]` fitted by EM
//! ([`TopicModelCore`]). The two models differ in region granularity and
//! in the M-step regularizer, injected as a callback.
//!
//! Being *generative*, these models score locations through Gaussian
//! densities — coarse, city-district-level signal — while the embedding
//! methods resolve individual hotspots; that resolution gap is exactly why
//! topic models trail in the paper's Table 2.

use hotspot::{MeanShiftParams, SpatialHotspots};
use mobility::{Corpus, GeoPoint, KeywordId, RecordId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A set of isotropic Gaussian regions over the city.
#[derive(Debug, Clone)]
pub struct GaussianRegions {
    centers: Vec<GeoPoint>,
    /// Per-region isotropic std-dev in degrees.
    sigmas: Vec<f64>,
    /// Per-region prior (fraction of training records).
    priors: Vec<f64>,
}

impl GaussianRegions {
    /// Fits regions: coarse mean-shift modes become centers; σ is the RMS
    /// distance of assigned points (floored at a tenth of the bandwidth).
    pub fn fit(points: &[GeoPoint], bandwidth: f64, min_support: usize) -> Self {
        let hotspots = SpatialHotspots::detect(
            points,
            MeanShiftParams::with_bandwidth(bandwidth),
            min_support,
        );
        let n = hotspots.len();
        let mut sq_dist = vec![0.0f64; n];
        let mut counts = vec![0usize; n];
        for p in points {
            let r = hotspots.assign(*p).idx();
            sq_dist[r] += p.dist2(&hotspots.centers()[r]);
            counts[r] += 1;
        }
        let total = points.len() as f64;
        let floor = bandwidth * 0.1;
        let sigmas = (0..n)
            .map(|r| {
                if counts[r] == 0 {
                    bandwidth
                } else {
                    (sq_dist[r] / counts[r] as f64).sqrt().max(floor)
                }
            })
            .collect();
        let priors = counts
            .iter()
            .map(|&c| (c as f64 + 1.0) / (total + n as f64))
            .collect();
        Self {
            centers: hotspots.centers().to_vec(),
            sigmas,
            priors,
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True if no regions exist (never true after `fit`).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Region centers.
    pub fn centers(&self) -> &[GeoPoint] {
        &self.centers
    }

    /// The region whose center is closest to `p`.
    pub fn assign(&self, p: GeoPoint) -> usize {
        self.centers
            .iter()
            .enumerate()
            .min_by(|a, b| {
                p.dist2(a.1)
                    .partial_cmp(&p.dist2(b.1))
                    .expect("finite distances")
            })
            .expect("non-empty regions")
            .0
    }

    /// Log of the isotropic Gaussian density of `p` under region `r`.
    pub fn log_density(&self, r: usize, p: GeoPoint) -> f64 {
        let sigma = self.sigmas[r];
        let d2 = p.dist2(&self.centers[r]);
        -d2 / (2.0 * sigma * sigma) - 2.0 * sigma.ln() - (2.0 * std::f64::consts::PI).ln()
    }

    /// Log prior of region `r`.
    pub fn log_prior(&self, r: usize) -> f64 {
        self.priors[r].ln()
    }

    /// Posterior `q(r | location)` over all regions.
    pub fn posterior(&self, p: GeoPoint) -> Vec<f64> {
        let logits: Vec<f64> = (0..self.len())
            .map(|r| self.log_prior(r) + self.log_density(r, p))
            .collect();
        softmax(&logits)
    }
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut out: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let total: f64 = out.iter().sum();
    out.iter_mut().for_each(|x| *x /= total);
    out
}

/// A fitted region–topic–word model.
#[derive(Debug, Clone)]
pub struct TopicModelCore {
    /// The Gaussian regions.
    pub regions: GaussianRegions,
    /// `θ[r][k]`: topic mixture per region (rows sum to 1).
    pub theta: Vec<Vec<f64>>,
    /// `φ[k][w]`: word distribution per topic (rows sum to 1).
    pub phi: Vec<Vec<f64>>,
}

/// EM fitting options.
#[derive(Debug, Clone, Copy)]
pub struct EmOptions {
    /// Number of latent topics `K`.
    pub n_topics: usize,
    /// EM iterations.
    pub iterations: usize,
    /// Additive smoothing for both θ and φ updates.
    pub smoothing: f64,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for EmOptions {
    fn default() -> Self {
        Self {
            n_topics: 20,
            iterations: 15,
            smoothing: 0.01,
            seed: 0x709,
        }
    }
}

impl TopicModelCore {
    /// Fits by EM over the training records. `regularize(theta, centers)`
    /// runs after every M-step (identity for LGTA; spatial smoothing for
    /// MGTM).
    pub fn fit<F>(
        corpus: &Corpus,
        train_ids: &[RecordId],
        regions: GaussianRegions,
        options: EmOptions,
        mut regularize: F,
    ) -> Self
    where
        F: FnMut(&mut Vec<Vec<f64>>, &[GeoPoint]),
    {
        let n_regions = regions.len();
        let k = options.n_topics;
        let v = corpus.vocab().len().max(1);
        let mut rng = StdRng::seed_from_u64(options.seed);

        let docs: Vec<(usize, &[KeywordId])> = train_ids
            .iter()
            .map(|&rid| {
                let r = corpus.record(rid);
                (regions.assign(r.location), r.keywords.as_slice())
            })
            .collect();

        let mut theta: Vec<Vec<f64>> = (0..n_regions)
            .map(|_| random_simplex(k, &mut rng))
            .collect();
        let mut phi: Vec<Vec<f64>> = (0..k).map(|_| random_simplex(v, &mut rng)).collect();

        let mut gamma = vec![0.0f64; k];
        for _ in 0..options.iterations {
            let mut theta_acc = vec![vec![options.smoothing; k]; n_regions];
            let mut phi_acc = vec![vec![options.smoothing; v]; k];
            for &(region, words) in &docs {
                // E-step in log space.
                let mut max_log = f64::NEG_INFINITY;
                for z in 0..k {
                    let mut lg = theta[region][z].max(1e-300).ln();
                    for w in words {
                        lg += phi[z][w.idx()].max(1e-300).ln();
                    }
                    gamma[z] = lg;
                    max_log = max_log.max(lg);
                }
                let mut total = 0.0;
                for g in gamma.iter_mut() {
                    *g = (*g - max_log).exp();
                    total += *g;
                }
                // M-step accumulation.
                for z in 0..k {
                    let resp = gamma[z] / total;
                    theta_acc[region][z] += resp;
                    for w in words {
                        phi_acc[z][w.idx()] += resp;
                    }
                }
            }
            normalize_rows(&mut theta_acc);
            normalize_rows(&mut phi_acc);
            theta = theta_acc;
            phi = phi_acc;
            regularize(&mut theta, regions.centers());
        }

        Self {
            regions,
            theta,
            phi,
        }
    }

    /// `p(w | region r)` under the topic mixture.
    #[inline]
    fn word_prob(&self, r: usize, w: KeywordId) -> f64 {
        self.theta[r]
            .iter()
            .enumerate()
            .map(|(z, &t)| t * self.phi[z][w.idx()])
            .sum()
    }

    /// Per-token mean log-likelihood of `words` under region `r`.
    fn mean_word_ll(&self, r: usize, words: &[KeywordId]) -> f64 {
        if words.is_empty() {
            return -1e6;
        }
        words
            .iter()
            .map(|&w| self.word_prob(r, w).max(1e-300).ln())
            .sum::<f64>()
            / words.len() as f64
    }

    /// Scores `words` given a location: region posterior from the Gaussian
    /// densities, then expected per-token log-likelihood. Used for text
    /// prediction.
    pub fn score_text_given_location(&self, location: GeoPoint, words: &[KeywordId]) -> f64 {
        if words.is_empty() {
            return -1e6;
        }
        let q = self.regions.posterior(location);
        let mut total = 0.0;
        for &w in words {
            let pw: f64 = (0..self.regions.len())
                .map(|r| q[r] * self.word_prob(r, w))
                .sum();
            total += pw.max(1e-300).ln();
        }
        total / words.len() as f64
    }

    /// Scores a candidate location given the text:
    /// `log Σ_r π_r · N(cand; μ_r, σ_r) · exp(mean_w log p(w|r))`.
    /// The Gaussian factor gives the coarse, district-level spatial
    /// resolution characteristic of the model family.
    pub fn score_location_given_text(&self, words: &[KeywordId], candidate: GeoPoint) -> f64 {
        let logits: Vec<f64> = (0..self.regions.len())
            .map(|r| {
                self.regions.log_prior(r)
                    + self.regions.log_density(r, candidate)
                    + self.mean_word_ll(r, words)
            })
            .collect();
        log_sum_exp(&logits)
    }

    /// Number of latent topics.
    pub fn n_topics(&self) -> usize {
        self.phi.len()
    }
}

fn log_sum_exp(logits: &[f64]) -> f64 {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return max;
    }
    max + logits.iter().map(|&l| (l - max).exp()).sum::<f64>().ln()
}

fn random_simplex(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..1.5)).collect();
    let total: f64 = v.iter().sum();
    v.iter_mut().for_each(|x| *x /= total);
    v
}

fn normalize_rows(rows: &mut [Vec<f64>]) {
    for row in rows {
        let total: f64 = row.iter().sum();
        if total > 0.0 {
            row.iter_mut().for_each(|x| *x /= total);
        }
    }
}

/// Spatially smooths θ: each region's mixture is averaged with its `k`
/// nearest regions' mixtures, weighted `1−λ` self / `λ` neighbors. Used
/// by MGTM's multi-Dirichlet inter-region coupling.
pub fn smooth_theta(theta: &mut [Vec<f64>], centers: &[GeoPoint], k_neighbors: usize, lambda: f64) {
    let n = centers.len();
    if n <= 1 || lambda <= 0.0 {
        return;
    }
    let old: Vec<Vec<f64>> = theta.to_vec();
    for (i, c) in centers.iter().enumerate() {
        let mut dists: Vec<(usize, f64)> = centers
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, p)| (j, c.dist2(p)))
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let neighbors: Vec<usize> = dists.iter().take(k_neighbors).map(|&(j, _)| j).collect();
        if neighbors.is_empty() {
            continue;
        }
        for z in 0..theta[i].len() {
            let mean_nb: f64 =
                neighbors.iter().map(|&j| old[j][z]).sum::<f64>() / neighbors.len() as f64;
            theta[i][z] = (1.0 - lambda) * old[i][z] + lambda * mean_nb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::rng::normal;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    fn fitted() -> (Corpus, Vec<RecordId>, TopicModelCore) {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(40)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        let points: Vec<GeoPoint> = split
            .train
            .iter()
            .map(|&id| corpus.record(id).location)
            .collect();
        let regions = GaussianRegions::fit(&points, 0.03, 10);
        let core = TopicModelCore::fit(
            &corpus,
            &split.train,
            regions,
            EmOptions {
                n_topics: 10,
                iterations: 8,
                ..Default::default()
            },
            |_, _| {},
        );
        (corpus, split.test, core)
    }

    #[test]
    fn regions_are_coarse_and_normalized() {
        let (_, _, core) = fitted();
        let r = &core.regions;
        assert!(!r.is_empty());
        assert!(
            r.len() < 80,
            "coarse bandwidth should merge hotspots: {}",
            r.len()
        );
        let total: f64 = (0..r.len()).map(|i| r.priors[i]).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for i in 0..r.len() {
            assert!(r.sigmas[i] > 0.0);
        }
    }

    #[test]
    fn gaussian_density_decays_with_distance() {
        let (_, _, core) = fitted();
        let r = &core.regions;
        let c = r.centers()[0];
        let near = GeoPoint::new(c.lat + 0.001, c.lon);
        let far = GeoPoint::new(c.lat + 0.1, c.lon);
        assert!(r.log_density(0, c) >= r.log_density(0, near));
        assert!(r.log_density(0, near) > r.log_density(0, far));
    }

    #[test]
    fn posterior_is_a_distribution_peaked_at_home_region() {
        let (_, _, core) = fitted();
        let r = &core.regions;
        let c = r.centers()[0];
        let q = r.posterior(c);
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The home region should carry the largest posterior mass at its
        // own center, or at least be among the top (priors can shift it).
        let best = q
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(r.centers()[best].dist(&c) < 0.05, "posterior far off");
    }

    #[test]
    fn distributions_are_normalized() {
        let (_, _, core) = fitted();
        for row in core.theta.iter().chain(core.phi.iter()) {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "row sums to {total}");
            assert!(row.iter().all(|&p| p >= 0.0));
        }
        assert_eq!(core.n_topics(), 10);
    }

    #[test]
    fn likelihood_prefers_true_region_text() {
        let (corpus, test, core) = fitted();
        let mut wins = 0usize;
        let mut total = 0usize;
        for pair in test.chunks(2) {
            let [a, b] = pair else { continue };
            let ra = corpus.record(*a);
            let rb = corpus.record(*b);
            let own = core.score_text_given_location(ra.location, &ra.keywords);
            let other = core.score_text_given_location(rb.location, &ra.keywords);
            if own > other {
                wins += 1;
            }
            total += 1;
        }
        assert!(wins as f64 / total as f64 > 0.55, "wins {wins}/{total}");
    }

    #[test]
    fn location_score_prefers_own_location() {
        let (corpus, test, core) = fitted();
        let mut wins = 0usize;
        let mut total = 0usize;
        for pair in test.chunks(2) {
            let [a, b] = pair else { continue };
            let ra = corpus.record(*a);
            let rb = corpus.record(*b);
            let own = core.score_location_given_text(&ra.keywords, ra.location);
            let other = core.score_location_given_text(&ra.keywords, rb.location);
            if own > other {
                wins += 1;
            }
            total += 1;
        }
        assert!(wins as f64 / total as f64 > 0.55, "wins {wins}/{total}");
    }

    #[test]
    fn empty_text_scores_minimal() {
        let (_, _, core) = fitted();
        let p = GeoPoint::new(40.7, -73.9);
        assert!(core.score_text_given_location(p, &[]) <= -1e6);
    }

    #[test]
    fn smoothing_pulls_neighbors_together() {
        let (_, _, core) = fitted();
        let mut theta = core.theta.clone();
        if theta.len() < 3 {
            return;
        }
        smooth_theta(&mut theta, core.regions.centers(), 3, 0.5);
        for row in &theta {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        assert_ne!(theta, core.theta);
    }

    #[test]
    fn gaussian_regions_recover_planted_clusters() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut pts = Vec::new();
        for c in [(0.0, 0.0), (0.5, 0.5)] {
            for _ in 0..200 {
                pts.push(GeoPoint::new(
                    normal(&mut rng, c.0, 0.01),
                    normal(&mut rng, c.1, 0.01),
                ));
            }
        }
        let regions = GaussianRegions::fit(&pts, 0.05, 5);
        assert_eq!(regions.len(), 2);
        // Sigma estimates track the planted spread.
        for i in 0..2 {
            assert!(regions.sigmas[i] > 0.005 && regions.sigmas[i] < 0.03);
        }
    }
}
