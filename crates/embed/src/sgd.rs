//! The per-edge negative-sampling SGD update (Eqs. 7–14).

use rand::Rng;

use crate::sigmoid::SigmoidTable;
use crate::store::EmbeddingStore;

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SgdParams {
    /// Learning rate `η` (§5.2.3 treats sampled edge weights as equal and
    /// folds them into the rate).
    pub learning_rate: f32,
    /// Number of negative samples `K` (Eq. 7).
    pub negatives: usize,
    /// L2 ceiling on the per-step update applied to any single row
    /// (`0.0` disables clipping). Healthy training sits orders of
    /// magnitude below a sane ceiling, so clipping only engages when a
    /// run is diverging — it bounds the damage a bad learning rate or a
    /// poisoned record can do before the divergence detector restores a
    /// checkpoint.
    pub grad_clip: f32,
}

impl Default for SgdParams {
    fn default() -> Self {
        // The paper's settings (§6.1.3): η = 0.02, K = 1. Clipping is off
        // by default so baselines reproduce the paper's updates verbatim;
        // the ACTOR pipeline opts in through `ActorConfig::grad_clip`.
        Self {
            learning_rate: 0.02,
            negatives: 1,
            grad_clip: 0.0,
        }
    }
}

/// The learning rate at `progress` ∈ [0, 1] through a trainer's sample
/// budget: `lr0` annealed linearly to 10% of itself (LINE's schedule),
/// which every SGD trainer in the workspace follows.
#[inline]
pub fn annealed(lr0: f32, progress: f32) -> f32 {
    lr0 * (1.0 - 0.9 * progress)
}

/// Scales the logit-gradient `g` down so the update `g · x` applied to a
/// row keeps an L2 norm at most `clip` (`x_norm` = ‖x‖).
#[inline]
fn clip_logit_grad(g: f32, x_norm: f32, clip: f32) -> f32 {
    let mag = g.abs() * x_norm;
    if mag > clip {
        g * (clip / mag)
    } else {
        g
    }
}

/// Reusable update state (scratch buffers + σ table), one per worker
/// thread.
#[derive(Debug, Clone)]
pub struct NegativeSamplingUpdate {
    sigmoid: SigmoidTable,
    grad: Vec<f32>,
    /// Bag-sum scratch for [`NegativeSamplingUpdate::step_drawn`]; a
    /// field rather than a local so the hot loop allocates nothing per
    /// call.
    bag_sum: Vec<f32>,
    /// The negatives [`NegativeSamplingUpdate::step_bag`] draws before
    /// calling the kernel.
    negatives: Vec<usize>,
    params: SgdParams,
    /// Steps taken since the last flush to the `embed.sgd.steps` counter;
    /// batched so the hot loop touches no shared state.
    steps_pending: u64,
}

/// Flush cadence for the step counter: rare enough to stay off the SGD
/// profile, frequent enough for live throughput reporting.
const STEP_FLUSH: u64 = 4096;

thread_local! {
    /// Per-thread handle so flushing skips the registry lock.
    static SGD_STEPS: obs::Counter = obs::counter("embed.sgd.steps");
}

impl NegativeSamplingUpdate {
    /// Creates an updater for vectors of width `dim`.
    pub fn new(dim: usize, params: SgdParams) -> Self {
        Self {
            sigmoid: SigmoidTable::new(),
            grad: vec![0.0; dim],
            bag_sum: vec![0.0; dim],
            negatives: Vec::with_capacity(params.negatives),
            params,
            steps_pending: 0,
        }
    }

    #[inline]
    fn note_step(&mut self) {
        self.steps_pending += 1;
        if self.steps_pending == STEP_FLUSH {
            self.flush_steps();
        }
    }

    fn flush_steps(&mut self) {
        if self.steps_pending > 0 {
            SGD_STEPS.with(|c| c.add(self.steps_pending));
            self.steps_pending = 0;
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> SgdParams {
        self.params
    }

    /// Overrides the learning rate (used by trainers that anneal η over
    /// the sample budget with [`annealed`]).
    pub fn set_learning_rate(&mut self, lr: f32) {
        debug_assert!(lr > 0.0);
        self.params.learning_rate = lr;
    }

    /// Applies one stochastic step for the observed pair
    /// (`center`, `context`), drawing negatives from `sample_negative`:
    /// the one-row case of [`NegativeSamplingUpdate::step_bag`].
    pub fn step<R, F>(
        &mut self,
        store: &EmbeddingStore,
        center: usize,
        context: usize,
        rng: &mut R,
        sample_negative: F,
    ) -> f64
    where
        R: Rng + ?Sized,
        F: FnMut(&mut R) -> usize,
    {
        self.step_bag(
            store,
            std::slice::from_ref(&center),
            context,
            rng,
            sample_negative,
        )
    }

    /// Applies one stochastic step for the observed pair (`bag`,
    /// `context`): draws `K` negatives from `sample_negative` into the
    /// updater's scratch buffer, then runs [`NegativeSamplingUpdate::step_drawn`].
    /// An empty bag draws nothing and returns `0.0`.
    pub fn step_bag<R, F>(
        &mut self,
        store: &EmbeddingStore,
        bag: &[usize],
        context: usize,
        rng: &mut R,
        mut sample_negative: F,
    ) -> f64
    where
        R: Rng + ?Sized,
        F: FnMut(&mut R) -> usize,
    {
        if bag.is_empty() {
            return 0.0;
        }
        // Taken out of `self` for the call; `take` leaves an empty Vec,
        // which does not allocate.
        let mut negatives = std::mem::take(&mut self.negatives);
        negatives.clear();
        negatives.extend((0..self.params.negatives).map(|_| sample_negative(rng)));
        let loss = self.step_drawn(store, bag, context, &negatives);
        self.negatives = negatives;
        loss
    }

    /// The negative-sampling kernel: one stochastic step for the observed
    /// pair (`bag`, `context`) against the pre-drawn `negatives`. The
    /// center side is the sum of the bag's center rows: a word bag
    /// represents a record's text this way (footnote 4), and a one-row bag
    /// is a plain pair update.
    ///
    /// Implements Eq. 7 with gradients Eqs. 8–10: the center sum
    /// accumulates `Σ g·x'` over the positive and all negatives (Eq. 8 /
    /// Eq. 12), and that gradient is added to every member of the bag,
    /// while each context row moves by `g·x` (Eqs. 9–10 / 13–14). A
    /// negative equal to `context` is skipped: drawing the observed
    /// context teaches nothing. Returns the (approximate) loss
    /// contribution for monitoring; an empty bag is a no-op with loss
    /// `0.0`.
    ///
    /// Races with other threads are accepted per the Hogwild contract of
    /// [`crate::store::Matrix`].
    pub fn step_drawn(
        &mut self,
        store: &EmbeddingStore,
        bag: &[usize],
        context: usize,
        negatives: &[usize],
    ) -> f64 {
        if bag.is_empty() {
            return 0.0;
        }
        self.note_step();
        let dim = store.dim();
        let lr = self.params.learning_rate;
        let clip = self.params.grad_clip;
        self.grad.iter_mut().for_each(|g| *g = 0.0);
        let mut loss = 0.0f64;

        // Materialize the bag sum in the reusable scratch buffer (reads
        // are racy-but-benign). The rows are only written after the pair
        // loop, from the accumulated gradient.
        debug_assert_eq!(self.bag_sum.len(), dim);
        self.bag_sum.iter_mut().for_each(|x| *x = 0.0);
        for &b in bag {
            crate::math::axpy(1.0, store.centers.row(b), &mut self.bag_sum);
        }
        let sum_norm = if clip > 0.0 {
            crate::math::norm(&self.bag_sum)
        } else {
            0.0
        };

        // Positive pair: label 1.
        {
            // SAFETY: Hogwild contract — racy f32 rows, see store.rs.
            let x_ctx = unsafe { store.contexts.row_mut_racy(context) };
            let sig = self.sigmoid.lookup(crate::math::dot(&self.bag_sum, x_ctx));
            let mut g = (1.0 - sig.value) * lr; // −∂J/∂score · η
            if clip > 0.0 {
                g = clip_logit_grad(g, sum_norm, clip);
            }
            loss -= sig.ln_value;
            crate::math::pair_update(g, &self.bag_sum, x_ctx, &mut self.grad);
        }
        // Negative pairs: label 0.
        for &neg in negatives {
            if neg == context {
                continue;
            }
            // SAFETY: Hogwild contract, as for the positive context.
            let x_neg = unsafe { store.contexts.row_mut_racy(neg) };
            let sig = self.sigmoid.lookup(crate::math::dot(&self.bag_sum, x_neg));
            let mut g = -sig.value * lr;
            if clip > 0.0 {
                g = clip_logit_grad(g, sum_norm, clip);
            }
            loss -= sig.ln_complement;
            crate::math::pair_update(g, &self.bag_sum, x_neg, &mut self.grad);
        }

        // Clip the accumulated center gradient to `grad_clip` in L2.
        if clip > 0.0 {
            let norm = crate::math::norm(&self.grad);
            if norm > clip {
                let scale = clip / norm;
                self.grad.iter_mut().for_each(|g| *g *= scale);
            }
        }
        for &b in bag {
            // SAFETY: Hogwild contract, as for the positive context.
            let row = unsafe { store.centers.row_mut_racy(b) };
            crate::math::axpy(1.0, &self.grad, row);
        }
        loss
    }
}

impl Drop for NegativeSamplingUpdate {
    fn drop(&mut self) {
        self.flush_steps();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::dot;
    use rand::{rngs::StdRng, SeedableRng};

    fn store(dim: usize) -> EmbeddingStore {
        let mut rng = StdRng::seed_from_u64(7);
        EmbeddingStore::init(6, dim, &mut rng)
    }

    #[test]
    fn positive_pair_score_increases() {
        let s = store(8);
        let mut upd = NegativeSamplingUpdate::new(
            8,
            SgdParams {
                learning_rate: 0.1,
                negatives: 2,
                grad_clip: 0.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        let before = dot(s.centers.row(0), s.contexts.row(1));
        for _ in 0..50 {
            upd.step(&s, 0, 1, &mut rng, |r| r.random_range(2..6));
        }
        let after = dot(s.centers.row(0), s.contexts.row(1));
        assert!(after > before, "{before} -> {after}");
        assert!(after > 0.5, "score should grow decisively, got {after}");
    }

    #[test]
    fn negative_scores_decrease() {
        let s = store(8);
        let mut upd = NegativeSamplingUpdate::new(
            8,
            SgdParams {
                learning_rate: 0.1,
                negatives: 1,
                grad_clip: 0.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            upd.step(&s, 0, 1, &mut rng, |_| 2usize);
        }
        let pos = dot(s.centers.row(0), s.contexts.row(1));
        let neg = dot(s.centers.row(0), s.contexts.row(2));
        assert!(pos > 0.0 && neg < 0.0, "pos {pos} neg {neg}");
    }

    #[test]
    fn loss_decreases_over_training() {
        let s = store(8);
        let mut upd = NegativeSamplingUpdate::new(8, SgdParams::default());
        let mut rng = StdRng::seed_from_u64(3);
        let first: f64 = (0..20)
            .map(|_| upd.step(&s, 0, 1, &mut rng, |r| r.random_range(2..6)))
            .sum();
        for _ in 0..500 {
            upd.step(&s, 0, 1, &mut rng, |r| r.random_range(2..6));
        }
        let last: f64 = (0..20)
            .map(|_| upd.step(&s, 0, 1, &mut rng, |r| r.random_range(2..6)))
            .sum();
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn negative_equal_to_context_is_skipped() {
        let s = store(4);
        let mut upd = NegativeSamplingUpdate::new(
            4,
            SgdParams {
                learning_rate: 0.1,
                negatives: 1,
                grad_clip: 0.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(4);
        // Sampling the context itself as negative must not cancel learning.
        for _ in 0..100 {
            upd.step(&s, 0, 1, &mut rng, |_| 1usize);
        }
        assert!(dot(s.centers.row(0), s.contexts.row(1)) > 0.5);
    }

    #[test]
    fn step_bag_equals_the_kernel_on_the_same_predrawn_negatives() {
        // Negatives range over 3..6 and the context is 3, so some draws
        // equal the context: the kernel skips them, but they still consume
        // the RNG.
        let context = 3;
        for k in [1, 3] {
            for bag in [&[0usize][..], &[0, 1, 2]] {
                let params = SgdParams {
                    learning_rate: 0.1,
                    negatives: k,
                    grad_clip: 0.0,
                };
                let (a, b) = (store(8), store(8));
                let mut upd_a = NegativeSamplingUpdate::new(8, params);
                let mut upd_b = NegativeSamplingUpdate::new(8, params);
                let mut rng_a = StdRng::seed_from_u64(13);
                let mut rng_b = StdRng::seed_from_u64(13);
                let mut skipped = 0;
                for _ in 0..60 {
                    let la = upd_a.step_bag(&a, bag, context, &mut rng_a, |r| r.random_range(3..6));
                    let negatives: Vec<usize> = (0..k).map(|_| rng_b.random_range(3..6)).collect();
                    skipped += negatives.iter().filter(|&&n| n == context).count();
                    let lb = upd_b.step_drawn(&b, bag, context, &negatives);
                    assert_eq!(la.to_bits(), lb.to_bits(), "K={k} bag={bag:?}");
                }
                assert!(skipped > 0, "K={k}: no negative hit the context");
                assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
                for i in 0..6 {
                    assert_eq!(a.centers.row(i), b.centers.row(i), "K={k} bag={bag:?}");
                    assert_eq!(a.contexts.row(i), b.contexts.row(i), "K={k} bag={bag:?}");
                }
            }
        }
    }

    #[test]
    fn bag_update_moves_all_members() {
        let s = store(8);
        let mut upd = NegativeSamplingUpdate::new(
            8,
            SgdParams {
                learning_rate: 0.1,
                negatives: 1,
                grad_clip: 0.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let before: Vec<Vec<f32>> = (0..3).map(|i| s.centers.row(i).to_vec()).collect();
        for _ in 0..50 {
            upd.step_bag(&s, &[0, 1, 2], 3, &mut rng, |r| r.random_range(4..6));
        }
        for (i, prev) in before.iter().enumerate() {
            assert_ne!(s.centers.row(i), prev.as_slice(), "member {i} unmoved");
        }
        // The bag sum aligns with the context.
        let mut sum = vec![0.0f32; 8];
        for i in 0..3 {
            crate::math::axpy(1.0, s.centers.row(i), &mut sum);
        }
        assert!(dot(&sum, s.contexts.row(3)) > 0.5);
    }

    #[test]
    fn empty_bag_is_noop() {
        let s = store(4);
        let mut upd = NegativeSamplingUpdate::new(4, SgdParams::default());
        let mut rng = StdRng::seed_from_u64(6);
        let loss = upd.step_bag(&s, &[], 1, &mut rng, |_| 0usize);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn grad_clip_bounds_per_step_row_movement() {
        // An absurd learning rate makes every raw update enormous; with
        // clipping each row may move at most `clip` per step.
        let clip = 0.5f32;
        let s = store(8);
        let mut upd = NegativeSamplingUpdate::new(
            8,
            SgdParams {
                learning_rate: 1e6,
                negatives: 2,
                grad_clip: clip,
            },
        );
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..200 {
            let before: Vec<Vec<f32>> = (0..6)
                .map(|i| s.centers.row(i).to_vec())
                .chain((0..6).map(|i| s.contexts.row(i).to_vec()))
                .collect();
            upd.step(&s, step % 4, 4 + (step % 2), &mut rng, |r| {
                r.random_range(0..6)
            });
            let after: Vec<Vec<f32>> = (0..6)
                .map(|i| s.centers.row(i).to_vec())
                .chain((0..6).map(|i| s.contexts.row(i).to_vec()))
                .collect();
            for (b, a) in before.iter().zip(&after) {
                let moved: f32 = b
                    .iter()
                    .zip(a)
                    .map(|(x, y)| (y - x) * (y - x))
                    .sum::<f32>()
                    .sqrt();
                // Context rows can take one clipped update per pair in the
                // step (positive + K negatives can hit the same row), so
                // allow (1 + K) × clip with float slack.
                assert!(
                    moved <= 3.0 * clip * 1.001,
                    "step {step}: row moved {moved}, clip {clip}"
                );
                assert!(a.iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn grad_clip_keeps_bag_updates_finite_under_huge_lr() {
        let s = store(8);
        let mut upd = NegativeSamplingUpdate::new(
            8,
            SgdParams {
                learning_rate: 1e5,
                negatives: 3,
                grad_clip: 1.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(10);
        for step in 0..500 {
            upd.step_bag(&s, &[0, 1, 2], 3 + (step % 3), &mut rng, |r| {
                r.random_range(0..6)
            });
        }
        for i in 0..6 {
            assert!(s.centers.row(i).iter().all(|x| x.is_finite()), "row {i}");
            assert!(s.contexts.row(i).iter().all(|x| x.is_finite()), "row {i}");
        }
    }

    #[test]
    fn zero_clip_matches_unclipped_updates_exactly() {
        // grad_clip = 0.0 must be byte-for-byte the historical behavior;
        // compare against a copy trained with a clip too large to engage.
        let a = store(8);
        let b = store(8);
        let mut upd_a = NegativeSamplingUpdate::new(
            8,
            SgdParams {
                learning_rate: 0.05,
                negatives: 2,
                grad_clip: 0.0,
            },
        );
        let mut upd_b = NegativeSamplingUpdate::new(
            8,
            SgdParams {
                learning_rate: 0.05,
                negatives: 2,
                grad_clip: 1e30,
            },
        );
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for step in 0..300 {
            let la = upd_a.step(&a, step % 4, 4 + (step % 2), &mut rng_a, |r| {
                r.random_range(0..6)
            });
            let lb = upd_b.step(&b, step % 4, 4 + (step % 2), &mut rng_b, |r| {
                r.random_range(0..6)
            });
            assert_eq!(la, lb);
        }
        for i in 0..6 {
            assert_eq!(a.centers.row(i), b.centers.row(i));
            assert_eq!(a.contexts.row(i), b.contexts.row(i));
        }
    }

    #[test]
    fn a_nan_row_reaches_the_loss() {
        // A NaN score must not read as a finite loss: the divergence
        // detector only sees the loss, never the rows.
        for clip in [0.0, 5.0] {
            let params = SgdParams {
                learning_rate: 0.05,
                negatives: 1,
                grad_clip: clip,
            };
            let mut s = store(8);
            s.centers.row_mut(0).fill(f32::NAN);
            let mut upd = NegativeSamplingUpdate::new(8, params);
            let mut rng = StdRng::seed_from_u64(12);
            let loss = upd.step(&s, 0, 1, &mut rng, |_| 2usize);
            assert!(!loss.is_finite(), "clip {clip}: step loss {loss}");
            let loss = upd.step_bag(&s, &[0, 3], 4, &mut rng, |_| 5usize);
            assert!(!loss.is_finite(), "clip {clip}: bag loss {loss}");
        }
    }

    #[test]
    fn vectors_stay_finite() {
        let s = store(8);
        let mut upd = NegativeSamplingUpdate::new(
            8,
            SgdParams {
                learning_rate: 0.5, // aggressive
                negatives: 3,
                grad_clip: 0.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(8);
        for step in 0..2000 {
            let c = step % 4;
            let ctx = 4 + (step % 2);
            upd.step(&s, c, ctx, &mut rng, |r| r.random_range(0..6));
        }
        for i in 0..6 {
            assert!(s.centers.row(i).iter().all(|x| x.is_finite()));
            assert!(s.contexts.row(i).iter().all(|x| x.is_finite()));
        }
    }
}
