//! Pre-drawn SGD steps: a batch of draws recorded in draw order, then
//! applied through the one kernel.
//!
//! Drawing a step (its bag, context and `K` negatives) reads only the RNG
//! and frozen sampling tables, never an embedding. So a trainer can draw
//! a batch on one thread while another thread applies the previous one:
//! as long as the steps are applied in the order they were drawn, the
//! rows and the loss are bit-identical to drawing and stepping inline.

use rand::Rng;

use crate::sgd::NegativeSamplingUpdate;
use crate::store::EmbeddingStore;

/// How many steps ahead of the one being applied [`StepPlan::apply`]
/// prefetches rows.
const PREFETCH_AHEAD: usize = 4;

/// Where one step's rows sit in the plan.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// End of the step's center rows in [`StepPlan::bags`].
    bag_end: usize,
    /// End of the step's negatives in [`StepPlan::negatives`].
    negatives_end: usize,
    context: usize,
    /// The step ends a loss group ([`StepPlan::close_group`]).
    closes_group: bool,
}

/// A batch of SGD steps drawn ahead of their application, in draw order.
///
/// [`StepPlan::push`] draws a step's `K` negatives at once, in the order
/// [`NegativeSamplingUpdate::step_bag`] would draw them, and
/// [`StepPlan::apply`] runs the steps through
/// [`NegativeSamplingUpdate::step_drawn`], prefetching the rows of the
/// step a few places ahead. Steps fall into loss groups: `apply` sums each
/// group's step losses from `0.0`, then adds the group sums in order, so a
/// caller that summed related steps before adding them to a running total
/// gets the same bits.
///
/// [`StepPlan::clear`] keeps the buffers' capacity, so a plan reused round
/// after round stops allocating once it has grown to the largest round;
/// `tests/train_allocations.rs` holds ACTOR's training loop to that.
#[derive(Debug, Clone, Default)]
pub struct StepPlan {
    /// Center rows of every step, concatenated.
    bags: Vec<usize>,
    /// Negatives of every step, concatenated.
    negatives: Vec<usize>,
    steps: Vec<Step>,
}

impl StepPlan {
    /// Empties the plan, keeping its capacity.
    pub fn clear(&mut self) {
        self.bags.clear();
        self.negatives.clear();
        self.steps.clear();
    }

    /// Number of steps in the plan.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan holds no step.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Records the step (`bag`, `context`) and draws its `k` negatives
    /// from `sample` now. A negative equal to `context` is kept here and
    /// skipped when applied, so the RNG moves exactly as in
    /// [`NegativeSamplingUpdate::step_bag`]. An empty bag draws and
    /// records nothing, as `step_bag` draws nothing for it.
    pub fn push<R, F>(
        &mut self,
        bag: impl IntoIterator<Item = usize>,
        context: usize,
        k: usize,
        rng: &mut R,
        mut sample: F,
    ) where
        R: Rng + ?Sized,
        F: FnMut(&mut R) -> usize,
    {
        let start = self.bags.len();
        self.bags.extend(bag);
        if self.bags.len() == start {
            return;
        }
        self.negatives.extend((0..k).map(|_| sample(rng)));
        self.steps.push(Step {
            bag_end: self.bags.len(),
            negatives_end: self.negatives.len(),
            context,
            closes_group: false,
        });
    }

    /// Ends the current loss group. A group with no step adds nothing;
    /// steps pushed after the last `close_group` form a final group.
    pub fn close_group(&mut self) {
        if let Some(last) = self.steps.last_mut() {
            last.closes_group = true;
        }
    }

    /// Step `i`'s center rows and negatives.
    fn rows(&self, i: usize) -> (&[usize], &[usize]) {
        let (bag_start, negatives_start) = match i.checked_sub(1) {
            Some(prev) => (self.steps[prev].bag_end, self.steps[prev].negatives_end),
            None => (0, 0),
        };
        let step = &self.steps[i];
        (
            &self.bags[bag_start..step.bag_end],
            &self.negatives[negatives_start..step.negatives_end],
        )
    }

    /// Applies every step in draw order through
    /// [`NegativeSamplingUpdate::step_drawn`] and returns the sum of the
    /// loss groups. Before step `i` it prefetches the rows step
    /// `i + 4` will touch.
    pub fn apply(&self, store: &EmbeddingStore, upd: &mut NegativeSamplingUpdate) -> f64 {
        let (mut total, mut group) = (0.0f64, 0.0f64);
        for (i, step) in self.steps.iter().enumerate() {
            if let Some(ahead) = self.steps.get(i + PREFETCH_AHEAD) {
                let (bag, negatives) = self.rows(i + PREFETCH_AHEAD);
                bag.iter().for_each(|&b| store.centers.prefetch(b));
                store.contexts.prefetch(ahead.context);
                negatives.iter().for_each(|&n| store.contexts.prefetch(n));
            }
            let (bag, negatives) = self.rows(i);
            group += upd.step_drawn(store, bag, step.context, negatives);
            if step.closes_group {
                total += group;
                group = 0.0;
            }
        }
        total + group
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::SgdParams;
    use rand::{rngs::StdRng, SeedableRng};

    fn params(negatives: usize) -> SgdParams {
        SgdParams {
            learning_rate: 0.05,
            negatives,
            grad_clip: 0.0,
        }
    }

    /// Round `r`'s loss groups: a single-row step, then a group of a bag
    /// step, an empty bag and another single-row step.
    fn groups(r: usize) -> [Vec<(Vec<usize>, usize)>; 2] {
        [
            vec![(vec![r % 4], 5 + r % 3)],
            vec![(vec![0, 1, 2], 6), (vec![], 7), (vec![3], 4)],
        ]
    }

    #[test]
    fn applied_plan_matches_inline_steps_bit_for_bit() {
        let sample = |r: &mut StdRng| r.random_range(4..8);
        for k in [1, 3] {
            let inline = EmbeddingStore::init(8, 16, &mut StdRng::seed_from_u64(3));
            let planned = inline.clone();

            // Inline: each group summed from 0.0, then added to the
            // round's total.
            let mut upd = NegativeSamplingUpdate::new(16, params(k));
            let mut rng = StdRng::seed_from_u64(9);
            let mut total = 0.0f64;
            for r in 0..40 {
                let mut round = 0.0f64;
                for group in groups(r) {
                    let mut sum = 0.0f64;
                    for (bag, ctx) in group {
                        sum += upd.step_bag(&inline, &bag, ctx, &mut rng, sample);
                    }
                    round += sum;
                }
                total += round;
            }

            // Planned: each round's steps recorded first, then applied.
            let mut upd = NegativeSamplingUpdate::new(16, params(k));
            let mut plan_rng = StdRng::seed_from_u64(9);
            let mut plan_total = 0.0f64;
            let mut plan = StepPlan::default();
            for r in 0..40 {
                plan.clear();
                for group in groups(r) {
                    for (bag, ctx) in group {
                        plan.push(bag, ctx, k, &mut plan_rng, sample);
                    }
                    plan.close_group();
                }
                assert_eq!(plan.len(), 3);
                plan_total += plan.apply(&planned, &mut upd);
            }

            assert_eq!(total.to_bits(), plan_total.to_bits(), "K={k}");
            assert_eq!(rng.random::<u64>(), plan_rng.random::<u64>(), "K={k}");
            for i in 0..8 {
                assert_eq!(inline.centers.row(i), planned.centers.row(i), "K={k}");
                assert_eq!(inline.contexts.row(i), planned.contexts.row(i), "K={k}");
            }
        }
    }

    #[test]
    fn empty_plan_and_empty_groups_add_nothing() {
        let store = EmbeddingStore::zeros(4, 8);
        let mut upd = NegativeSamplingUpdate::new(8, params(1));
        let mut plan = StepPlan::default();
        plan.close_group();
        let mut rng = StdRng::seed_from_u64(1);
        plan.push([], 1, 1, &mut rng, |_| panic!("an empty bag draws nothing"));
        plan.close_group();
        assert!(plan.is_empty());
        assert_eq!(plan.apply(&store, &mut upd), 0.0);
    }
}
