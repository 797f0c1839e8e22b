//! Property tests for the SGD engine: finiteness, direction of updates,
//! and Hogwild equivalence bounds on tiny problems.

use embed::math::dot;
use embed::{EmbeddingStore, NegativeSamplingUpdate, SgdParams};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A single positive step never decreases the positive pair's score
    /// when the negative hits a different row.
    #[test]
    fn positive_step_is_monotone(
        seed in 0u64..500,
        dim in 4usize..32,
        lr in 0.001f32..0.3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = EmbeddingStore::init(4, dim, &mut rng);
        let mut upd = NegativeSamplingUpdate::new(dim, SgdParams {
            learning_rate: lr,
            negatives: 1,
            grad_clip: 0.0,
        });
        let before = dot(store.centers.row(0), store.contexts.row(1));
        upd.step(&store, 0, 1, &mut rng, |_| 2usize);
        let after = dot(store.centers.row(0), store.contexts.row(1));
        prop_assert!(after >= before - 1e-6, "{before} -> {after}");
    }

    /// Training keeps every parameter finite for any sane configuration.
    #[test]
    fn training_stays_finite(
        seed in 0u64..200,
        lr in 0.001f32..0.5,
        negatives in 1usize..6,
        steps in 10usize..400,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = EmbeddingStore::init(8, 16, &mut rng);
        let mut upd = NegativeSamplingUpdate::new(16, SgdParams {
            learning_rate: lr,
            negatives,
            grad_clip: 0.0,
        });
        for i in 0..steps {
            let c = i % 4;
            let ctx = 4 + (i % 4);
            upd.step(&store, c, ctx, &mut rng, |r| {
                use rand::Rng;
                r.random_range(0..8)
            });
        }
        for i in 0..8 {
            prop_assert!(store.centers.row(i).iter().all(|x| x.is_finite()));
            prop_assert!(store.contexts.row(i).iter().all(|x| x.is_finite()));
        }
    }

    /// The bag update is exactly the plain update when the bag has one
    /// member.
    #[test]
    fn singleton_bag_equals_plain_step(seed in 0u64..200) {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let store_a = {
            let mut r = StdRng::seed_from_u64(seed ^ 1);
            EmbeddingStore::init(5, 8, &mut r)
        };
        let store_b = store_a.clone();
        let params = SgdParams { learning_rate: 0.1, negatives: 2, grad_clip: 0.0 };
        let mut upd_a = NegativeSamplingUpdate::new(8, params);
        let mut upd_b = NegativeSamplingUpdate::new(8, params);
        let la = upd_a.step(&store_a, 0, 1, &mut rng_a, |_| 3usize);
        let lb = upd_b.step_bag(&store_b, &[0], 1, &mut rng_b, |_| 3usize);
        prop_assert!((la - lb).abs() < 1e-9);
        for i in 0..5 {
            prop_assert_eq!(store_a.centers.row(i), store_b.centers.row(i));
            prop_assert_eq!(store_a.contexts.row(i), store_b.contexts.row(i));
        }
    }
}

/// Hogwild with disjoint rows is exact; with shared rows it still
/// converges to positive scores (smoke-level stress of the unsafe code).
#[test]
fn hogwild_stress_shared_rows() {
    let mut rng = StdRng::seed_from_u64(9);
    let store = EmbeddingStore::init(8, 32, &mut rng);
    par::run_seeded(4, 40_000, 9, |rng, n| {
        let mut upd = NegativeSamplingUpdate::new(
            32,
            SgdParams {
                learning_rate: 0.05,
                negatives: 2,
                grad_clip: 0.0,
            },
        );
        for _ in 0..n {
            // All threads hammer the same hot pair (0,1).
            upd.step(&store, 0, 1, rng, |r| {
                use rand::Rng;
                r.random_range(2..8)
            });
        }
    });
    let score = dot(store.centers.row(0), store.contexts.row(1));
    assert!(score > 1.0, "shared-row hogwild failed to learn: {score}");
    for i in 0..8 {
        assert!(store.centers.row(i).iter().all(|x| x.is_finite()));
    }
}
