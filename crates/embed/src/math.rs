//! Dense f32 vector kernels.
//!
//! Embeddings are `f32` (halving memory traffic relative to `f64`, the
//! dominant cost of SGD over large matrices); accumulations that feed
//! decisions (cosine ranking) widen to `f64`.

/// Independent accumulators in [`dot`].
const DOT_LANES: usize = 16;

/// Dot product over the common prefix of `a` and `b`.
///
/// A single accumulator would make every add wait for the previous one;
/// this kernel runs 16 independent chains instead, so the compiler can
/// keep them in vector registers. The summation order is fixed by the
/// source, not by the host:
///
/// * element `i` of the leading `16·⌊n/16⌋` goes to lane `i mod 16`,
///   summed in index order;
/// * the remaining `n mod 16` elements go to one serial tail sum;
/// * the lanes reduce pairwise (lane `j` += lane `j + 8`, then `+ 4`,
///   `+ 2`, `+ 1`), and the tail is added last.
///
/// There is no `mul_add`, no runtime CPU-feature dispatch and no thread
/// count in it, so the result is bit-reproducible on any host; it
/// differs from a serial left-to-right sum only by rounding.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let (ca, cb) = (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES));
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    let mut lanes = [0.0f32; DOT_LANES];
    for (x, y) in ca.zip(cb) {
        for ((l, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *l += x * y;
        }
    }
    let mut width = DOT_LANES;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            lanes[j] += lanes[j + width];
        }
    }
    lanes[0] + tail
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// The pair update of one SGD step in a single pass: `grad += g · context`,
/// then `context += g · center`, reading each `context[i]` once.
///
/// Bit-identical to `axpy(g, context, grad); axpy(g, center, context)`:
/// `grad[i]` takes the old `context[i]` either way, because the three
/// slices never alias (the center is a center row or the bag sum, the
/// context a context row, the gradient a scratch buffer).
#[inline]
pub(crate) fn pair_update(g: f32, center: &[f32], context: &mut [f32], grad: &mut [f32]) {
    debug_assert_eq!(center.len(), context.len());
    debug_assert_eq!(grad.len(), context.len());
    for ((c, gr), &x) in context.iter_mut().zip(grad.iter_mut()).zip(center) {
        let old = *c;
        *gr += g * old;
        *c = old + g * x;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity in f64; 0 when either vector is zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut ab, mut aa, mut bb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        ab += x as f64 * y as f64;
        aa += x as f64 * x as f64;
        bb += y as f64 * y as f64;
    }
    if aa == 0.0 || bb == 0.0 {
        0.0
    } else {
        ab / (aa.sqrt() * bb.sqrt())
    }
}

/// Writes the unit-normalized `src` into `dst`; a zero vector stays zero.
///
/// Normalizing once — at snapshot build or before a batch of queries —
/// turns every later cosine into a plain dot product ([`dot_unit`]), which
/// is the shared ranking kernel of the exact scan, the HNSW index, and the
/// neighbor-search path.
#[inline]
pub fn normalize_into(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    let n = norm(src);
    if n == 0.0 || !n.is_finite() {
        dst.fill(0.0);
    } else {
        let inv = 1.0 / n;
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = s * inv;
        }
    }
}

/// Dot product widened to f64 — on unit vectors this *is* the cosine
/// similarity, without the two norms [`cosine`] recomputes per call.
/// Callers must pre-normalize both sides (see [`normalize_into`]).
#[inline]
pub fn dot_unit(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as f64 * y as f64;
    }
    acc
}

/// Sums `vectors` element-wise into a fresh vector; the bag-of-words
/// representation of footnote 4. Returns zeros when `vectors` is empty.
pub fn sum_of(vectors: &[&[f32]], dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    for v in vectors {
        axpy(1.0, v, &mut out);
    }
    out
}

/// Mean of `vectors`; zeros when empty.
pub fn mean_of(vectors: &[&[f32]], dim: usize) -> Vec<f32> {
    let mut out = sum_of(vectors, dim);
    if !vectors.is_empty() {
        let inv = 1.0 / vectors.len() as f32;
        for x in &mut out {
            *x *= inv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0f32, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn dot_matches_an_f64_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 127, 128, 300] {
            let a: Vec<f32> = (0..len).map(|_| rng.random_range(0.0..1.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.random_range(0.0..1.0)).collect();
            let want: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let got = dot(&a, &b) as f64;
            assert!(
                (got - want).abs() <= 1e-5 * want.abs(),
                "len {len}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn dot_follows_the_documented_summation_order() {
        // The order in `dot`'s doc comment, written out index by index.
        fn reference(a: &[f32], b: &[f32]) -> f32 {
            let body = a.len() / 16 * 16;
            let mut lanes = [0.0f32; 16];
            for i in 0..body {
                lanes[i % 16] += a[i] * b[i];
            }
            let mut tail = 0.0f32;
            for i in body..a.len() {
                tail += a[i] * b[i];
            }
            for width in [8, 4, 2, 1] {
                for j in 0..width {
                    lanes[j] += lanes[j + width];
                }
            }
            lanes[0] + tail
        }
        let mut rng = StdRng::seed_from_u64(4);
        for len in [0usize, 1, 15, 16, 17, 33, 128, 300] {
            let a: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                reference(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn dot_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 15, 16, 17, 33, 128, 300] {
            let a: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            assert_eq!(dot(&a, &b).to_bits(), dot(&b, &a).to_bits(), "len {len}");
        }
    }

    #[test]
    fn pair_update_matches_two_axpys_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [0usize, 1, 7, 16, 33, 128, 300] {
            let center: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let context: Vec<f32> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let grad: Vec<f32> = (0..len).map(|_| rng.random_range(-0.1..0.1)).collect();
            for g in [0.0173f32, -0.42, 3.0e-5] {
                let (mut ctx_ref, mut grad_ref) = (context.clone(), grad.clone());
                axpy(g, &context, &mut grad_ref);
                axpy(g, &center, &mut ctx_ref);
                let (mut ctx, mut gr) = (context.clone(), grad.clone());
                pair_update(g, &center, &mut ctx, &mut gr);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ctx), bits(&ctx_ref), "len {len}, g {g}");
                assert_eq!(bits(&gr), bits(&grad_ref), "len {len}, g {g}");
            }
        }
    }

    #[test]
    fn cosine_basic_identities() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-9);
        assert!(cosine(&a, &b).abs() < 1e-9);
        let c = [-1.0f32, 0.0];
        assert!((cosine(&a, &c) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = [0.3f32, -0.7, 0.2];
        let b = [1.5f32, 0.4, -0.9];
        let a2: Vec<f32> = a.iter().map(|x| x * 10.0).collect();
        assert!((cosine(&a, &b) - cosine(&a2, &b)).abs() < 1e-6);
    }

    #[test]
    fn normalize_into_produces_unit_vectors() {
        let src = [3.0f32, 4.0];
        let mut dst = [0.0f32; 2];
        normalize_into(&src, &mut dst);
        assert!((norm(&dst) - 1.0).abs() < 1e-6);
        assert!((dst[0] - 0.6).abs() < 1e-6);

        // Zero stays zero rather than becoming NaN.
        let mut z = [1.0f32; 2];
        normalize_into(&[0.0, 0.0], &mut z);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn dot_unit_matches_cosine_after_normalization() {
        let a = [0.3f32, -0.7, 0.2, 1.1];
        let b = [1.5f32, 0.4, -0.9, 0.05];
        let (mut ua, mut ub) = ([0.0f32; 4], [0.0f32; 4]);
        normalize_into(&a, &mut ua);
        normalize_into(&b, &mut ub);
        assert!((dot_unit(&ua, &ub) - cosine(&a, &b)).abs() < 1e-6);
    }

    #[test]
    fn sum_and_mean() {
        let v1 = [1.0f32, 2.0];
        let v2 = [3.0f32, 4.0];
        assert_eq!(sum_of(&[&v1, &v2], 2), vec![4.0, 6.0]);
        assert_eq!(mean_of(&[&v1, &v2], 2), vec![2.0, 3.0]);
        assert_eq!(sum_of(&[], 2), vec![0.0, 0.0]);
        assert_eq!(mean_of(&[], 2), vec![0.0, 0.0]);
    }
}
