//! Center/context embedding matrices with Hogwild-style shared mutation.
//!
//! The paper optimizes with asynchronous SGD \[45\]: worker threads update
//! shared parameter rows *without locks*, accepting benign races because
//! individual updates are sparse and small. In Rust this is expressed by a
//! [`Matrix`] whose storage sits in an `UnsafeCell` with a manual `Sync`
//! impl; mutation goes through [`Matrix::row_mut_racy`], whose contract is
//! documented below.
//!
//! A matrix is only a store of rows. It keeps no record of which rows
//! changed: the one publisher of row deltas (`actor_core::OnlineActor`)
//! tracks its own dirty rows. An [`EmbeddingStore`] encodes as
//! `[n][dim][centers][contexts]`: two LE u64 words, then both matrices as
//! row-major LE f32.

use std::cell::UnsafeCell;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::Rng;

/// Bytes before the matrix data in [`EmbeddingStore::to_bytes`] output.
const STORE_HEADER_LEN: usize = 16;

/// A dense row-major `n × dim` f32 matrix supporting racy shared writes.
///
/// # Hogwild safety contract
///
/// `row_mut_racy` hands out `&mut [f32]` aliasing other threads' views;
/// the SGD kernel's three write sites (positive context, negative
/// contexts, bag centers) are its only callers.
/// This is sound *in practice* under the Hogwild conditions (sparse,
/// bounded updates; torn f32 reads never propagate beyond one SGD step and
/// cannot cause memory unsafety because `f32` is plain-old-data and rows
/// never change length). All unsafety is confined to numeric content —
/// no pointers, lengths, or invariants depend on the racy values.
#[derive(Debug)]
pub struct Matrix {
    n: usize,
    dim: usize,
    data: UnsafeCell<Vec<f32>>,
}

// SAFETY: see the Hogwild contract above — races only affect f32 payloads.
unsafe impl Sync for Matrix {}

impl Matrix {
    /// Allocates an `n × dim` zero matrix.
    pub fn zeros(n: usize, dim: usize) -> Self {
        Self {
            n,
            dim,
            data: UnsafeCell::new(vec![0.0; n * dim]),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable view of row `i`.
    ///
    /// May observe concurrent writes under Hogwild; callers treat values
    /// as approximate during training.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.n, "row {i} out of {}", self.n);
        unsafe {
            let v = &*self.data.get();
            &v[i * self.dim..(i + 1) * self.dim]
        }
    }

    /// Racy mutable view of row `i` (Hogwild update target).
    ///
    /// # Safety
    ///
    /// Callers must only read/write f32 values within the row and must not
    /// hold the reference across calls that could reallocate (none exist:
    /// the buffer is never resized after construction).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut_racy(&self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.n);
        let v = &mut *self.data.get();
        &mut v[i * self.dim..(i + 1) * self.dim]
    }

    /// Hints the CPU to pull row `i` into cache ahead of use: a
    /// `prefetcht0` on each 64-byte line of the row on x86_64, nothing
    /// elsewhere. Changes no value.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        let row = self.row(i);
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let bytes = std::mem::size_of_val(row);
            let base = row.as_ptr().cast::<i8>();
            // The last byte covers the row's tail line when the row does
            // not start on a line boundary.
            for offset in (0..bytes).step_by(64).chain(bytes.checked_sub(1)) {
                // SAFETY: a prefetch never faults and changes no memory,
                // and `offset < bytes` keeps every address inside row `i`,
                // which `self.row` has bounds-checked.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(offset)) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = row;
    }

    /// Exclusive mutable view (no races possible through `&mut self`).
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.n);
        let dim = self.dim;
        &mut self.data.get_mut()[i * dim..(i + 1) * dim]
    }

    /// Fills the matrix with `U(-0.5/dim, 0.5/dim)` noise (the word2vec /
    /// LINE initialization).
    pub fn init_uniform<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let half = 0.5 / self.dim as f32;
        for x in self.data.get_mut().iter_mut() {
            *x = rng.random_range(-half..half);
        }
    }

    /// Copies `src` into row `i`.
    pub fn set_row(&mut self, i: usize, src: &[f32]) {
        assert_eq!(src.len(), self.dim);
        self.row_mut(i).copy_from_slice(src);
    }

    /// Appends the row-major payload as LE f32. Checkpointing serializes
    /// multi-megabyte stores on the training critical path, so the
    /// little-endian (i.e. every supported) target takes a single bulk
    /// copy instead of a per-element conversion.
    fn append_data(&self, buf: &mut BytesMut) {
        // SAFETY: the buffer is never resized, and racing Hogwild writes
        // only change f32 values (see the contract above).
        let data = unsafe { &*self.data.get() };
        if cfg!(target_endian = "little") {
            // SAFETY: f32 has no invalid bit patterns and a native-LE
            // [f32] has exactly the `to_le_bytes` byte layout.
            let raw =
                unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, data.len() * 4) };
            buf.put_slice(raw);
        } else {
            for &x in data.iter() {
                buf.put_f32_le(x);
            }
        }
    }

    /// Rebuilds an `n × dim` matrix from [`Matrix::append_data`] bytes
    /// (`raw.len()` must be `n·dim·4`).
    fn from_data(n: usize, dim: usize, raw: &[u8]) -> Self {
        debug_assert_eq!(raw.len(), n * dim * 4);
        let data = raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        Self {
            n,
            dim,
            data: UnsafeCell::new(data),
        }
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            dim: self.dim,
            data: UnsafeCell::new(unsafe { (*self.data.get()).clone() }),
        }
    }
}

/// Paired center (`x`) and context (`x'`) matrices of §5.2.2.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    /// Center vectors `x_i`.
    pub centers: Matrix,
    /// Context vectors `x'_i`.
    pub contexts: Matrix,
}

impl EmbeddingStore {
    /// Allocates zeroed center/context matrices.
    pub fn zeros(n: usize, dim: usize) -> Self {
        Self {
            centers: Matrix::zeros(n, dim),
            contexts: Matrix::zeros(n, dim),
        }
    }

    /// Standard initialization: uniform noise for centers, zeros for
    /// contexts (word2vec's scheme; zero contexts make the first gradient
    /// of each edge purely attractive).
    pub fn init<R: Rng + ?Sized>(n: usize, dim: usize, rng: &mut R) -> Self {
        let mut s = Self::zeros(n, dim);
        s.centers.init_uniform(rng);
        s
    }

    /// Number of embedded nodes.
    pub fn n_nodes(&self) -> usize {
        self.centers.n_rows()
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.centers.dim()
    }

    /// Encoded size in bytes (see [`EmbeddingStore::append_bytes`]).
    pub fn byte_len(&self) -> usize {
        STORE_HEADER_LEN + 2 * self.n_nodes() * self.dim() * 4
    }

    /// Appends the store layout to `buf`: `n` and `dim` (LE u64 each),
    /// then the centers and the contexts as row-major LE f32.
    pub fn append_bytes(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.n_nodes() as u64);
        buf.put_u64_le(self.dim() as u64);
        self.centers.append_data(buf);
        self.contexts.append_data(buf);
    }

    /// Encodes the store (see [`EmbeddingStore::append_bytes`]).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.byte_len());
        self.append_bytes(&mut buf);
        buf.freeze()
    }

    /// Decodes [`EmbeddingStore::to_bytes`] output. The payload must be
    /// exactly the header plus both matrices, so bytes in any other
    /// layout are rejected, never misread.
    pub fn from_bytes(mut bytes: Bytes) -> Result<Self, String> {
        if bytes.len() < STORE_HEADER_LEN {
            return Err("store header truncated".into());
        }
        let (n, dim) = (bytes.get_u64_le(), bytes.get_u64_le());
        let bad = || format!("{n}x{dim} store does not fit {} payload bytes", bytes.len());
        let n = usize::try_from(n).map_err(|_| bad())?;
        let dim = usize::try_from(dim).map_err(|_| bad())?;
        let matrix_len = n
            .checked_mul(dim)
            .and_then(|e| e.checked_mul(4))
            .filter(|&len| len.checked_mul(2) == Some(bytes.len()))
            .ok_or_else(bad)?;
        Ok(Self {
            centers: Matrix::from_data(n, dim, &bytes[..matrix_len]),
            contexts: Matrix::from_data(n, dim, &bytes[matrix_len..]),
        })
    }
}

/// A read-only unit-normalized copy of a matrix's rows.
///
/// Serving ranks candidates by cosine similarity; normalizing every row
/// *once* at snapshot build turns each per-candidate cosine into a plain
/// dot product ([`crate::math::dot_unit`]). The copy is immutable and
/// detached from the live (possibly Hogwild-mutated) training matrix, so
/// readers see a frozen, torn-write-free view.
#[derive(Debug, Clone)]
pub struct NormalizedRows {
    data: Vec<f32>,
    n: usize,
    dim: usize,
}

impl NormalizedRows {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The unit-normalized row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.n, "row {i} out of {}", self.n);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Copies and unit-normalizes every row of the row-major flat `data`
    /// (zero rows stay zero). Panics when `data` is ragged for `dim`.
    pub fn from_flat(data: &[f32], dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "ragged flat rows"
        );
        let n = data.len() / dim;
        let mut out = vec![0.0f32; n * dim];
        for i in 0..n {
            crate::math::normalize_into(
                &data[i * dim..(i + 1) * dim],
                &mut out[i * dim..(i + 1) * dim],
            );
        }
        Self { data: out, n, dim }
    }

    /// Re-normalizes just `rows` from the (same-shaped) row-major flat
    /// source, leaving every other row bit-identical: the delta
    /// counterpart of [`NormalizedRows::from_flat`] used by incremental
    /// snapshot application.
    pub fn refresh_rows_from_flat(&mut self, data: &[f32], rows: &[u32]) {
        assert_eq!(data.len(), self.n * self.dim, "shape mismatch");
        for &r in rows {
            let i = r as usize;
            assert!(i < self.n, "row {i} out of {}", self.n);
            crate::math::normalize_into(
                &data[i * self.dim..(i + 1) * self.dim],
                &mut self.data[i * self.dim..(i + 1) * self.dim],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn rows_are_disjoint_and_indexed() {
        let mut m = Matrix::zeros(3, 4);
        m.set_row(1, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(0), &[0.0; 4]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.dim(), 4);
    }

    #[test]
    #[should_panic]
    fn row_bounds_checked() {
        let m = Matrix::zeros(2, 2);
        m.row(2);
    }

    #[test]
    fn init_uniform_is_small_and_nonzero() {
        let mut m = Matrix::zeros(10, 8);
        let mut rng = StdRng::seed_from_u64(1);
        m.init_uniform(&mut rng);
        let bound = 0.5 / 8.0;
        let mut any_nonzero = false;
        for i in 0..10 {
            for &x in m.row(i) {
                assert!(x.abs() <= bound);
                any_nonzero |= x != 0.0;
            }
        }
        assert!(any_nonzero);
    }

    #[test]
    fn racy_mut_access_is_usable_across_threads() {
        let m = Matrix::zeros(4, 16);
        std::thread::scope(|s| {
            for t in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..1000 {
                        let row = unsafe { m.row_mut_racy(t) };
                        for x in row.iter_mut() {
                            *x += 1.0;
                        }
                    }
                });
            }
        });
        // Disjoint rows per thread: no races at all, exact counts.
        for t in 0..4 {
            assert!(m.row(t).iter().all(|&x| x == 1000.0));
        }
    }

    #[test]
    fn store_bytes_reject_bad_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = EmbeddingStore::init(2, 2, &mut rng).to_bytes();
        assert!(EmbeddingStore::from_bytes(b.slice(0..8)).is_err());
        assert!(EmbeddingStore::from_bytes(b.slice(0..b.len() - 4)).is_err());
        // A row count whose byte size wraps must not pass the length test.
        let mut evil = b.to_vec();
        evil[..8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(EmbeddingStore::from_bytes(Bytes::from(evil)).is_err());
    }

    #[test]
    fn store_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = EmbeddingStore::init(5, 4, &mut rng);
        let b = s.to_bytes();
        let s2 = EmbeddingStore::from_bytes(b).unwrap();
        assert_eq!(s2.n_nodes(), 5);
        assert_eq!(s2.dim(), 4);
        for i in 0..5 {
            assert_eq!(s.centers.row(i), s2.centers.row(i));
            assert_eq!(s.contexts.row(i), s2.contexts.row(i));
        }
    }

    /// The row-major flat payload of `m`.
    fn flat(m: &Matrix) -> Vec<f32> {
        (0..m.n_rows()).flat_map(|i| m.row(i)).copied().collect()
    }

    #[test]
    fn normalized_rows_are_unit_length_and_aligned() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = Matrix::zeros(6, 16);
        m.init_uniform(&mut rng);
        m.set_row(5, &[0.0; 16]); // a zero row must survive as zeros
        let norms = NormalizedRows::from_flat(&flat(&m), 16);
        assert_eq!(norms.n_rows(), 6);
        assert_eq!(norms.dim(), 16);
        for i in 0..5 {
            let len = crate::math::norm(norms.row(i));
            assert!((len - 1.0).abs() < 1e-5, "row {i} norm {len}");
            // Same direction as the source row.
            let cos = crate::math::cosine(m.row(i), norms.row(i));
            assert!((cos - 1.0).abs() < 1e-6);
        }
        assert!(norms.row(5).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn refresh_rows_matches_full_renormalize() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut m = Matrix::zeros(10, 8);
        m.init_uniform(&mut rng);
        let mut norms = NormalizedRows::from_flat(&flat(&m), 8);
        m.set_row(3, &[2.0; 8]);
        m.set_row(7, &[-1.0; 8]);
        norms.refresh_rows_from_flat(&flat(&m), &[3, 7]);
        let full = NormalizedRows::from_flat(&flat(&m), 8);
        for i in 0..10 {
            assert_eq!(norms.row(i), full.row(i), "row {i}");
        }
    }

    #[test]
    fn store_init_contexts_are_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = EmbeddingStore::init(3, 4, &mut rng);
        for i in 0..3 {
            assert_eq!(s.contexts.row(i), &[0.0; 4]);
        }
    }
}
