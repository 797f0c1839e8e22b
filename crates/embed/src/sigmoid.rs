//! Precomputed sigmoid lookup table.
//!
//! Training evaluates σ(x) once per (edge, negative) pair — hundreds of
//! millions of times per run. A 1024-entry table over `[-6, 6]` (the
//! word2vec trick) replaces `exp` with one multiply and one load; outside
//! the range σ saturates to 0/1, which also caps gradients.
//!
//! Each slot also carries the two loss logarithms of its σ,
//! `(σ.max(1e-7) as f64).ln()` and `((1 − σ).max(1e-7) as f64).ln()`, so
//! the SGD step reads its monitoring loss from the table instead of
//! calling `f64::ln` per pair, with the same bits.

/// Interior table resolution.
const TABLE_SIZE: usize = 1024;
/// Clamp bound.
const MAX_X: f32 = 6.0;
/// Slot of every `x ≥ MAX_X` (σ = 1).
const SAT_ONE: usize = TABLE_SIZE;
/// Slot of every `x ≤ -MAX_X` (σ = 0).
const SAT_ZERO: usize = TABLE_SIZE + 1;
/// Slot of a NaN score: σ and both logs are NaN, so a non-finite row
/// shows up in the loss the divergence detector watches.
const NAN_SLOT: usize = TABLE_SIZE + 2;
/// Interior slots plus the three special ones.
const N_SLOTS: usize = TABLE_SIZE + 3;
/// Floor applied to σ and 1 − σ before taking a loss logarithm.
const LOG_FLOOR: f32 = 1e-7;

/// One table slot: σ and the losses a pair scored there contributes.
#[derive(Debug, Clone, Copy)]
pub struct Sigmoid {
    /// σ(x).
    pub value: f32,
    /// `ln max(σ, 1e-7)`; a positive pair's loss is its negation.
    pub ln_value: f64,
    /// `ln max(1 − σ, 1e-7)`; a negative pair's loss is its negation.
    pub ln_complement: f64,
}

impl Sigmoid {
    fn from_value(value: f32) -> Self {
        Self {
            value,
            ln_value: (value.max(LOG_FLOOR) as f64).ln(),
            ln_complement: ((1.0 - value).max(LOG_FLOOR) as f64).ln(),
        }
    }
}

/// The lookup table, built once.
#[derive(Debug, Clone)]
pub struct SigmoidTable {
    /// `TABLE_SIZE` interior slots, then `SAT_ONE`, `SAT_ZERO`, `NAN_SLOT`.
    /// A fixed-size array, so the lookup needs no bounds check.
    slots: Box<[Sigmoid; N_SLOTS]>,
}

impl Default for SigmoidTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SigmoidTable {
    /// Builds the table.
    pub fn new() -> Self {
        let mut slots: Vec<Sigmoid> = (0..TABLE_SIZE)
            .map(|i| {
                let x = (i as f32 / TABLE_SIZE as f32 * 2.0 - 1.0) * MAX_X;
                Sigmoid::from_value(1.0 / (1.0 + (-x).exp()))
            })
            .collect();
        slots.push(Sigmoid::from_value(1.0));
        slots.push(Sigmoid::from_value(0.0));
        // `f32::max` ignores a NaN operand, so this slot is written out
        // rather than derived.
        slots.push(Sigmoid {
            value: f32::NAN,
            ln_value: f64::NAN,
            ln_complement: f64::NAN,
        });
        Self {
            slots: slots
                .into_boxed_slice()
                .try_into()
                .expect("N_SLOTS slots built"),
        }
    }

    /// The slot index of `x`.
    #[inline]
    fn slot(x: f32) -> usize {
        if x >= MAX_X {
            SAT_ONE
        } else if x <= -MAX_X {
            SAT_ZERO
        } else if x.is_nan() {
            NAN_SLOT
        } else {
            let idx = ((x + MAX_X) / (2.0 * MAX_X) * TABLE_SIZE as f32) as usize;
            idx.min(TABLE_SIZE - 1)
        }
    }

    /// σ(x) with its loss logarithms, clamped to the table bounds.
    #[inline]
    pub fn lookup(&self, x: f32) -> Sigmoid {
        self.slots[Self::slot(x)]
    }
}

/// Exact sigmoid, used in tests and non-hot paths.
#[inline]
pub fn sigmoid_exact(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_exact_within_table_resolution() {
        let t = SigmoidTable::new();
        let mut x = -5.9f32;
        while x < 5.9 {
            let got = t.lookup(x).value as f64;
            let want = sigmoid_exact(x as f64);
            assert!((got - want).abs() < 0.01, "x={x}: {got} vs {want}");
            x += 0.037;
        }
    }

    #[test]
    fn saturates_out_of_range() {
        let t = SigmoidTable::new();
        assert_eq!(t.lookup(100.0).value, 1.0);
        assert_eq!(t.lookup(-100.0).value, 0.0);
        assert_eq!(t.lookup(6.0).value, 1.0);
        assert_eq!(t.lookup(-6.0).value, 0.0);
        assert_eq!(t.lookup(f32::INFINITY).value, 1.0);
        assert_eq!(t.lookup(f32::NEG_INFINITY).value, 0.0);
    }

    #[test]
    fn midpoint_is_half() {
        let t = SigmoidTable::new();
        assert!((t.lookup(0.0).value - 0.5).abs() < 0.01);
    }

    #[test]
    fn monotone() {
        let t = SigmoidTable::new();
        let mut prev = t.lookup(-6.0).value;
        let mut x = -5.9f32;
        while x <= 6.0 {
            let v = t.lookup(x).value;
            assert!(v + 1e-6 >= prev, "not monotone at {x}");
            prev = v;
            x += 0.1;
        }
    }

    #[test]
    fn every_slot_log_is_the_floored_log_of_its_sigma() {
        let t = SigmoidTable::new();
        for (i, s) in t.slots.iter().enumerate() {
            if i == NAN_SLOT {
                continue;
            }
            let want = (s.value.max(1e-7) as f64).ln();
            let want_c = ((1.0 - s.value).max(1e-7) as f64).ln();
            assert_eq!(s.ln_value.to_bits(), want.to_bits(), "slot {i}");
            assert_eq!(s.ln_complement.to_bits(), want_c.to_bits(), "slot {i}");
        }
        assert_eq!(t.slots[SAT_ONE].value, 1.0);
        assert_eq!(t.slots[SAT_ZERO].value, 0.0);
    }

    #[test]
    fn nan_has_its_own_slot_with_nan_logs() {
        let t = SigmoidTable::new();
        let s = t.lookup(f32::NAN);
        assert!(s.value.is_nan());
        assert!(s.ln_value.is_nan());
        assert!(s.ln_complement.is_nan());
    }
}
