//! Deterministic fault injection.
//!
//! All randomness flows from one seed through a splitmix64 stream, so a
//! failing test names its seed and replays bit-for-bit. The plan covers
//! the four fault classes the resilience layer defends against:
//!
//! * flipping bytes in a sealed envelope ([`FaultPlan::flip_bytes`]),
//! * truncating a checkpoint file ([`FaultPlan::truncate_file`]),
//! * injecting malformed lines into a TSV corpus
//!   ([`FaultPlan::corrupt_tsv`]),
//! * killing a training run once it passes a sample count
//!   ([`FaultPlan::should_fail`], consulted by the checkpointed fit
//!   driver at segment boundaries).

use std::fs;
use std::io;
use std::path::Path;

/// What kind of malformed line [`FaultPlan::corrupt_tsv`] injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectedFaultKind {
    /// Fields dropped from the end of the line.
    MissingField,
    /// Timestamp replaced with non-numeric junk.
    BadTimestamp,
    /// Latitude replaced with `NaN` (parses as an f64, fails the finite
    /// check).
    NonFiniteCoordinate,
    /// Longitude pushed far outside `[-180, 180]`.
    OutOfRangeCoordinate,
    /// Text replaced with stop words only, so tokenization yields zero
    /// keywords.
    EmptyText,
}

impl InjectedFaultKind {
    /// Every kind, in injection rotation order.
    pub const ALL: [InjectedFaultKind; 5] = [
        InjectedFaultKind::MissingField,
        InjectedFaultKind::BadTimestamp,
        InjectedFaultKind::NonFiniteCoordinate,
        InjectedFaultKind::OutOfRangeCoordinate,
        InjectedFaultKind::EmptyText,
    ];
}

/// One injected fault: which 1-based line, and what was done to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// 1-based line number in the corrupted output.
    pub line: usize,
    /// The corruption applied.
    pub kind: InjectedFaultKind,
}

/// A seeded, deterministic fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    fail_after_samples: Option<u64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// A plan drawing all its randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            fail_after_samples: None,
        }
    }

    /// Arms a simulated worker failure once `samples` weighted samples
    /// have completed. The checkpointed fit driver consults
    /// [`FaultPlan::should_fail`] at every segment boundary.
    pub fn with_worker_failure_after(mut self, samples: u64) -> Self {
        self.fail_after_samples = Some(samples);
        self
    }

    /// True once the training cursor has passed the armed failure point.
    pub fn should_fail(&self, samples_done: u64) -> bool {
        self.fail_after_samples.is_some_and(|at| samples_done >= at)
    }

    /// Flips `n` deterministic bytes of `data` in place (xor with a
    /// non-zero mask, so every flip is a real change).
    pub fn flip_bytes(&self, data: &mut [u8], n: usize) {
        if data.is_empty() {
            return;
        }
        let mut state = self.seed ^ 0xF11B;
        for _ in 0..n {
            let at = (splitmix64(&mut state) % data.len() as u64) as usize;
            let mask = (splitmix64(&mut state) % 255 + 1) as u8;
            data[at] ^= mask;
        }
    }

    /// Truncates `data` to `keep_fraction` of its length (clamped to
    /// `[0, 1]`).
    pub fn truncate_bytes(&self, data: &mut Vec<u8>, keep_fraction: f64) {
        let keep = (data.len() as f64 * keep_fraction.clamp(0.0, 1.0)) as usize;
        data.truncate(keep);
    }

    /// Truncates the file at `path` to `keep_fraction` of its length —
    /// the torn-write simulation.
    pub fn truncate_file(&self, path: &Path, keep_fraction: f64) -> io::Result<()> {
        let mut bytes = fs::read(path)?;
        self.truncate_bytes(&mut bytes, keep_fraction);
        fs::write(path, bytes)
    }

    /// Corrupts roughly `fraction` of the data lines of a
    /// `user \t ts \t lat \t lon \t text` corpus, rotating through
    /// [`InjectedFaultKind::ALL`]. Blank and `#` comment lines are left
    /// alone. Returns the corrupted text plus an exact manifest of what
    /// was injected where — the ground truth the lenient-ingest
    /// acceptance test compares an `IngestReport` against.
    pub fn corrupt_tsv(&self, input: &str, fraction: f64) -> (String, Vec<InjectedFault>) {
        let mut state = self.seed ^ 0x75F;
        let mut out = String::with_capacity(input.len());
        let mut manifest = Vec::new();
        let mut rotation = 0usize;
        for (i, line) in input.lines().enumerate() {
            let lineno = i + 1;
            let data_line = !line.trim().is_empty() && !line.trim().starts_with('#');
            if data_line && unit_f64(&mut state) < fraction {
                let kind = InjectedFaultKind::ALL[rotation % InjectedFaultKind::ALL.len()];
                rotation += 1;
                out.push_str(&corrupt_line(line, kind));
                manifest.push(InjectedFault { line: lineno, kind });
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        (out, manifest)
    }
}

fn corrupt_line(line: &str, kind: InjectedFaultKind) -> String {
    let fields: Vec<&str> = line.splitn(5, '\t').collect();
    match kind {
        InjectedFaultKind::MissingField => fields
            .iter()
            .take(3.min(fields.len()))
            .copied()
            .collect::<Vec<_>>()
            .join("\t"),
        InjectedFaultKind::BadTimestamp => replace_field(&fields, 1, "not-a-timestamp"),
        InjectedFaultKind::NonFiniteCoordinate => replace_field(&fields, 2, "NaN"),
        InjectedFaultKind::OutOfRangeCoordinate => replace_field(&fields, 3, "9999.0"),
        InjectedFaultKind::EmptyText => replace_field(&fields, 4, "the and of with a 1234"),
    }
}

fn replace_field(fields: &[&str], at: usize, with: &str) -> String {
    let mut out: Vec<&str> = fields.to_vec();
    while out.len() <= at {
        out.push("0");
    }
    out[at] = with;
    out.join("\t")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TSV: &str = "\
# a comment line survives untouched
alice\t1406851200\t34.05\t-118.24\tmorning espresso downtown
bob\t1406854800\t34.06\t-118.25\tsurf report looks great
carol\t1406858400\t33.74\t-118.26\tharbor ships and cranes
dave\t1406862000\t33.75\t-118.27\ttacos after the gym
erin\t1406865600\t33.76\t-118.28\tlate night ramen run
";

    #[test]
    fn plans_are_deterministic_per_seed() {
        let plan = FaultPlan::new(7);
        let (a, ma) = plan.corrupt_tsv(TSV, 0.5);
        let (b, mb) = plan.corrupt_tsv(TSV, 0.5);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
        let (c, _) = FaultPlan::new(8).corrupt_tsv(TSV, 0.5);
        assert_ne!(a, c, "different seeds should corrupt differently");
    }

    #[test]
    fn corrupt_tsv_manifest_matches_output() {
        let plan = FaultPlan::new(3);
        let (out, manifest) = plan.corrupt_tsv(TSV, 1.0);
        // fraction 1.0: every data line corrupted, comment untouched.
        assert_eq!(manifest.len(), 5);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with('#'));
        for fault in &manifest {
            let line = lines[fault.line - 1];
            match fault.kind {
                InjectedFaultKind::MissingField => {
                    assert!(line.matches('\t').count() < 4, "{line}")
                }
                InjectedFaultKind::BadTimestamp => assert!(line.contains("not-a-timestamp")),
                InjectedFaultKind::NonFiniteCoordinate => assert!(line.contains("NaN")),
                InjectedFaultKind::OutOfRangeCoordinate => assert!(line.contains("9999.0")),
                InjectedFaultKind::EmptyText => assert!(line.ends_with("the and of with a 1234")),
            }
        }
    }

    #[test]
    fn zero_fraction_is_identity_modulo_trailing_newline() {
        let plan = FaultPlan::new(1);
        let (out, manifest) = plan.corrupt_tsv(TSV, 0.0);
        assert_eq!(out, TSV);
        assert!(manifest.is_empty());
    }

    #[test]
    fn flip_bytes_changes_exactly_targeted_bytes() {
        let plan = FaultPlan::new(11);
        let original = vec![0u8; 64];
        let mut flipped = original.clone();
        plan.flip_bytes(&mut flipped, 3);
        let diff = original
            .iter()
            .zip(&flipped)
            .filter(|(a, b)| a != b)
            .count();
        assert!((1..=3).contains(&diff), "3 flips changed {diff} bytes");
        // Deterministic replay.
        let mut again = original.clone();
        plan.flip_bytes(&mut again, 3);
        assert_eq!(again, flipped);
    }

    #[test]
    fn worker_failure_trigger_is_a_threshold() {
        let plan = FaultPlan::new(0).with_worker_failure_after(10_000);
        assert!(!plan.should_fail(9_999));
        assert!(plan.should_fail(10_000));
        assert!(plan.should_fail(u64::MAX));
        assert!(!FaultPlan::new(0).should_fail(u64::MAX));
    }

    #[test]
    fn truncate_bytes_clamps() {
        let plan = FaultPlan::new(5);
        let mut data = vec![1u8; 100];
        plan.truncate_bytes(&mut data, 0.6);
        assert_eq!(data.len(), 60);
        plan.truncate_bytes(&mut data, 2.0);
        assert_eq!(data.len(), 60);
        plan.truncate_bytes(&mut data, -1.0);
        assert!(data.is_empty());
    }
}
