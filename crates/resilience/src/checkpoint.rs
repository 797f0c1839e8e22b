//! Sealed checkpoint envelopes and the on-disk checkpoint store.
//!
//! ## Envelope format (`ACTORCP1`)
//!
//! | field         | bytes | contents                                   |
//! |---------------|-------|--------------------------------------------|
//! | magic         | 8     | `b"ACTORCP1"`                              |
//! | epoch         | 8     | training-epoch cursor (LE u64)             |
//! | samples       | 8     | weighted samples completed (LE u64)        |
//! | seed          | 8     | config RNG seed (LE u64; resume sanity)    |
//! | lr_scale      | 4     | learning-rate backoff scale (LE f32)       |
//! | payload_len   | 8     | payload length (LE u64)                    |
//! | payload       | n     | opaque to this crate (see below)           |
//! | crc32         | 4     | CRC-32 over *all* preceding bytes          |
//!
//! A reader rejects anything with a wrong magic, a short buffer, a length
//! prefix that disagrees with the buffer, or a CRC mismatch — so a torn
//! write, a truncation, or a flipped bit surfaces as a typed
//! [`CheckpointError`], never as a panic or a silently-wrong model.
//!
//! This envelope is the workspace's only persisted format. `actor-core`
//! puts the same payload in every envelope, a saved model and a training
//! checkpoint alike: the model's artifacts metadata followed by its
//! embedding store (see `actor_core::persist`).
//!
//! ## Atomicity
//!
//! [`write_sealed`] writes to a temp file in the same directory and
//! `rename`s it into place — on POSIX filesystems the visible file is
//! therefore always either absent or complete. [`CheckpointStore::write`]
//! and `TrainedModel::save` both go through it. Recovery
//! ([`CheckpointStore::latest_valid`]) walks checkpoints newest→oldest
//! and returns the first one that opens cleanly, which is exactly the
//! fallback behaviour the truncation test in `tests/resilience.rs`
//! exercises.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::crc::{crc32, Crc32};

/// Magic prefix of a sealed checkpoint.
pub const MAGIC: &[u8; 8] = b"ACTORCP1";

/// Fixed-size header length (everything before the payload).
const HEADER_LEN: usize = 8 + 8 + 8 + 8 + 4 + 8;

/// Cursor metadata stored alongside the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// Training epochs completed when the snapshot was taken.
    pub epoch: u64,
    /// Weighted samples completed (the fault-plan cursor).
    pub samples: u64,
    /// RNG seed of the run that wrote the checkpoint; resume refuses
    /// checkpoints written under a different seed.
    pub seed: u64,
    /// Learning-rate backoff scale in effect (1.0 unless a divergence
    /// retry shrank it).
    pub lr_scale: f32,
}

/// Why a checkpoint could not be written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure; `detail` carries the OS error text.
    Io {
        /// What the store was doing.
        context: String,
        /// Stringified `std::io::Error`.
        detail: String,
    },
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The buffer is shorter than its own framing claims.
    Truncated {
        /// Bytes present.
        len: usize,
        /// Bytes the framing requires.
        need: usize,
    },
    /// The CRC trailer disagrees with the contents.
    CrcMismatch {
        /// Trailer value.
        stored: u32,
        /// Recomputed value.
        computed: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { context, detail } => write!(f, "checkpoint io ({context}): {detail}"),
            Self::BadMagic => write!(f, "not an ACTORCP1 checkpoint"),
            Self::Truncated { len, need } => {
                write!(f, "checkpoint truncated: {len} bytes, need {need}")
            }
            Self::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(context: &str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        context: context.to_string(),
        detail: e.to_string(),
    }
}

fn encode_header(meta: &CheckpointMeta, payload_len: usize) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(MAGIC);
    header[8..16].copy_from_slice(&meta.epoch.to_le_bytes());
    header[16..24].copy_from_slice(&meta.samples.to_le_bytes());
    header[24..32].copy_from_slice(&meta.seed.to_le_bytes());
    header[32..36].copy_from_slice(&meta.lr_scale.to_le_bytes());
    header[36..44].copy_from_slice(&(payload_len as u64).to_le_bytes());
    header
}

/// Seals `payload` and its cursor metadata into a self-verifying buffer.
pub fn seal_checkpoint(meta: &CheckpointMeta, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    buf.extend_from_slice(&encode_header(meta, payload.len()));
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Opens a sealed checkpoint, verifying framing and CRC; returns the
/// cursor metadata and the payload.
pub fn open_checkpoint(bytes: &[u8]) -> Result<(CheckpointMeta, Vec<u8>), CheckpointError> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(CheckpointError::Truncated {
            len: bytes.len(),
            need: HEADER_LEN + 4,
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let payload_len = le_u64(bytes, 36);
    let need = (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(4))
        .ok_or(CheckpointError::Truncated {
            len: bytes.len(),
            need: usize::MAX,
        })?;
    if (bytes.len() as u64) != need {
        return Err(CheckpointError::Truncated {
            len: bytes.len(),
            need: need.min(usize::MAX as u64) as usize,
        });
    }
    let body_end = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(CheckpointError::CrcMismatch { stored, computed });
    }
    let meta = CheckpointMeta {
        epoch: le_u64(bytes, 8),
        samples: le_u64(bytes, 16),
        seed: le_u64(bytes, 24),
        lr_scale: f32::from_le_bytes(bytes[32..36].try_into().expect("4 bytes")),
    };
    Ok((meta, bytes[HEADER_LEN..body_end].to_vec()))
}

/// Seals `payload` and writes it to `path` atomically: a temp file
/// (`<path>.tmp`) in the same directory receives header, payload and CRC
/// trailer as one stream and is fsynced, then renamed over `path`, then
/// the directory is fsynced. On POSIX filesystems `path` is therefore
/// always absent, the old file, or the complete new one. The payload is a
/// multi-megabyte embedding store and checkpoints are written on the
/// training critical path, so the envelope is never built in memory.
pub fn write_sealed(
    path: &Path,
    meta: &CheckpointMeta,
    payload: &[u8],
) -> Result<(), CheckpointError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let header = encode_header(meta, payload.len());
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(payload);
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create temp", e))?;
        let mut w = std::io::BufWriter::new(&mut f);
        w.write_all(&header).map_err(|e| io_err("write temp", e))?;
        w.write_all(payload).map_err(|e| io_err("write temp", e))?;
        w.write_all(&crc.finish().to_le_bytes())
            .map_err(|e| io_err("write temp", e))?;
        w.flush().map_err(|e| io_err("write temp", e))?;
        drop(w);
        f.sync_all().map_err(|e| io_err("sync temp", e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err("rename into place", e))?;
    // The rename survives a crash only once the directory entry does.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    fs::File::open(dir.unwrap_or(Path::new(".")))
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync dir", e))
}

/// A directory of sealed checkpoints named `ckpt-<epoch>.ackpt`.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// A store rooted at `dir`, retaining the newest `keep` checkpoints
    /// (at least 2, so corruption of the newest always leaves a fallback).
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        Self {
            dir: dir.into(),
            keep: keep.max(2),
        }
    }

    /// The directory checkpoints live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{epoch:010}.ackpt"))
    }

    /// Writes one checkpoint atomically ([`write_sealed`]), then prunes
    /// everything older than the newest `keep`.
    pub fn write(&self, meta: &CheckpointMeta, payload: &[u8]) -> Result<PathBuf, CheckpointError> {
        fs::create_dir_all(&self.dir).map_err(|e| io_err("create dir", e))?;
        let dest = self.path_for(meta.epoch);
        write_sealed(&dest, meta, payload)?;
        self.prune();
        Ok(dest)
    }

    /// All checkpoint files, sorted oldest→newest by epoch.
    pub fn list(&self) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<(u64, PathBuf)> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let epoch: u64 = name
                    .strip_prefix("ckpt-")?
                    .strip_suffix(".ackpt")?
                    .parse()
                    .ok()?;
                Some((epoch, e.path()))
            })
            .collect();
        out.sort_unstable_by_key(|&(epoch, _)| epoch);
        out
    }

    /// The newest checkpoint that opens cleanly, walking backwards past
    /// truncated or corrupt files. Returns `None` when no valid
    /// checkpoint exists.
    pub fn latest_valid(&self) -> Option<(CheckpointMeta, Vec<u8>)> {
        for (_, path) in self.list().into_iter().rev() {
            let Ok(bytes) = fs::read(&path) else { continue };
            if let Ok(opened) = open_checkpoint(&bytes) {
                return Some(opened);
            }
        }
        None
    }

    /// Removes every checkpoint file (used by tests and fresh runs that
    /// must not resume stale state).
    pub fn clear(&self) {
        for (_, path) in self.list() {
            let _ = fs::remove_file(path);
        }
    }

    fn prune(&self) {
        let files = self.list();
        if files.len() > self.keep {
            for (_, path) in &files[..files.len() - self.keep] {
                let _ = fs::remove_file(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "actor-resilience-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(epoch: u64) -> CheckpointMeta {
        CheckpointMeta {
            epoch,
            samples: epoch * 1000,
            seed: 42,
            lr_scale: 1.0,
        }
    }

    #[test]
    fn seal_open_round_trip() {
        let payload = b"embedding store bytes".to_vec();
        let sealed = seal_checkpoint(&meta(7), &payload);
        let (m, p) = open_checkpoint(&sealed).unwrap();
        assert_eq!(m, meta(7));
        assert_eq!(p, payload);
    }

    #[test]
    fn open_rejects_every_truncation() {
        let sealed = seal_checkpoint(&meta(1), &[9u8; 128]);
        for cut in 0..sealed.len() {
            assert!(
                open_checkpoint(&sealed[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn open_rejects_any_flipped_bit() {
        let sealed = seal_checkpoint(&meta(3), b"payload");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            let err = open_checkpoint(&bad).unwrap_err();
            match err {
                CheckpointError::BadMagic
                | CheckpointError::CrcMismatch { .. }
                | CheckpointError::Truncated { .. } => {}
                other => panic!("unexpected error at byte {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn store_writes_atomically_and_prunes() {
        let dir = tmp_dir("prune");
        let store = CheckpointStore::new(&dir, 2);
        for epoch in 1..=5u64 {
            store.write(&meta(epoch), &[epoch as u8; 32]).unwrap();
        }
        let files = store.list();
        assert_eq!(files.len(), 2, "{files:?}");
        assert_eq!(files[0].0, 4);
        assert_eq!(files[1].0, 5);
        // No temp droppings left behind.
        let strays: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty());
        let (m, p) = store.latest_valid().unwrap();
        assert_eq!(m.epoch, 5);
        assert_eq!(p, vec![5u8; 32]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_skips_corrupt_newest() {
        let dir = tmp_dir("fallback");
        let store = CheckpointStore::new(&dir, 3);
        store.write(&meta(1), b"one").unwrap();
        store.write(&meta(2), b"two").unwrap();
        let newest = store.write(&meta(3), b"three").unwrap();
        // Truncate the newest file mid-payload.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let (m, p) = store.latest_valid().unwrap();
        assert_eq!(m.epoch, 2);
        assert_eq!(p, b"two");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_dir_is_not_an_error() {
        let store = CheckpointStore::new(tmp_dir("missing"), 2);
        assert!(store.latest_valid().is_none());
        assert!(store.list().is_empty());
        store.clear();
    }
}
