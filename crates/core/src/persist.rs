//! Trained-model persistence: the workspace's one persisted format.
//!
//! A saved model and a training checkpoint are the same file: a CRC-sealed
//! `ACTORCP1` envelope ([`resilience::checkpoint`]) around one payload,
//!
//! | section   | contents                                                 |
//! |-----------|----------------------------------------------------------|
//! | artifacts | node space, spatial and temporal hotspot centers, temporal period, vocabulary, every [`ActorConfig`] field |
//! | store     | [`EmbeddingStore::to_bytes`]: `n`, `dim`, centers, contexts |
//!
//! [`TrainedModel::save`] writes it atomically through
//! [`resilience::write_sealed`]. [`TrainedModel::load`] opens any such
//! file, including every `ckpt-*.ackpt` a [`crate::fit_checkpointed`] run
//! leaves behind, and reads only the payload, not the envelope's cursor
//! fields. Artifacts are immutable, so a checkpointed run encodes that
//! section once and appends each snapshot's store to it.
//!
//! The CRC catches accidents, not crafted files, so the decoder still
//! treats the payload as untrusted: every length and count is checked
//! against the bytes actually present before any allocation or loop sized
//! by it.

use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use embed::EmbeddingStore;
use hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use mobility::{GeoPoint, Vocabulary};
use resilience::{open_checkpoint, write_sealed, CheckpointError, CheckpointMeta};
use stgraph::NodeSpace;

use crate::config::ActorConfig;
use crate::error::PersistError;
use crate::model::{ModelArtifacts, TrainedModel};
use crate::resilient::samples_per_epoch;

/// Encoded size of an [`ActorConfig`]: nine 8-byte integers, four `f64`,
/// three `f32` and four flags stored as `u32`.
const CONFIG_LEN: usize = 9 * 8 + 4 * 8 + 3 * 4 + 4 * 4;

impl TrainedModel {
    /// Saves the model to `path` as a sealed `ACTORCP1` file, atomically
    /// (see [`resilience::write_sealed`]). The envelope's cursor is that
    /// of a finished run: `max_epochs` epochs under the config's seed.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let config = self.config();
        let cursor = CheckpointMeta {
            epoch: config.max_epochs as u64,
            samples: config.max_epochs as u64 * samples_per_epoch(config),
            seed: config.seed,
            lr_scale: 1.0,
        };
        let payload = payload(&encode_artifacts(&self.artifacts), &self.store);
        Ok(write_sealed(path.as_ref(), &cursor, &payload)?)
    }

    /// Loads a model from a file written by [`TrainedModel::save`] or by a
    /// checkpointed fit. Hotspot assignment is rebuilt from the saved
    /// centers (detection is not re-run; hotspot support counts are not
    /// kept, inference does not need them).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            context: "read model file".to_string(),
            detail: e.to_string(),
        })?;
        Self::from_sealed(&bytes)
    }

    /// Opens a sealed envelope and decodes its payload.
    fn from_sealed(bytes: &[u8]) -> Result<Self, PersistError> {
        let (_, payload) = open_checkpoint(bytes)?;
        decode_payload(Bytes::from(payload))
    }
}

/// Encodes the artifacts section of a payload.
pub(crate) fn encode_artifacts(artifacts: &ModelArtifacts) -> Bytes {
    let mut buf = BytesMut::new();
    let space = artifacts.space();
    for n in [space.n_time, space.n_location, space.n_word, space.n_user] {
        buf.put_u32_le(n);
    }
    let spatial = artifacts.spatial_hotspots().centers();
    buf.put_u64_le(spatial.len() as u64);
    for c in spatial {
        buf.put_f64_le(c.lat);
        buf.put_f64_le(c.lon);
    }
    let temporal = artifacts.temporal_hotspots();
    buf.put_u64_le(temporal.centers().len() as u64);
    for &t in temporal.centers() {
        buf.put_f64_le(t);
    }
    buf.put_f64_le(temporal.period());

    buf.put_u64_le(artifacts.vocab().len() as u64);
    for (_, word, count) in artifacts.vocab().iter() {
        buf.put_u32_le(word.len() as u32);
        buf.put_slice(word.as_bytes());
        buf.put_u64_le(count);
    }
    put_config(&mut buf, artifacts.config());
    buf.freeze()
}

/// One payload: an [`encode_artifacts`] section followed by `store`.
pub(crate) fn payload(artifacts: &[u8], store: &EmbeddingStore) -> Bytes {
    let mut buf = BytesMut::with_capacity(artifacts.len() + store.byte_len());
    buf.put_slice(artifacts);
    store.append_bytes(&mut buf);
    buf.freeze()
}

/// Writes every config field in declaration order. A new field fails to
/// compile in [`get_config`]'s struct literal (it has no `..`) until it is
/// read, and fails `every_config_field_survives_the_envelope` until it is
/// written here.
fn put_config(buf: &mut BytesMut, c: &ActorConfig) {
    buf.put_u64_le(c.dim as u64);
    buf.put_f32_le(c.learning_rate);
    buf.put_u64_le(c.negatives as u64);
    buf.put_u64_le(c.batch_size as u64);
    buf.put_u64_le(c.max_epochs as u64);
    buf.put_u64_le(c.batches_per_type as u64);
    buf.put_u64_le(c.threads as u64);
    buf.put_f64_le(c.spatial_bandwidth);
    buf.put_f64_le(c.temporal_bandwidth);
    buf.put_f64_le(c.temporal_period);
    buf.put_u64_le(c.min_hotspot_support as u64);
    buf.put_u64_le(c.pretrain_samples);
    buf.put_u32_le(c.use_inter.into());
    buf.put_u32_le(c.use_intra_bag.into());
    buf.put_u32_le(c.include_mentioned_users.into());
    buf.put_f32_le(c.init_scale);
    buf.put_f64_le(c.negative_power);
    buf.put_u32_le(c.anneal.into());
    buf.put_f32_le(c.grad_clip);
    buf.put_u64_le(c.seed);
}

/// Reads [`put_config`] output. Struct-literal fields are evaluated in
/// the order written, which is the wire order.
fn get_config(bytes: &mut Bytes) -> Result<ActorConfig, PersistError> {
    need(bytes, "config", CONFIG_LEN)?;
    Ok(ActorConfig {
        dim: bytes.get_u64_le() as usize,
        learning_rate: bytes.get_f32_le(),
        negatives: bytes.get_u64_le() as usize,
        batch_size: bytes.get_u64_le() as usize,
        max_epochs: bytes.get_u64_le() as usize,
        batches_per_type: bytes.get_u64_le() as usize,
        threads: bytes.get_u64_le() as usize,
        spatial_bandwidth: bytes.get_f64_le(),
        temporal_bandwidth: bytes.get_f64_le(),
        temporal_period: bytes.get_f64_le(),
        min_hotspot_support: bytes.get_u64_le() as usize,
        pretrain_samples: bytes.get_u64_le(),
        use_inter: bytes.get_u32_le() != 0,
        use_intra_bag: bytes.get_u32_le() != 0,
        include_mentioned_users: bytes.get_u32_le() != 0,
        init_scale: bytes.get_f32_le(),
        negative_power: bytes.get_f64_le(),
        anneal: bytes.get_u32_le() != 0,
        grad_clip: bytes.get_f32_le(),
        seed: bytes.get_u64_le(),
    })
}

fn get_str(bytes: &mut Bytes, field: &'static str) -> Result<String, PersistError> {
    need(bytes, field, 4)?;
    let len = bytes.get_u32_le() as usize;
    need(bytes, field, len)?;
    let raw = bytes.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| PersistError::BadString { field })
}

/// Bounds-checks `n` bytes remaining before a fixed-width read.
fn need(bytes: &Bytes, reading: &'static str, n: usize) -> Result<(), PersistError> {
    if bytes.len() < n {
        Err(PersistError::Truncated {
            reading,
            need: n,
            have: bytes.len(),
        })
    } else {
        Ok(())
    }
}

/// Reads a `u64` element count and verifies the payload actually holds
/// `count × elem_size` more bytes *before* any allocation or loop uses
/// the count. The multiplication is checked: a count near `u64::MAX`
/// must not wrap into a small number and pass the length test.
fn get_count(
    bytes: &mut Bytes,
    field: &'static str,
    elem_size: usize,
) -> Result<usize, PersistError> {
    need(bytes, field, 8)?;
    let claimed = bytes.get_u64_le();
    let implausible = PersistError::ImplausibleLength { field, claimed };
    let count = usize::try_from(claimed).map_err(|_| implausible.clone())?;
    let total = count.checked_mul(elem_size).ok_or(implausible.clone())?;
    if total > bytes.len() {
        return Err(implausible);
    }
    Ok(count)
}

/// Decodes one payload (artifacts section, then store) into a model.
pub(crate) fn decode_payload(mut bytes: Bytes) -> Result<TrainedModel, PersistError> {
    need(&bytes, "node space", 16)?;
    let space = NodeSpace {
        n_time: bytes.get_u32_le(),
        n_location: bytes.get_u32_le(),
        n_word: bytes.get_u32_le(),
        n_user: bytes.get_u32_le(),
    };
    let n_spatial = get_count(&mut bytes, "spatial center count", 16)?;
    let spatial_centers: Vec<GeoPoint> = (0..n_spatial)
        .map(|_| GeoPoint::new(bytes.get_f64_le(), bytes.get_f64_le()))
        .collect();
    let n_temporal = get_count(&mut bytes, "temporal center count", 8)?;
    let temporal_centers: Vec<f64> = (0..n_temporal).map(|_| bytes.get_f64_le()).collect();
    need(&bytes, "temporal period", 8)?;
    let temporal_period = bytes.get_f64_le();

    // Each vocabulary entry is at least 12 bytes (string header + count),
    // which bounds the loop by the payload size.
    let n_words = get_count(&mut bytes, "vocabulary count", 12)?;
    let mut vocab = Vocabulary::new();
    for _ in 0..n_words {
        let word = get_str(&mut bytes, "vocabulary word")?;
        need(&bytes, "vocabulary word count", 8)?;
        let count = bytes.get_u64_le();
        let id = vocab.intern(&word).ok_or(PersistError::Inconsistent {
            detail: format!("saved vocabulary contains invalid word {word:?}"),
        })?;
        // intern set count to 1; restore the rest in O(1) — the count is
        // attacker-controlled, so no count-sized loops.
        vocab.bump_by(id, count.saturating_sub(1));
    }
    let config = get_config(&mut bytes)?;

    let store =
        EmbeddingStore::from_bytes(bytes).map_err(|detail| PersistError::Store { detail })?;
    if store.n_nodes() != space.len() {
        return Err(PersistError::Inconsistent {
            detail: format!(
                "store has {} rows but node space expects {}",
                store.n_nodes(),
                space.len()
            ),
        });
    }
    if spatial_centers.is_empty() || temporal_centers.is_empty() {
        return Err(PersistError::Inconsistent {
            detail: "saved model must have at least one hotspot per modality".into(),
        });
    }
    if spatial_centers.len() != space.n_location as usize
        || temporal_centers.len() != space.n_time as usize
    {
        return Err(PersistError::Inconsistent {
            detail: "hotspot counts disagree with the node space".into(),
        });
    }
    let spatial = SpatialHotspots::from_centers(
        &spatial_centers,
        MeanShiftParams::with_bandwidth(config.spatial_bandwidth),
    );
    let temporal = TemporalHotspots::from_centers_with_period(&temporal_centers, temporal_period);
    Ok(TrainedModel::from_parts(
        store, space, spatial, temporal, vocab, config,
    ))
}

/// Decodes a checkpoint payload and returns its store, rejecting one
/// whose node space or embedding width differs from the run `artifacts`
/// describe: that is another run's state. Resume and divergence restore
/// both go through here.
pub(crate) fn store_for_run(
    payload: Vec<u8>,
    artifacts: &ModelArtifacts,
) -> Result<EmbeddingStore, PersistError> {
    let saved = decode_payload(Bytes::from(payload))?;
    if saved.space() != artifacts.space() || saved.store.dim() != artifacts.config().dim {
        return Err(PersistError::Inconsistent {
            detail: format!(
                "checkpoint holds {} nodes x {} dims, this run has {} x {}",
                saved.space().len(),
                saved.store.dim(),
                artifacts.space().len(),
                artifacts.config().dim
            ),
        });
    }
    Ok(saved.store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::fit;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};
    use resilience::seal_checkpoint;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn model() -> TrainedModel {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(50)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        fit(&corpus, &split.train, &ActorConfig::fast()).unwrap().0
    }

    fn payload_of(m: &TrainedModel) -> Bytes {
        payload(&encode_artifacts(m.artifacts()), m.store())
    }

    /// Seals `payload` the way any writer would; the cursor is irrelevant
    /// to loading.
    fn seal(payload: &[u8]) -> Vec<u8> {
        let cursor = CheckpointMeta {
            epoch: 0,
            samples: 0,
            seed: 0,
            lr_scale: 1.0,
        };
        seal_checkpoint(&cursor, payload)
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "actor-persist-test-{tag}-{}.ackpt",
            std::process::id()
        ))
    }

    #[test]
    fn envelope_round_trip_preserves_inference() {
        let m = model();
        let path = tmp_path("round-trip");
        m.save(&path).unwrap();
        let loaded = TrainedModel::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(loaded.space(), m.space());
        assert_eq!(loaded.vocab().len(), m.vocab().len());
        // Same vectors.
        for i in 0..m.space().len() {
            assert_eq!(loaded.store().centers.row(i), m.store().centers.row(i));
            assert_eq!(loaded.store().contexts.row(i), m.store().contexts.row(i));
        }
        // Same hotspot assignment behaviour.
        let p = mobility::GeoPoint::new(40.7, -73.95);
        assert_eq!(loaded.location_node(p), m.location_node(p));
        assert_eq!(
            loaded.time_of_day_node(7_000.0),
            m.time_of_day_node(7_000.0)
        );
        // Same query results.
        let kw = m.vocab().get("coffee");
        if let Some(kw) = kw {
            let q = m.vector(m.word_node(kw)).to_vec();
            assert_eq!(m.nearest_words(&q, 5), loaded.nearest_words(&q, 5));
        }
    }

    #[test]
    fn vocabulary_counts_survive() {
        let m = model();
        let loaded = TrainedModel::from_sealed(&seal(&payload_of(&m))).unwrap();
        for (id, word, count) in m.vocab().iter() {
            let lid = loaded.vocab().get(word).expect("word survives");
            assert_eq!(lid, id, "ids must be stable for node lookups");
            assert_eq!(loaded.vocab().count(lid), count);
        }
    }

    #[test]
    fn load_rejects_garbage_and_missing_files() {
        let m = model();
        let sealed = seal(&payload_of(&m));
        let path = tmp_path("garbage");
        std::fs::write(&path, b"nope").unwrap();
        assert!(matches!(
            TrainedModel::load(&path),
            Err(PersistError::Envelope(CheckpointError::Truncated { .. }))
        ));
        let mut wrong_magic = sealed.clone();
        wrong_magic[0] = b'X';
        std::fs::write(&path, wrong_magic).unwrap();
        assert!(matches!(
            TrainedModel::load(&path),
            Err(PersistError::Envelope(CheckpointError::BadMagic))
        ));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            TrainedModel::load(&path),
            Err(PersistError::Envelope(CheckpointError::Io { .. }))
        ));
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let m = model();
        let payload = payload_of(&m);
        let sealed = seal(&payload);
        // Exhaustive truncation over the structured prefix, then strided
        // over the (large, homogeneous) matrix tail: of the sealed file,
        // and of the bare payload so the decoder's own bounds checks run.
        let cuts = |len: usize| {
            let dense_prefix = 4096.min(len);
            (0..dense_prefix).chain((dense_prefix..len).step_by(997))
        };
        for cut in cuts(sealed.len()) {
            let r = TrainedModel::from_sealed(&sealed[..cut]);
            assert!(
                r.is_err(),
                "truncation at {cut} of {} must fail",
                sealed.len()
            );
        }
        for cut in cuts(payload.len()) {
            let r = decode_payload(payload.slice(0..cut));
            assert!(
                r.is_err(),
                "payload cut at {cut} of {} must fail",
                payload.len()
            );
        }
        // The untruncated file still loads.
        TrainedModel::from_sealed(&sealed).unwrap();
    }

    #[test]
    fn hostile_length_fields_are_rejected_not_allocated() {
        let m = model();
        let base = payload_of(&m).to_vec();
        // Each case corrupts the payload and re-seals it, so the CRC
        // passes and the decoder's bounds checks are what reject it.
        let load = |payload: &[u8]| TrainedModel::from_sealed(&seal(payload)).err();

        // An envelope payload length claiming more than the file holds.
        let mut evil = seal(&base);
        evil[36..44].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            TrainedModel::from_sealed(&evil).err(),
            Some(PersistError::Envelope(CheckpointError::Truncated { .. }))
        ));

        // Spatial-center count near u64::MAX: the checked multiply must
        // catch the wrap instead of allocating.
        let mut evil = base.clone();
        let spatial_count_at = 16; // after the node space
        evil[spatial_count_at..spatial_count_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let r = load(&evil);
        assert!(
            matches!(
                r,
                Some(PersistError::ImplausibleLength {
                    field: "spatial center count",
                    ..
                })
            ),
            "{r:?}"
        );

        // Vocabulary count pointing past the payload (the classic
        // count-sized-loop DoS) is rejected up front.
        let mut evil = base.clone();
        let vocab_count_at = 16 // node space
            + 8 + m.spatial_hotspots().len() * 16
            + 8 + m.temporal_hotspots().len() * 8
            + 8; // period
        evil[vocab_count_at..vocab_count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let r = load(&evil);
        assert!(
            matches!(
                r,
                Some(PersistError::ImplausibleLength {
                    field: "vocabulary count",
                    ..
                })
            ),
            "{r:?}"
        );

        // A store row count whose byte size wraps.
        let mut evil = base.clone();
        let store_at = base.len() - m.store().byte_len();
        evil[store_at..store_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let r = load(&evil);
        assert!(matches!(r, Some(PersistError::Store { .. })), "{r:?}");
    }

    #[test]
    fn every_bit_flip_of_a_saved_model_is_rejected() {
        let m = model();
        let base = seal(&payload_of(&m));
        for round in 0..64 {
            let mut flipped = base.clone();
            resilience::FaultPlan::new(plan_seed(round)).flip_bytes(&mut flipped, 5);
            assert!(
                TrainedModel::from_sealed(&flipped).is_err(),
                "flip round {round} loaded"
            );
        }

        fn plan_seed(round: u64) -> u64 {
            0xBADC_0DE0 ^ (round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
    }

    #[test]
    fn every_config_field_survives_the_envelope() {
        let m = model();
        // A weekly model with every field off its default and no two
        // integers equal, so a dropped or swapped field shows.
        let weekly = ActorConfig {
            dim: m.store().dim(),
            learning_rate: 0.031,
            negatives: 3,
            batch_size: 17,
            max_epochs: 7,
            batches_per_type: 5,
            threads: 2,
            spatial_bandwidth: 0.011,
            temporal_bandwidth: 5400.0,
            temporal_period: mobility::SECONDS_PER_WEEK as f64,
            min_hotspot_support: 9,
            pretrain_samples: 12_345,
            use_inter: false,
            use_intra_bag: false,
            include_mentioned_users: false,
            init_scale: 0.5,
            negative_power: 1.25,
            anneal: false,
            grad_clip: 2.5,
            seed: 99,
        };
        // Every pair of flags differs in at least one of these patterns.
        for (use_inter, use_intra_bag, include_mentioned_users, anneal) in [
            (false, false, false, false),
            (true, false, true, false),
            (true, true, false, false),
        ] {
            let config = ActorConfig {
                use_inter,
                use_intra_bag,
                include_mentioned_users,
                anneal,
                ..weekly.clone()
            };
            let artifacts = ModelArtifacts::new(
                *m.space(),
                m.spatial_hotspots().clone(),
                TemporalHotspots::from_centers_with_period(
                    m.temporal_hotspots().centers(),
                    config.temporal_period,
                ),
                m.vocab().clone(),
                config.clone(),
            );
            let saved = TrainedModel::from_shared(Arc::new(artifacts), m.store().clone());
            let loaded = TrainedModel::from_sealed(&seal(&payload_of(&saved))).unwrap();
            assert_eq!(loaded.config(), &config);
            assert_eq!(loaded.temporal_hotspots().period(), config.temporal_period);
        }
    }

    #[test]
    fn a_store_with_a_generation_word_is_rejected() {
        // Files written before the store lost its write generation carry
        // `[n][dim][generation][centers][contexts]`: they fail cleanly
        // and are never misread.
        let m = model();
        let new = payload_of(&m);
        let header_end = new.len() - m.store().byte_len() + 16;
        let mut old = new[..header_end].to_vec();
        old.extend_from_slice(&7u64.to_le_bytes());
        old.extend_from_slice(&new[header_end..]);
        let r = decode_payload(Bytes::from(old)).err();
        assert!(matches!(r, Some(PersistError::Store { .. })), "{r:?}");
    }

    #[test]
    fn a_store_of_the_wrong_size_is_rejected() {
        let m = model();
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(1);
        let wrong = EmbeddingStore::init(3, 4, &mut rng);
        let r = decode_payload(payload(&encode_artifacts(m.artifacts()), &wrong)).err();
        assert!(
            matches!(r, Some(PersistError::Inconsistent { .. })),
            "{r:?}"
        );
    }
}
