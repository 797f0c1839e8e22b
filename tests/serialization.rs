//! Persistence round-trips of the embedding store's byte encoding (the
//! store section of a saved `ACTORCP1` model). Corpora are not persisted;
//! `Corpus::new` rebuilds them from records and checks every id.

use actor_st::embed::EmbeddingStore;
use actor_st::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn embedding_store_bytes_round_trip_preserves_training() {
    let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(300)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    let (model, _) = fit(&corpus, &split.train, &ActorConfig::fast()).unwrap();

    let bytes = model.store().to_bytes();
    let restored = EmbeddingStore::from_bytes(bytes).unwrap();
    assert_eq!(restored.n_nodes(), model.store().n_nodes());
    assert_eq!(restored.dim(), model.store().dim());
    for i in (0..restored.n_nodes()).step_by(53) {
        assert_eq!(restored.centers.row(i), model.store().centers.row(i));
        assert_eq!(restored.contexts.row(i), model.store().contexts.row(i));
    }
}

#[test]
fn store_bytes_reject_truncation() {
    let mut rng = StdRng::seed_from_u64(1);
    let store = EmbeddingStore::init(10, 8, &mut rng);
    let bytes = store.to_bytes();
    for cut in [0, 4, 7, bytes.len() - 1] {
        assert!(
            EmbeddingStore::from_bytes(bytes.slice(0..cut)).is_err(),
            "cut at {cut} should fail"
        );
    }
}
