//! Synthetic model construction for tests and benches.
//!
//! Training a real model with tens of thousands of hotspots per modality
//! is infeasible inside a test, but serving doesn't care where a model
//! came from: [`synthetic_model`] assembles a [`TrainedModel`] directly
//! from planted hotspot centers, an interned vocabulary, and *clustered*
//! embedding rows (the shape real embedding spaces take — uniform random
//! vectors are near-equidistant in high dimension, which no ANN index can
//! or should be judged on). [`clustered_unit_vectors`] is the same shape
//! as a bare vector set, for exercising an [`HnswIndex`] on its own.
//!
//! [`HnswIndex`]: crate::HnswIndex

use actor_core::{ActorConfig, TrainedModel};
use embed::math::normalize_into;
use embed::EmbeddingStore;
use hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use mobility::{GeoPoint, Vocabulary};
use rand::{rngs::StdRng, Rng, SeedableRng};
use stgraph::NodeSpace;

use crate::hnsw::FlatVectors;

/// Seconds per day; the period of the synthetic temporal hotspots.
const DAY: f64 = 86_400.0;

/// A model with `n_per_modality` time, location, and word units (plus a
/// handful of users), `dim`-wide clustered embeddings, deterministic in
/// `seed`. Hotspot centers are laid out evenly (a time grid over the day,
/// a location grid over greater LA) so raw-coordinate lookups behave.
pub fn synthetic_model(n_per_modality: usize, dim: usize, seed: u64) -> TrainedModel {
    assert!(n_per_modality >= 2 && dim >= 4);
    let n = n_per_modality;
    let mut rng = StdRng::seed_from_u64(seed);

    let time_centers: Vec<f64> = (0..n).map(|i| i as f64 * DAY / n as f64).collect();
    let temporal = TemporalHotspots::from_centers_with_period(&time_centers, DAY);

    let side = (n as f64).sqrt().ceil() as usize;
    let geo_centers: Vec<GeoPoint> = (0..n)
        .map(|i| {
            let (r, c) = (i / side, i % side);
            GeoPoint::new(
                33.5 + r as f64 / side as f64,
                -118.5 + c as f64 / side as f64,
            )
        })
        .collect();
    let spatial =
        SpatialHotspots::from_centers(&geo_centers, MeanShiftParams::with_bandwidth(0.02));

    let mut vocab = Vocabulary::new();
    for i in 0..n {
        vocab.intern(&format!("word{i:05}"));
    }

    let space = NodeSpace {
        n_time: n as u32,
        n_location: n as u32,
        n_word: n as u32,
        n_user: 8,
    };

    // Clustered rows: per-modality cluster centers with ±0.15 noise.
    let n_clusters = 64.min(n / 4).max(1);
    let mut store = EmbeddingStore::zeros(space.len(), dim);
    let mut centers = vec![0.0f32; n_clusters * dim];
    for x in centers.iter_mut() {
        *x = rng.random_range(-1.0f32..1.0);
    }
    let mut row = vec![0.0f32; dim];
    for i in 0..space.len() {
        let c = i % n_clusters;
        for (d, r) in row.iter_mut().enumerate() {
            *r = centers[c * dim + d] + rng.random_range(-0.15f32..0.15);
        }
        store.centers.set_row(i, &row);
    }

    TrainedModel::from_parts(store, space, spatial, temporal, vocab, ActorConfig::fast())
}

/// `n` unit vectors of width `dim` around `n_clusters` random centers
/// (±0.15 noise per coordinate before normalizing), deterministic in
/// `seed`.
pub fn clustered_unit_vectors(n: usize, dim: usize, n_clusters: usize, seed: u64) -> FlatVectors {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centers = vec![0.0f32; n_clusters * dim];
    for x in centers.iter_mut() {
        *x = rng.random_range(-1.0f32..1.0);
    }
    let mut data = vec![0.0f32; n * dim];
    let mut raw = vec![0.0f32; dim];
    for i in 0..n {
        let c = i % n_clusters;
        for (d, r) in raw.iter_mut().enumerate() {
            *r = centers[c * dim + d] + rng.random_range(-0.15f32..0.15);
        }
        normalize_into(&raw, &mut data[i * dim..(i + 1) * dim]);
    }
    FlatVectors::new(data, dim)
}

/// A probe query vector near the embedding of global row `i`: the row
/// plus a little noise, the typical "query resembles an indexed point"
/// workload.
pub fn probe_near(model: &TrainedModel, i: usize, noise: f32, rng: &mut StdRng) -> Vec<f32> {
    model
        .store()
        .centers
        .row(i)
        .iter()
        .map(|&x| x + rng.random_range(-noise..noise))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgraph::NodeType;

    #[test]
    fn synthetic_model_has_the_requested_shape() {
        let m = synthetic_model(64, 8, 9);
        assert_eq!(m.space().count(NodeType::Word), 64);
        assert_eq!(m.space().count(NodeType::Time), 64);
        assert_eq!(m.space().count(NodeType::Location), 64);
        assert!(m.vocab().get("word00063").is_some());
        // Raw lookups assign to the planted grids.
        let node = m.time_of_day_node(0.0);
        assert_eq!(m.space().type_of(node), NodeType::Time);
    }
}
