//! From-scratch HNSW approximate nearest-neighbor index over unit vectors.
//!
//! Hierarchical Navigable Small World graphs (Malkov & Yashunin 2016):
//! every element gets a geometrically distributed top layer; upper layers
//! form coarse "express lanes" that greedy search descends, and layer 0
//! holds a denser graph searched with a best-first beam of width `ef`.
//! Search cost is `O(ef · M · log n)` distance evaluations against the
//! `O(n)` of a brute-force scan — the difference between serving a top-10
//! query in microseconds and in milliseconds once a modality holds tens of
//! thousands of units.
//!
//! Vectors are **unit-normalized by the caller** (see
//! [`embed::NormalizedRows`]); similarity is therefore the plain dot
//! product ([`embed::math::dot_unit`]), shared with the exact scan so ANN
//! and brute-force results are directly comparable. The index stores only
//! adjacency — vectors stay in the snapshot's normalized view and are
//! passed to every operation through [`VectorSource`], keeping one copy of
//! the data regardless of how many structures rank against it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use embed::math::dot_unit;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Read access to the vector set an index was built over. Implementors
/// must hand the *same* vectors to `build` and every later search; the
/// index stores adjacency only and never copies vector data.
pub trait VectorSource {
    /// Number of vectors.
    fn len(&self) -> usize;
    /// True when the source holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The unit-normalized vector with local id `i`.
    fn vector(&self, i: u32) -> &[f32];
}

/// A flat owned vector set; the simplest [`VectorSource`] (benches, tests).
pub struct FlatVectors {
    data: Vec<f32>,
    dim: usize,
}

impl FlatVectors {
    /// Wraps row-major `data` of width `dim`.
    pub fn new(data: Vec<f32>, dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "ragged vector data"
        );
        Self { data, dim }
    }

    /// Overwrites vector `i` (tests and benches simulating drift).
    pub fn set(&mut self, i: u32, row: &[f32]) {
        let i = i as usize;
        self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(row);
    }
}

impl VectorSource for FlatVectors {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }
    fn vector(&self, i: u32) -> &[f32] {
        let i = i as usize;
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Max neighbors per element on layers ≥ 1 (layer 0 keeps `2·M`).
const M: usize = 16;
/// Beam width while inserting (`efConstruction`).
const EF_CONSTRUCTION: usize = 100;
/// Default beam width while searching (`ef`); [`HnswIndex::search`] takes
/// a per-call override, and the beam is clamped up to `k` per query.
const EF_SEARCH: usize = 64;
/// Seed for the geometric layer assignment — builds are deterministic.
const SEED: u64 = 0x5EED_AC70;

/// `(similarity, id)` with a total order: by similarity, ties by id, so
/// heap behavior is deterministic. Similarities must be finite (unit
/// vectors guarantee it).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    sim: f64,
    id: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sim
            .partial_cmp(&other.sim)
            .expect("finite similarity")
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-thread search state: the visited-set stamps, both beam
/// heaps and the sorted result list. Reused across queries, it leaves the
/// returned result vector as a search's only allocation.
pub struct SearchScratch {
    /// `visited[i] == stamp` marks node `i` seen in the current search.
    visited: Vec<u32>,
    stamp: u32,
    /// Best-first frontier (max-heap by similarity).
    frontier: BinaryHeap<Scored>,
    /// Current beam (min-heap by similarity via `Reverse`).
    beam: BinaryHeap<std::cmp::Reverse<Scored>>,
    /// The last layer search's or exact scan's results, most similar
    /// first; also the candidate list of neighbor selection while pruning.
    out: Vec<Scored>,
}

impl SearchScratch {
    /// Fresh scratch; grows lazily to the largest index it serves.
    pub fn new() -> Self {
        Self {
            visited: Vec::new(),
            stamp: 0,
            frontier: BinaryHeap::new(),
            beam: BinaryHeap::new(),
            out: Vec::new(),
        }
    }

    /// Starts a new visited epoch over `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        if self.stamp == u32::MAX {
            self.visited.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.frontier.clear();
        self.beam.clear();
        self.out.clear();
    }

    /// Moves the beam into `out`, sorted most similar first.
    fn drain_beam_sorted(&mut self) {
        self.out.clear();
        self.out.extend(self.beam.drain().map(|r| r.0));
        self.out.sort_by(|a, b| b.cmp(a));
    }

    /// Marks `id` visited; returns true the first time.
    #[inline]
    fn first_visit(&mut self, id: u32) -> bool {
        let slot = &mut self.visited[id as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The index proper: per-layer adjacency plus the entry point.
#[derive(Clone)]
pub struct HnswIndex {
    /// Top layer of each element.
    levels: Vec<u8>,
    /// `layers[l][node]` = neighbor ids of `node` on layer `l`.
    layers: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
}

impl HnswIndex {
    /// Builds the index over every vector of `vecs` (deterministic for a
    /// fixed seed). One graph builds on one thread; [`crate::Snapshot::build`]
    /// builds the graphs of different modalities concurrently, off the
    /// query path at publish time.
    pub fn build(vecs: &impl VectorSource) -> Self {
        assert!(!vecs.is_empty(), "cannot index an empty vector set");
        let n = vecs.len();
        let mut rng = StdRng::seed_from_u64(SEED);
        // Geometric layer assignment: P(level >= l) = (1/M)^l.
        let mult = 1.0 / (M as f64).ln();
        let levels: Vec<u8> = (0..n)
            .map(|_| {
                let u: f64 = rng.random::<f64>();
                ((-u.max(1e-300).ln() * mult).floor() as usize).min(31) as u8
            })
            .collect();
        let top = *levels.iter().max().expect("non-empty") as usize;
        let mut index = Self {
            levels,
            layers: (0..=top).map(|_| vec![Vec::new(); n]).collect(),
            entry: 0,
            max_level: 0,
        };
        let mut scratch = SearchScratch::new();
        index.max_level = index.levels[0] as usize;
        for id in 1..n as u32 {
            index.insert(vecs, id, &mut scratch);
        }
        index
    }

    /// Number of indexed elements.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when the index holds no elements (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    fn cap(&self, layer: usize) -> usize {
        if layer == 0 {
            M * 2
        } else {
            M
        }
    }

    fn insert(&mut self, vecs: &impl VectorSource, id: u32, scratch: &mut SearchScratch) {
        let level = self.levels[id as usize] as usize;
        let q = vecs.vector(id);
        let mut ep = self.entry;
        // Greedy descent through layers above the element's top layer.
        for l in ((level + 1)..=self.max_level).rev() {
            ep = self.greedy_step(vecs, q, ep, l);
        }
        // Beam search and bidirectional linking on the element's layers.
        for l in (0..=level.min(self.max_level)).rev() {
            self.search_layer(vecs, q, ep, EF_CONSTRUCTION, l, scratch);
            ep = scratch.out.first().map_or(ep, |s| s.id);
            let chosen = select_neighbors(vecs, &mut scratch.out, self.cap(l));
            for &nb in &chosen {
                self.layers[l][id as usize].push(nb);
                self.layers[l][nb as usize].push(id);
                self.prune(vecs, nb, l, &mut scratch.out);
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
    }

    /// Re-selects `node`'s neighbor list on `layer` down to its cap using
    /// the same diversity heuristic as insertion, scoring the current list
    /// into `candidates` (a reused buffer).
    fn prune(
        &mut self,
        vecs: &impl VectorSource,
        node: u32,
        layer: usize,
        candidates: &mut Vec<Scored>,
    ) {
        let cap = self.cap(layer);
        let list = &self.layers[layer][node as usize];
        if list.len() <= cap {
            return;
        }
        let v = vecs.vector(node);
        candidates.clear();
        candidates.extend(list.iter().map(|&nb| Scored {
            sim: dot_unit(v, vecs.vector(nb)),
            id: nb,
        }));
        self.layers[layer][node as usize] = select_neighbors(vecs, candidates, cap);
    }

    /// One greedy hill-climb on `layer` starting from `ep`.
    fn greedy_step(&self, vecs: &impl VectorSource, q: &[f32], mut ep: u32, layer: usize) -> u32 {
        let mut best = dot_unit(q, vecs.vector(ep));
        loop {
            let mut improved = false;
            for &nb in &self.layers[layer][ep as usize] {
                let sim = dot_unit(q, vecs.vector(nb));
                if sim > best {
                    best = sim;
                    ep = nb;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Best-first beam search on one layer; leaves up to `ef` results in
    /// `scratch.out`, sorted most-similar first.
    fn search_layer(
        &self,
        vecs: &impl VectorSource,
        q: &[f32],
        ep: u32,
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
    ) {
        scratch.begin(self.len());
        scratch.first_visit(ep);
        let seed = Scored {
            sim: dot_unit(q, vecs.vector(ep)),
            id: ep,
        };
        scratch.frontier.push(seed);
        scratch.beam.push(std::cmp::Reverse(seed));
        while let Some(c) = scratch.frontier.pop() {
            let worst = scratch.beam.peek().expect("beam non-empty").0.sim;
            if c.sim < worst && scratch.beam.len() >= ef {
                break;
            }
            for &nb in &self.layers[layer][c.id as usize] {
                if !scratch.first_visit(nb) {
                    continue;
                }
                let sim = dot_unit(q, vecs.vector(nb));
                let worst = scratch.beam.peek().expect("beam non-empty").0.sim;
                if scratch.beam.len() < ef || sim > worst {
                    let s = Scored { sim, id: nb };
                    scratch.frontier.push(s);
                    scratch.beam.push(std::cmp::Reverse(s));
                    if scratch.beam.len() > ef {
                        scratch.beam.pop();
                    }
                }
            }
        }
        scratch.drain_beam_sorted();
    }

    /// Re-indexes element `id` after its vector changed in place: unlinks
    /// it from every layer it lives on, then re-inserts it at its original
    /// level against the *current* contents of `vecs`. This is the delta
    /// counterpart of [`HnswIndex::build`] — re-inserting a handful of
    /// drifted rows costs `O(dirty · ef · M · log n)` where a rebuild costs
    /// that for *every* element.
    ///
    /// The level assignment is kept (it is a property of the id, not the
    /// vector), so repeated updates never degrade the layer distribution.
    pub fn update_row(&mut self, vecs: &impl VectorSource, id: u32, scratch: &mut SearchScratch) {
        assert_eq!(vecs.len(), self.len(), "vector set changed size");
        assert!((id as usize) < self.len(), "id out of range");
        if self.len() <= 1 {
            return; // a single element has no adjacency to fix
        }
        // Unlink: drop the element's own lists and every backlink to it.
        let level = self.levels[id as usize] as usize;
        for l in 0..=level.min(self.layers.len() - 1) {
            let old = std::mem::take(&mut self.layers[l][id as usize]);
            for nb in old {
                self.layers[l][nb as usize].retain(|&x| x != id);
            }
        }
        // If the element was the entry point, hand the role to the
        // highest-leveled other element before descending through it.
        if self.entry == id {
            let mut best = if id == 0 { 1u32 } else { 0u32 };
            for (i, &lv) in self.levels.iter().enumerate() {
                let i = i as u32;
                if i != id && lv > self.levels[best as usize] {
                    best = i;
                }
            }
            self.entry = best;
            self.max_level = self.levels[best as usize] as usize;
        }
        self.insert(vecs, id, scratch);
    }

    /// Top-`k` most similar elements to the unit vector `q`, most similar
    /// first, as `(local id, similarity)`. `ef_override` widens/narrows
    /// the layer-0 beam (`None` = a beam of 64).
    pub fn search(
        &self,
        vecs: &impl VectorSource,
        q: &[f32],
        k: usize,
        ef_override: Option<usize>,
        scratch: &mut SearchScratch,
    ) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let ef = ef_override.unwrap_or(EF_SEARCH).max(k);
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            ep = self.greedy_step(vecs, q, ep, l);
        }
        self.search_layer(vecs, q, ep, ef, 0, scratch);
        scratch.out.iter().take(k).map(|s| (s.id, s.sim)).collect()
    }
}

/// Graph equality (levels, adjacency, entry), for determinism tests.
#[cfg(test)]
impl PartialEq for HnswIndex {
    fn eq(&self, other: &Self) -> bool {
        self.levels == other.levels
            && self.layers == other.layers
            && self.entry == other.entry
            && self.max_level == other.max_level
    }
}

/// Diverse neighbor selection (Malkov & Yashunin, Algorithm 4): walking
/// candidates best-first, keep one only if it is more similar to the
/// target than to every neighbor already kept, then backfill remaining
/// slots with the best rejected candidates (`keepPrunedConnections`).
///
/// Plain "keep the cap most similar" disconnects clustered data — every
/// edge bridging two clusters gets pruned in favor of intra-cluster edges
/// and whole clusters become unreachable from the entry point. The
/// diversity condition keeps exactly those bridges.
///
/// Sorts and dedups `candidates` in place.
fn select_neighbors(
    vecs: &impl VectorSource,
    candidates: &mut Vec<Scored>,
    cap: usize,
) -> Vec<u32> {
    candidates.sort_by(|a, b| b.cmp(a));
    candidates.dedup_by_key(|s| s.id);
    let mut kept: Vec<u32> = Vec::with_capacity(cap);
    let mut rejected: Vec<u32> = Vec::new();
    for &c in candidates.iter() {
        if kept.len() >= cap {
            break;
        }
        let cv = vecs.vector(c.id);
        let diverse = kept.iter().all(|&r| dot_unit(cv, vecs.vector(r)) < c.sim);
        if diverse {
            kept.push(c.id);
        } else {
            rejected.push(c.id);
        }
    }
    for id in rejected {
        if kept.len() >= cap {
            break;
        }
        kept.push(id);
    }
    kept
}

/// Exact top-`k` by linear scan over `vecs` — the brute-force reference
/// the ANN path is measured against, sharing the same [`dot_unit`] kernel.
pub fn exact_top_k(
    vecs: &impl VectorSource,
    q: &[f32],
    k: usize,
    scratch: &mut SearchScratch,
) -> Vec<(u32, f64)> {
    if k == 0 || vecs.is_empty() {
        return Vec::new();
    }
    scratch.beam.clear();
    for i in 0..vecs.len() as u32 {
        let s = Scored {
            sim: dot_unit(q, vecs.vector(i)),
            id: i,
        };
        if scratch.beam.len() < k {
            scratch.beam.push(std::cmp::Reverse(s));
        } else if s > scratch.beam.peek().expect("non-empty").0 {
            scratch.beam.pop();
            scratch.beam.push(std::cmp::Reverse(s));
        }
    }
    scratch.drain_beam_sorted();
    scratch.out.iter().map(|s| (s.id, s.sim)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::clustered_unit_vectors as clustered;

    #[test]
    fn exact_top_k_is_sorted_and_correct() {
        let vecs = clustered(200, 16, 10, 1);
        let mut scratch = SearchScratch::new();
        let q = vecs.vector(7).to_vec();
        let top = exact_top_k(&vecs, &q, 5, &mut scratch);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].0, 7, "a vector's own nearest neighbor is itself");
        assert!((top[0].1 - 1.0).abs() < 1e-5);
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn hnsw_matches_exact_on_small_sets() {
        let vecs = clustered(300, 16, 12, 2);
        let index = HnswIndex::build(&vecs);
        let mut scratch = SearchScratch::new();
        for probe in [0u32, 33, 150, 299] {
            let q = vecs.vector(probe).to_vec();
            let ann = index.search(&vecs, &q, 5, Some(300), &mut scratch);
            let exact = exact_top_k(&vecs, &q, 5, &mut scratch);
            // With ef >= n the beam covers the reachable graph; top-1 must
            // be the probe itself.
            assert_eq!(ann[0].0, probe);
            assert_eq!(ann[0].0, exact[0].0);
        }
    }

    #[test]
    fn hnsw_recall_on_clustered_vectors() {
        let vecs = clustered(3000, 32, 60, 3);
        let index = HnswIndex::build(&vecs);
        let mut scratch = SearchScratch::new();
        let mut hit = 0usize;
        let mut total = 0usize;
        for probe in (0..3000u32).step_by(61) {
            let q = vecs.vector(probe).to_vec();
            let ann: Vec<u32> = index
                .search(&vecs, &q, 10, None, &mut scratch)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            let exact: Vec<u32> = exact_top_k(&vecs, &q, 10, &mut scratch)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            total += exact.len();
            hit += exact.iter().filter(|i| ann.contains(i)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.95, "recall@10 = {recall:.3}");
    }

    #[test]
    fn builds_are_deterministic() {
        let vecs = clustered(500, 16, 20, 4);
        let a = HnswIndex::build(&vecs);
        let b = HnswIndex::build(&vecs);
        let mut scratch = SearchScratch::new();
        let q = vecs.vector(123).to_vec();
        assert_eq!(
            a.search(&vecs, &q, 10, None, &mut scratch),
            b.search(&vecs, &q, 10, None, &mut scratch)
        );
    }

    #[test]
    fn single_element_index_works() {
        let vecs = clustered(1, 8, 1, 5);
        let index = HnswIndex::build(&vecs);
        let mut scratch = SearchScratch::new();
        let q = vecs.vector(0).to_vec();
        let top = index.search(&vecs, &q, 3, None, &mut scratch);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, 0);
    }

    #[test]
    fn update_row_tracks_a_moved_vector() {
        let mut vecs = clustered(800, 16, 10, 7);
        let mut index = HnswIndex::build(&vecs);
        let mut scratch = SearchScratch::new();
        // Move element 5 on top of element 700 (a different cluster).
        let dest = vecs.vector(700).to_vec();
        vecs.set(5, &dest);
        index.update_row(&vecs, 5, &mut scratch);
        let top: Vec<u32> = index
            .search(&vecs, &dest, 5, Some(200), &mut scratch)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(top.contains(&5), "moved element reachable at its new home");
        assert!(top.contains(&700));
        // The stale neighborhood no longer surfaces it.
        let old_home = vecs.vector(15).to_vec(); // same original cluster as 5
        let near_old: Vec<u32> = index
            .search(&vecs, &old_home, 10, Some(200), &mut scratch)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(!near_old.contains(&5));
    }

    #[test]
    fn update_row_on_the_entry_point_keeps_the_index_searchable() {
        let vecs = clustered(300, 16, 6, 8);
        let mut index = HnswIndex::build(&vecs);
        let mut scratch = SearchScratch::new();
        let entry = index.entry;
        index.update_row(&vecs, entry, &mut scratch);
        for probe in [0u32, 99, 299] {
            let q = vecs.vector(probe).to_vec();
            let top = index.search(&vecs, &q, 3, Some(300), &mut scratch);
            assert_eq!(top[0].0, probe, "entry handoff broke reachability");
        }
    }

    #[test]
    fn updated_index_keeps_recall_against_exact() {
        let mut vecs = clustered(2000, 32, 40, 9);
        let mut index = HnswIndex::build(&vecs);
        let mut scratch = SearchScratch::new();
        let mut rng = StdRng::seed_from_u64(10);
        // Drift 2% of the elements to random other clusters.
        for _ in 0..40 {
            let id = rng.random_range(0..2000u32);
            let src = rng.random_range(0..2000u32);
            let moved: Vec<f32> = vecs.vector(src).to_vec();
            vecs.set(id, &moved);
            index.update_row(&vecs, id, &mut scratch);
        }
        let mut hit = 0usize;
        let mut total = 0usize;
        for probe in (0..2000u32).step_by(67) {
            let q = vecs.vector(probe).to_vec();
            let ann: Vec<u32> = index
                .search(&vecs, &q, 10, None, &mut scratch)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            let exact: Vec<u32> = exact_top_k(&vecs, &q, 10, &mut scratch)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            total += exact.len();
            hit += exact.iter().filter(|i| ann.contains(i)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.9, "post-update recall@10 = {recall:.3}");
    }

    #[test]
    fn scratch_reuse_is_clean_across_queries() {
        let vecs = clustered(400, 16, 8, 6);
        let index = HnswIndex::build(&vecs);
        let mut scratch = SearchScratch::new();
        let first = {
            let q = vecs.vector(11).to_vec();
            index.search(&vecs, &q, 5, None, &mut scratch)
        };
        // Interleave a different query, then repeat the first.
        let q2 = vecs.vector(250).to_vec();
        let _ = index.search(&vecs, &q2, 5, None, &mut scratch);
        let q = vecs.vector(11).to_vec();
        assert_eq!(index.search(&vecs, &q, 5, None, &mut scratch), first);
    }
}
