//! Sharded LRU cache over resolved requests.
//!
//! Real activity traffic is heavily repeated (the same landmarks, the
//! same commute hours), and many distinct raw requests ask the same
//! thing: every point in one spatial hotspot and every second in one
//! temporal hotspot resolves to that hotspot's node (§4.3). The key is
//! therefore the request as resolved against the serving snapshot — its
//! time node, location node and keywords — plus everything else that
//! changes the answer (k, modality mask, and the snapshot epoch, so a
//! hot-swap naturally invalidates: stale-epoch entries can no longer be
//! hit and age out of the LRU). The engine looks the key up before it
//! builds any query vector, so a hit costs a node lookup and a clone.
//!
//! Sharding by key hash keeps lock contention negligible: each shard is an
//! independent mutex around a hand-rolled intrusive-list LRU (`HashMap`
//! into a slab of doubly-linked entries — O(1) hit, insert, and evict).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mobility::KeywordId;
use stgraph::NodeId;

use crate::query::{ModalityMask, QueryResponse};

/// A request resolved against one snapshot: the graph nodes it observed
/// and the parameters that shape its answer. Two requests with equal keys
/// get the same answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Snapshot epoch the request was resolved under.
    pub epoch: u64,
    /// Requested k.
    pub k: usize,
    /// Requested modalities.
    pub modalities: ModalityMask,
    /// Temporal hotspot node of the observed second-of-day, if any.
    pub time: Option<NodeId>,
    /// Spatial hotspot node of the observed point, if any.
    pub place: Option<NodeId>,
    /// The observed keywords (each names one word node), in request order.
    pub words: Vec<KeywordId>,
}

impl CacheKey {
    fn hash64(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Slab slot index; `NONE` terminates the intrusive list.
const NONE: u32 = u32::MAX;

struct Entry {
    key: CacheKey,
    value: QueryResponse,
    prev: u32,
    next: u32,
}

/// One shard: a slab of entries threaded into an MRU→LRU list, plus a
/// key→slot map. Capacity is fixed at construction; eviction pops the
/// list tail.
struct Shard {
    map: HashMap<CacheKey, u32>,
    slab: Vec<Entry>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
            capacity,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let e = &self.slab[slot as usize];
            (e.prev, e.next)
        };
        match prev {
            NONE => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NONE => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let e = &mut self.slab[slot as usize];
            e.prev = NONE;
            e.next = old_head;
        }
        if old_head != NONE {
            self.slab[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<QueryResponse> {
        let slot = *self.map.get(key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.slab[slot as usize].value.clone())
    }

    fn insert(&mut self, key: CacheKey, value: QueryResponse) {
        if let Some(&slot) = self.map.get(&key) {
            // Refresh an existing entry in place.
            self.slab[slot as usize].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        let slot = if self.slab.len() < self.capacity {
            self.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NONE,
                next: NONE,
            });
            (self.slab.len() - 1) as u32
        } else {
            // Evict the LRU tail and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            let e = &mut self.slab[victim as usize];
            let old_key = std::mem::replace(&mut e.key, key.clone());
            e.value = value;
            self.map.remove(&old_key);
            victim
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NONE;
        self.tail = NONE;
    }
}

/// Locks a shard, reading through poison. A guard lives for one `Shard`
/// call, so poison means a `Shard` method itself panicked; the cache only
/// shortcuts answers the engine can recompute, so queries keep being
/// served rather than all failing on that shard.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sharded cache. Hit/miss totals are exported through `actor-obs`
/// (`serve.cache.hit` / `serve.cache.miss`) and mirrored in
/// [`QueryCache::hits`] / [`QueryCache::misses`] for per-engine stats.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    hit_counter: obs::Counter,
    miss_counter: obs::Counter,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl QueryCache {
    /// A cache of `capacity` total entries spread over `shards` shards
    /// (both floored to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (capacity.max(1)).div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hit_counter: obs::counter("serve.cache.hit"),
            miss_counter: obs::counter("serve.cache.miss"),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> MutexGuard<'_, Shard> {
        // High bits: DefaultHasher mixes well, and the map inside the
        // shard re-hashes the full key anyway.
        let h = key.hash64();
        lock(&self.shards[(h >> 32) as usize % self.shards.len()])
    }

    /// Looks up a cached answer, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<QueryResponse> {
        let got = self.shard_of(key).get(key);
        if got.is_some() {
            self.hit_counter.incr();
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        } else {
            self.miss_counter.incr();
            self.misses
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        got
    }

    /// Stores an answer (refreshing LRU position if the key exists).
    pub fn insert(&self, key: CacheKey, value: QueryResponse) {
        self.shard_of(&key).insert(key, value);
    }

    /// Drops every entry (used at publish time; epoch keying already
    /// prevents stale hits — clearing just returns the memory early).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock(shard).clear();
        }
    }

    /// Cache hits since construction (this engine only).
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Cache misses since construction (this engine only).
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(tag: u64) -> QueryResponse {
        QueryResponse {
            epoch: tag,
            from_cache: false,
            words: Vec::new(),
            times: Vec::new(),
            places: Vec::new(),
        }
    }

    fn key(epoch: u64, place: u32) -> CacheKey {
        CacheKey {
            epoch,
            k: 10,
            modalities: ModalityMask::ALL,
            time: None,
            place: Some(NodeId(place)),
            words: Vec::new(),
        }
    }

    #[test]
    fn hit_after_insert_and_epoch_isolation() {
        let cache = QueryCache::new(64, 4);
        assert!(cache.get(&key(1, 1)).is_none());
        cache.insert(key(1, 1), response(7));
        assert_eq!(cache.get(&key(1, 1)).unwrap().epoch, 7);
        // Same query under a newer epoch misses: hot-swap invalidates.
        assert!(cache.get(&key(2, 1)).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = QueryCache::new(2, 1); // single shard, two slots
        cache.insert(key(1, 1), response(1));
        cache.insert(key(1, 2), response(2));
        // Touch the first so the second becomes LRU.
        assert!(cache.get(&key(1, 1)).is_some());
        cache.insert(key(1, 3), response(3));
        assert!(cache.get(&key(1, 1)).is_some(), "recently used survives");
        assert!(cache.get(&key(1, 2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, 3)).is_some());
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = QueryCache::new(16, 4);
        for i in 0..8 {
            cache.insert(key(1, i as u32), response(i));
        }
        cache.clear();
        for i in 0..8 {
            assert!(cache.get(&key(1, i as u32)).is_none());
        }
    }

    #[test]
    fn insert_same_key_refreshes_value() {
        let cache = QueryCache::new(4, 1);
        cache.insert(key(1, 1), response(1));
        cache.insert(key(1, 1), response(2));
        assert_eq!(cache.get(&key(1, 1)).unwrap().epoch, 2);
    }

    #[test]
    fn concurrent_use_is_safe() {
        let cache = std::sync::Arc::new(QueryCache::new(128, 8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = key(1, ((t * 131 + i) % 50) as u32);
                        if cache.get(&k).is_none() {
                            cache.insert(k, response(i));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 2000);
    }
}
