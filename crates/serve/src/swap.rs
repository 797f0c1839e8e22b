//! Snapshot hot-swap: a brief lock per read, rare-path publishes.
//!
//! A publish (rebuilding an HNSW index takes milliseconds to seconds) must
//! never stall in-flight queries. The classic answer is `ArcSwap`; under
//! the zero-external-dependency rule this module keeps the same guarantee
//! with a plain mutex around the current `Arc<Snapshot>`:
//!
//! * A read locks the slot just long enough to clone the `Arc` — one
//!   brief lock plus one shared reference-count increment. Queries then
//!   run against their own `Arc` with no lock held.
//! * A publish builds its snapshot outside the lock and only swaps the
//!   pointer inside it, so readers never wait for an index build.
//! * The epoch also lives in an `AtomicU64`, so [`SnapshotCell::epoch`]
//!   never locks.
//!
//! A per-thread `(epoch, Arc)` cache could skip the lock, but it keeps a
//! snapshot of every cell a thread has read alive until that thread
//! exits, long after the cell is dropped.
//!
//! Readers hold a full `Arc` for the duration of a query, so a snapshot is
//! torn-free by construction: the publisher can never free or mutate what
//! a reader is using, and the old snapshot dies when the last in-flight
//! query drops it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::snapshot::Snapshot;

/// A hot-swappable slot holding the currently served [`Snapshot`].
pub struct SnapshotCell {
    /// Epoch of the snapshot in `slot`; written only while `slot`'s lock
    /// is held.
    epoch: AtomicU64,
    slot: Mutex<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// A cell initially serving `snapshot`.
    pub fn new(snapshot: Arc<Snapshot>) -> Self {
        Self {
            epoch: AtomicU64::new(snapshot.epoch()),
            slot: Mutex::new(snapshot),
        }
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot.
    pub fn load(&self) -> Arc<Snapshot> {
        // The guarded value is a bare `Arc`, always whole, so a poisoned
        // lock is safe to read through.
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publishes `snapshot` (whose epoch must exceed the current one) and
    /// makes it visible to all subsequent `load`s. In-flight readers keep
    /// the snapshot they already hold.
    pub fn store(&self, snapshot: Arc<Snapshot>) {
        let mut guard = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(
            snapshot.epoch() > self.epoch.load(Ordering::Relaxed),
            "epochs must increase monotonically"
        );
        self.epoch.store(snapshot.epoch(), Ordering::Release);
        *guard = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::IndexParams;
    use actor_core::ActorConfig;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    fn fitted_model() -> actor_core::TrainedModel {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(41)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        actor_core::fit(&corpus, &split.train, &ActorConfig::fast())
            .unwrap()
            .0
    }

    #[test]
    fn load_returns_the_published_snapshot() {
        let model = fitted_model();
        let a = Arc::new(Snapshot::build(&model, &IndexParams::default(), 1));
        let cell = SnapshotCell::new(a.clone());
        assert!(Arc::ptr_eq(&cell.load(), &a));
        assert_eq!(cell.epoch(), 1);

        let b = Arc::new(Snapshot::build(&model, &IndexParams::default(), 2));
        cell.store(b.clone());
        assert!(Arc::ptr_eq(&cell.load(), &b));
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn a_dropped_cell_releases_its_snapshot() {
        let model = crate::testkit::synthetic_model(50, 8, 1);
        let weak: Vec<_> = (0..5)
            .map(|epoch| {
                let snap = Arc::new(Snapshot::build(&model, &IndexParams::default(), epoch + 1));
                let weak = Arc::downgrade(&snap);
                let cell = SnapshotCell::new(snap);
                drop(cell.load());
                weak
            })
            .collect();
        let alive = weak.iter().filter(|w| w.strong_count() > 0).count();
        assert_eq!(alive, 0, "{alive} of 5 snapshots outlived their cells");
    }

    #[test]
    fn concurrent_readers_always_see_a_whole_snapshot() {
        let model = fitted_model();
        let base = Arc::new(Snapshot::build(&model, &IndexParams::default(), 1));
        let cell = Arc::new(SnapshotCell::new(base));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = cell.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut last_epoch = 0;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let snap = cell.load();
                        // The pair (epoch tag, contents) is immutable once
                        // built; epochs observed never go backwards.
                        assert!(snap.epoch() >= last_epoch);
                        last_epoch = snap.epoch();
                    }
                });
            }
            let publisher = {
                let cell = cell.clone();
                let model = &model;
                s.spawn(move || {
                    for epoch in 2..40 {
                        let snap = Snapshot::build(model, &IndexParams::default(), epoch);
                        cell.store(Arc::new(snap));
                    }
                })
            };
            publisher.join().unwrap();
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(cell.epoch(), 39);
    }
}
