//! The SGD rounds of a fit allocate nothing once warmed up: doubling the
//! epoch count of a one-thread fit adds only a handful of allocations,
//! where one allocation per round would add hundreds.
//!
//! This binary holds a single test because the counting allocator sees
//! every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use actor_st::prelude::*;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn training_rounds_allocate_nothing_after_warm_up() {
    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(31)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    let allocations = |epochs: usize| -> (u64, u64) {
        let config = ActorConfig {
            max_epochs: epochs,
            threads: 1,
            ..ActorConfig::fast()
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (_, report) = fit(&corpus, &split.train, &config).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        let updates = report
            .telemetry
            .counters
            .iter()
            .find(|c| c.name == "core.train.updates")
            .map_or(0, |c| c.value);
        (after - before, updates)
    };
    // The first fit registers the telemetry names and thread-locals.
    allocations(5);
    let epochs = ActorConfig::fast().max_epochs;
    let (once, updates_once) = allocations(epochs);
    let (twice, updates_twice) = allocations(2 * epochs);
    let rounds = (epochs * ActorConfig::fast().batches_per_type) as u64;
    assert!(
        updates_twice > updates_once,
        "{updates_once} -> {updates_twice}"
    );
    assert!(
        twice <= once + 16,
        "{rounds} more rounds cost {} more allocations ({once} -> {twice})",
        twice.saturating_sub(once)
    );
}
