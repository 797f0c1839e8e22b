//! `actor-par` — deterministic scoped-thread data parallelism: the one
//! thread driver of the workspace.
//!
//! Three kinds of work run on it:
//!
//! * **Preprocessing** — hotspot detection, co-occurrence counting,
//!   alias/negative-table construction, meta-graph instance counting —
//!   through the combinators [`par_map_chunks`], [`par_map`] and
//!   [`par_accumulate`], with the worker count from [`threads`].
//! * **Serving snapshots** — `serve::Snapshot::build` builds one HNSW
//!   graph per indexed modality through [`par_map`].
//! * **SGD training** — the ACTOR trainer, LINE and the walk/edge
//!   baselines — through [`run_seeded`], which splits a sample budget
//!   over an explicit thread count and hands each shard its own seeded
//!   RNG (Hogwild-style: shards race benignly on shared embeddings).
//!   Within a shard, [`pipeline`] lets the ACTOR trainer draw round
//!   `r + 1` on a helper thread while the shard applies round `r`.
//!
//! Both share one contract:
//!
//! * **Deterministic shard boundaries** — [`shards`] cuts `len` items into
//!   contiguous ranges whose sizes differ by at most one.
//! * **Per-shard seeds** — [`shard_seed`] derives shard `s`'s stream from
//!   a base seed by a golden-ratio multiple, so shards stay decorrelated
//!   yet exactly reproducible.
//! * **`ACTOR_THREADS` override** — [`threads`] resolves the
//!   preprocessing worker count from the programmatic override, then the
//!   `ACTOR_THREADS` environment variable, then the machine's available
//!   parallelism. Training thread counts are explicit arguments instead.
//!
//! The central correctness requirement of the parallel front-end is that
//! **parallel output is bit-identical to serial output** for any thread
//! count: callers must combine per-shard results with an order-canonical
//! merge (shard 0 first, then shard 1, …), never first-writer-wins. The
//! combinators here hand results back in shard order to make that the
//! path of least resistance; `tests/parallel_determinism.rs` at the
//! workspace root holds the pipeline to it.
//!
//! All spawning uses `std::thread::scope`, so borrowed inputs need no
//! `'static` bounds. Shard 0 runs on the calling thread, and a panicking
//! shard is re-raised on the caller with the shard named.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Mutex, MutexGuard};

use rand::{rngs::StdRng, SeedableRng};

/// Environment variable overriding the preprocessing thread count.
pub const ENV_THREADS: &str = "ACTOR_THREADS";

/// Golden-ratio multiplier of the per-shard seed derivation.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Programmatic thread-count override (0 = unset). Takes precedence over
/// the environment; set through [`override_threads`] only.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Admits one override holder at a time, so concurrently running
/// tests/benches cannot observe each other's thread counts.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Worker threads for parallel preprocessing: the [`override_threads`]
/// guard if one is live, else a positive integer `ACTOR_THREADS`, else the
/// machine's available parallelism (1 when unknown).
pub fn threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var(ENV_THREADS) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// RAII guard of a programmatic thread-count override; dropping it
/// restores the previous value. See [`override_threads`].
pub struct ThreadsOverride {
    prev: usize,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ThreadsOverride {
    fn drop(&mut self) {
        OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

/// Forces [`threads`] to return `n` until the guard drops. Guards are
/// process-global and serialized by an internal lock, so two tests that
/// both override block one another instead of racing; keep the guard's
/// scope tight. Panics if `n == 0`.
pub fn override_threads(n: usize) -> ThreadsOverride {
    assert!(n > 0, "thread override must be positive");
    let lock = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let prev = OVERRIDE.swap(n, Ordering::Relaxed);
    ThreadsOverride { prev, _lock: lock }
}

/// Cuts `0..len` into at most `n_shards` contiguous ranges whose sizes
/// differ by at most one, longer ranges first. Empty trailing shards are
/// not emitted: `shards(3, 8)` is three ranges of one item each.
/// `shards(0, n)` is empty. Panics if `n_shards == 0`.
pub fn shards(len: usize, n_shards: usize) -> Vec<Range<usize>> {
    assert!(n_shards > 0, "need at least one shard");
    let n = n_shards.min(len);
    let mut out = Vec::with_capacity(n);
    if len == 0 {
        return out;
    }
    let base = len / n;
    let extra = len % n;
    let mut start = 0;
    for s in 0..n {
        let size = base + usize::from(s < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// The deterministic RNG seed of `shard` under base `seed`: a golden-ratio
/// multiple mixed into the base, so shards derived from one seed stay
/// decorrelated yet exactly reproducible.
#[inline]
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ GOLDEN.wrapping_mul(shard as u64 + 1)
}

/// Runs `f(shard_index, range)` once per shard of `0..len` over at most
/// `n_shards` threads and returns the results in shard order.
///
/// Shard 0 runs on the calling thread (a one-shard region spawns
/// nothing). A panicking shard of a multi-shard region is re-raised here,
/// named (`par shard 2 of 4 panicked: …`); when several panic, the
/// lowest-numbered one is reported.
fn run_sharded<R, F>(len: usize, n_shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let ranges = shards(len, n_shards);
    let n = ranges.len();
    obs::counter("par.regions").incr();
    obs::histogram("par.shards").record(n as u64);
    match n {
        0 => Vec::new(),
        1 => vec![f(0, ranges.into_iter().next().expect("one shard"))],
        _ => std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = ranges[1..]
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let r = r.clone();
                    scope.spawn(move || f(i + 1, r))
                })
                .collect();
            let first = catch_unwind(AssertUnwindSafe(|| f(0, ranges[0].clone())));
            let joined = std::iter::once(first).chain(handles.into_iter().map(|h| h.join()));
            let mut out = Vec::with_capacity(n);
            for (s, result) in joined.enumerate() {
                match result {
                    Ok(v) => out.push(v),
                    Err(payload) => {
                        panic!("par shard {s} of {n} panicked: {}", detail(&*payload))
                    }
                }
            }
            out
        }),
    }
}

/// The message of a caught panic payload.
fn detail(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("<non-string panic payload>")
}

/// Buffers in flight between the two sides of a [`pipeline`]: one being
/// produced, one being consumed and one ready in between.
const PIPELINE_BUFFERS: usize = 3;

/// Runs `rounds` rounds as a two-stage pipeline: `produce(r, buf)` fills
/// round `r`'s buffer on a helper thread while the calling thread runs
/// `consume(r, buf)` on earlier rounds. Rounds are consumed in production
/// order, so the pair behaves exactly like the serial loop
/// `for r in 0..rounds { produce(r, buf); consume(r, buf) }` whenever
/// `produce` reads nothing that `consume` writes.
///
/// Three buffers from `T::default()` circulate through two bounded
/// channels and are recycled, never re-created: a buffer arrives at
/// `produce` holding an earlier round's contents, so `produce` clears what
/// it reuses, and a producer that keeps its buffers' capacity allocates
/// nothing after the first rounds. Zero rounds spawn nothing.
///
/// A panic on either side is re-raised here, naming the side
/// (`par pipeline producer panicked: …`); the other side sees its channel
/// close and stops, so neither waits forever. Panics if both sides panic,
/// naming the producer.
pub fn pipeline<T, P, C>(rounds: u64, mut produce: P, mut consume: C)
where
    T: Default + Send,
    P: FnMut(u64, &mut T) + Send,
    C: FnMut(u64, &mut T),
{
    if rounds == 0 {
        return;
    }
    std::thread::scope(|scope| {
        let (full_tx, full_rx) = sync_channel::<T>(PIPELINE_BUFFERS);
        let (empty_tx, empty_rx) = sync_channel::<T>(PIPELINE_BUFFERS);
        for _ in 0..PIPELINE_BUFFERS {
            empty_tx.send(T::default()).expect("receiver is live");
        }
        let producer = scope.spawn(move || {
            for r in 0..rounds {
                // A closed channel means the consumer stopped (it panicked).
                let Ok(mut buf) = empty_rx.recv() else { return };
                produce(r, &mut buf);
                if full_tx.send(buf).is_err() {
                    return;
                }
            }
        });
        // The consumer owns its channel ends, so an unwinding consumer
        // drops them and the producer's next send or receive fails.
        let consumed = catch_unwind(AssertUnwindSafe(move || {
            for r in 0..rounds {
                // A closed channel means the producer stopped (it panicked).
                let Ok(mut buf) = full_rx.recv() else { return };
                consume(r, &mut buf);
                // The producer may already have finished its last round.
                let _ = empty_tx.send(buf);
            }
        }));
        if let Err(payload) = producer.join() {
            panic!("par pipeline producer panicked: {}", detail(&*payload));
        }
        if let Err(payload) = consumed {
            panic!("par pipeline consumer panicked: {}", detail(&*payload));
        }
    });
}

/// Splits `samples` units of seeded work over `n_threads` shards (see
/// [`shards`]) and returns each shard's `f(rng, shard_samples)` in shard
/// order. This drives every SGD trainer.
///
/// A one-thread run seeds its RNG from `seed` itself; with more threads,
/// shard `s` uses [`shard_seed`]`(seed, s)`. Single-threaded runs are
/// therefore exactly reproducible per seed; multi-threaded runs race
/// benignly on shared embedding matrices (the Hogwild contract of
/// `embed::store::Matrix`). A budget smaller than `n_threads` runs only
/// `samples` shards of one sample each, and a zero budget runs nothing.
///
/// Panics if `n_threads == 0`, or if a shard panics (re-raised naming
/// the shard, like every combinator here).
pub fn run_seeded<R, F>(n_threads: usize, samples: u64, seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut StdRng, u64) -> R + Sync,
{
    let len = usize::try_from(samples).expect("sample budget exceeds usize");
    run_sharded(len, n_threads, |s, range| {
        let seed = if n_threads == 1 {
            seed
        } else {
            shard_seed(seed, s)
        };
        f(&mut StdRng::seed_from_u64(seed), range.len() as u64)
    })
}

/// Maps contiguous chunks of `items` in parallel: `f(shard_index, chunk)`
/// runs once per shard, results return in shard order. The chunk of shard
/// `s` is exactly `&items[shards(items.len(), k)[s]]` for the resolved
/// shard count `k` — deterministic boundaries, order-canonical results.
pub fn par_map_chunks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    run_sharded(items.len(), threads(), |s, range| f(s, &items[range]))
}

/// Maps every item of `items` in parallel, preserving item order:
/// `out[i] == f(i, &items[i])`. A convenience over [`par_map_chunks`] for
/// small lists of independent heavyweight jobs (per-edge-type CSR, alias
/// and negative tables).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_sharded(items.len(), threads(), |_, range| {
        range.map(|i| f(i, &items[i])).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Sharded accumulate-then-merge reduction: each shard folds its items
/// into a fresh accumulator from `init`, then the per-shard accumulators
/// are merged **in shard order** on the calling thread.
///
/// This is the order-canonical replacement for a mutex-guarded shared
/// accumulator: as long as `merge` is associative over the values `fold`
/// produces (integer-valued `f64` co-occurrence counts are — their
/// addition is exact), the result is bit-identical for every thread
/// count, including 1.
pub fn par_accumulate<T, A, I, F, M>(items: &[T], init: I, fold: F, mut merge: M) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, &T) + Sync,
    M: FnMut(&mut A, A),
{
    let mut accs = run_sharded(items.len(), threads(), |_, range| {
        let mut acc = init();
        for i in range {
            fold(&mut acc, i, &items[i]);
        }
        acc
    })
    .into_iter();
    let mut total = accs.next().unwrap_or_else(&init);
    for acc in accs {
        merge(&mut total, acc);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn shards_cover_and_balance() {
        for len in [0usize, 1, 2, 7, 8, 9, 100, 1003] {
            for n in [1usize, 2, 3, 8, 64] {
                let s = shards(len, n);
                assert!(s.len() <= n);
                let total: usize = s.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} n={n}");
                // Contiguous and ascending.
                let mut expect = 0;
                for r in &s {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                // Balanced to within one item.
                if let (Some(max), Some(min)) = (
                    s.iter().map(|r| r.len()).max(),
                    s.iter().map(|r| r.len()).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn shards_put_the_remainder_first() {
        // 1003 over 4: base 250, and the first 3 shards take one extra.
        let s = shards(1003, 4);
        assert_eq!(
            s.iter().map(|r| r.len()).collect::<Vec<_>>(),
            vec![251, 251, 251, 250]
        );
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        shards(10, 0);
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..16).map(|s| shard_seed(42, s)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        assert_eq!(
            seeds,
            (0..16).map(|s| shard_seed(42, s)).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn par_map_chunks_is_order_canonical() {
        let _guard = override_threads(4);
        let items: Vec<u32> = (0..100).collect();
        let sums = par_map_chunks(&items, |_, chunk| chunk.iter().sum::<u32>());
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<u32>(), (0..100).sum::<u32>());
        // Shard order: shard 0 holds the smallest items.
        assert!(sums[0] < sums[3]);
    }

    #[test]
    fn par_map_preserves_item_order() {
        let _guard = override_threads(3);
        let items: Vec<usize> = (0..17).collect();
        let doubled = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..17).map(|x| x * 2).collect::<Vec<usize>>());
    }

    #[test]
    fn par_accumulate_merges_in_shard_order() {
        let items: Vec<u64> = (0..1000).collect();
        let count = |n_threads: usize| -> HashMap<u64, f64> {
            let _guard = override_threads(n_threads);
            par_accumulate(
                &items,
                HashMap::new,
                |acc, _, &x| *acc.entry(x % 7).or_insert(0.0) += 1.0,
                |total, acc| {
                    for (k, v) in acc {
                        *total.entry(k).or_insert(0.0) += v;
                    }
                },
            )
        };
        let serial = count(1);
        for n in [2, 3, 8] {
            assert_eq!(count(n), serial, "{n} threads");
        }
    }

    #[test]
    fn empty_input_yields_empty_or_init() {
        let empty: [u8; 0] = [];
        assert!(par_map_chunks(&empty, |_, c: &[u8]| c.len()).is_empty());
        assert!(par_map(&empty, |_, &x| x).is_empty());
        let none: Vec<()> = par_map_chunks(&empty, |_, _| panic!("must not run"));
        assert!(none.is_empty());
        let acc = par_accumulate(&empty, || 7u32, |_, _, _| {}, |a, b| *a += b);
        assert_eq!(acc, 7);
    }

    #[test]
    fn override_guard_restores_previous_value() {
        {
            let _a = override_threads(5);
            assert_eq!(threads(), 5);
        }
        // Guard dropped: back to the environment/machine default, which is
        // at least 1 and not necessarily 5.
        assert!(threads() >= 1);
    }

    #[test]
    fn seeded_shards_cover_the_budget() {
        assert_eq!(run_seeded(4, 1003, 1, |_, n| n), vec![251, 251, 251, 250]);
        assert_eq!(run_seeded(1, 17, 2, |_, n| n), vec![17]);
    }

    #[test]
    fn small_budgets_run_only_non_empty_shards() {
        assert_eq!(run_seeded(8, 3, 5, |_, n| n), vec![1, 1, 1]);
        assert!(run_seeded(4, 0, 9, |_, n| n).is_empty());
    }

    #[test]
    fn one_thread_uses_the_base_seed_and_shards_use_shard_seeds() {
        use rand::Rng;
        let first_draw = |seed: u64| StdRng::seed_from_u64(seed).random::<u64>();
        assert_eq!(
            run_seeded(1, 5, 7, |rng, _| rng.random::<u64>()),
            vec![first_draw(7)]
        );
        let draws = run_seeded(3, 3, 7, |rng, _| rng.random::<u64>());
        let expected: Vec<u64> = (0..3).map(|s| first_draw(shard_seed(7, s))).collect();
        assert_eq!(draws, expected);
    }

    #[test]
    fn thread_rngs_differ() {
        use rand::Rng;
        let d = run_seeded(3, 3, 7, |rng, _| rng.random::<u64>());
        assert_eq!(d.len(), 3);
        assert_ne!(d[0], d[1]);
        assert_ne!(d[1], d[2]);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        run_seeded(0, 10, 0, |_, _| {});
    }

    fn panic_message(result: std::thread::Result<()>) -> String {
        let payload = result.unwrap_err();
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn shard_panic_is_reraised_with_context() {
        for failing in [0, 2] {
            let msg = panic_message(std::panic::catch_unwind(|| {
                let _guard = override_threads(4);
                par_map_chunks(&[0u8; 100], |s, _| {
                    if s == failing {
                        panic!("shard data corrupt");
                    }
                });
            }));
            assert!(
                msg.contains(&format!("par shard {failing} of 4 panicked")),
                "{msg}"
            );
            assert!(msg.contains("shard data corrupt"), "{msg}");
        }
    }

    #[test]
    fn pipeline_consumes_rounds_in_production_order() {
        let mut seen = Vec::new();
        pipeline(
            100,
            |r, buf: &mut Vec<u64>| {
                buf.clear();
                buf.extend([r, r * r]);
            },
            |r, buf| {
                assert_eq!(*buf, [r, r * r]);
                seen.push(r);
            },
        );
        assert_eq!(seen, (0..100).collect::<Vec<u64>>());
        pipeline(
            0,
            |_, _: &mut Vec<u64>| panic!("must not run"),
            |_, _| panic!("must not run"),
        );
    }

    #[test]
    fn pipeline_recycles_its_buffers() {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        struct Buf(Vec<u64>);
        impl Default for Buf {
            fn default() -> Self {
                CREATED.fetch_add(1, Ordering::Relaxed);
                Self(Vec::new())
            }
        }
        pipeline(
            500,
            |r, buf: &mut Buf| {
                // Past the first rounds a buffer comes back with an
                // earlier round's contents.
                assert_eq!(buf.0.is_empty(), r < PIPELINE_BUFFERS as u64, "round {r}");
                buf.0.clear();
                buf.0.push(r);
            },
            |r, buf| assert_eq!(buf.0, [r]),
        );
        assert_eq!(CREATED.load(Ordering::Relaxed), PIPELINE_BUFFERS);
    }

    #[test]
    fn pipeline_panics_are_reraised_with_the_side_named() {
        for (side, round) in [
            ("producer", 0),
            ("producer", 7),
            ("consumer", 0),
            ("consumer", 7),
        ] {
            let msg = panic_message(std::panic::catch_unwind(|| {
                pipeline(
                    1000,
                    |r, _: &mut Vec<u8>| {
                        if side == "producer" && r == round {
                            panic!("draw {r} failed");
                        }
                    },
                    |r, _| {
                        if side == "consumer" && r == round {
                            panic!("draw {r} failed");
                        }
                    },
                );
            }));
            assert!(
                msg.contains(&format!(
                    "par pipeline {side} panicked: draw {round} failed"
                )),
                "{msg}"
            );
        }
    }

    #[test]
    fn two_concurrent_shard_panics_report_the_lowest_shard() {
        use std::sync::Barrier;
        // Both shards reach the barrier, then panic together; the driver
        // must re-raise the lowest-numbered one deterministically.
        let barrier = Barrier::new(2);
        let msg = panic_message(std::panic::catch_unwind(|| {
            let _guard = override_threads(4);
            par_map_chunks(&[0u8; 100], |s, _| {
                if s == 1 || s == 3 {
                    barrier.wait();
                    panic!("shard {s} corrupt");
                }
            });
        }));
        assert!(msg.contains("par shard 1 of 4 panicked"), "{msg}");
        assert!(msg.contains("shard 1 corrupt"), "{msg}");
    }
}
