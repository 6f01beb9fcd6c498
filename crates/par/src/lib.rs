//! Minimal deterministic data-parallel primitives for the ftclust
//! workspace.
//!
//! The build environment has no registry access, so instead of `rayon`
//! this crate provides the two fork-join primitives the workspace uses,
//! built entirely on [`std::thread::scope`] (no `unsafe`, no
//! dependencies):
//!
//! * [`par_map_range`] — map over an index range, with the results
//!   **always merged in index order**, so a parallel run returns exactly
//!   what the serial run returns (the experiments' trial fan-out),
//! * [`par_each_mut`] — one worker per item, for callers that resolved
//!   their thread count once and pre-split their work to match (the
//!   simulator's sharded node round),
//! * [`split_ranges`] — the canonical contiguous block partition, shared
//!   so every layer shards the same way.
//!
//! # Determinism contract
//!
//! Work is distributed as *contiguous blocks in index order* and results
//! are merged in the same order. As long as the per-item closure depends
//! only on its index and on state that is read-only during the call (the
//! discipline every caller in this workspace follows), the outcome is
//! **bit-for-bit identical** for every thread count, including the serial
//! fallback at one thread.
//!
//! # Thread-count selection
//!
//! [`num_threads`] resolves, in order: a scoped programmatic override
//! ([`with_threads`], used by tests and the perf baseline), the
//! `FTCLUST_THREADS` environment variable (a positive integer; anything
//! else is ignored), and finally [`std::thread::available_parallelism`].
//! At one thread [`par_map_range`] runs inline without spawning.
//!
//! Worker panics are re-raised on the calling thread with their original
//! payload once the scope has joined.

use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Scoped override installed by [`with_threads`] (0 = none).
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The worker count parallel primitives use on this thread.
///
/// Resolution order: [`with_threads`] override, then the
/// `FTCLUST_THREADS` environment variable (positive integers only —
/// malformed or zero values are ignored), then the machine's available
/// parallelism (1 if unknown).
#[expect(
    clippy::disallowed_methods,
    reason = "FTCLUST_THREADS is the workspace's one sanctioned environment read; the thread count never changes a result"
)]
pub fn num_threads() -> usize {
    let forced = OVERRIDE.with(Cell::get);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("FTCLUST_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` with [`num_threads`] forced to `threads` (minimum 1) on the
/// current thread, restoring the previous setting afterwards — also on
/// panic. Used by the determinism tests and the perf baseline to compare
/// thread counts within one process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(threads.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Splits `0..len` into at most `parts` contiguous, non-empty ranges of
/// near-equal size, in index order. Returns no ranges for `len == 0`.
///
/// This is the partition [`par_map_range`] uses; the simulator cuts its
/// node shards with it too, so all layers agree on the block boundaries.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Joins a worker, re-raising its panic payload on the calling thread.
fn join_unwinding<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Maps `f` over `0..len` in parallel, returning results in index order.
///
/// Equivalent to `(0..len).map(f).collect()` — and exactly that at one
/// thread.
pub fn par_map_range<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = num_threads();
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let ranges = split_ranges(len, threads);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| s.spawn(move || r.map(f).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        for h in handles {
            out.append(&mut join_unwinding(h));
        }
        out
    })
}

/// Calls `f(index, &mut item)` for every element, each on its own
/// worker (inline when there is at most one element).
///
/// For callers that already cut their work into one item per worker,
/// using a thread count they resolved once: unlike [`par_map_range`],
/// this reads no thread-count setting, so a hot loop calling it every
/// iteration touches neither the environment nor [`num_threads`].
pub fn par_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| s.spawn(move || f(i, item)))
            .collect();
        for h in handles {
            join_unwinding(h);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        with_threads(7, || {
            assert_eq!(num_threads(), 7);
            with_threads(2, || assert_eq!(num_threads(), 2));
            assert_eq!(num_threads(), 7);
        });
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let outer = num_threads();
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        with_threads(0, || assert_eq!(num_threads(), 1));
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for parts in [1usize, 2, 3, 7, 200] {
                let rs = split_ranges(len, parts);
                if len == 0 {
                    assert!(rs.is_empty());
                    continue;
                }
                assert!(rs.len() <= parts.max(1));
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, len);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Near-equal block sizes (difference at most 1).
                let sizes: Vec<usize> = rs.iter().map(ExactSizeIterator::len).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "len={len} parts={parts}: {sizes:?}");
                assert!(*lo >= 1);
            }
        }
    }

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1usize, 2, 3, 7, 64] {
            let ranged = with_threads(threads, || {
                par_map_range(items.len(), |i| items[i] * 3 + i as u64)
            });
            assert_eq!(ranged, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        assert_eq!(par_map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn par_each_mut_visits_every_item_once() {
        for len in [0usize, 1, 2, 5] {
            let mut data = vec![0usize; len];
            par_each_mut(&mut data, |i, slot| *slot += i + 1);
            assert_eq!(data, (1..=len).collect::<Vec<_>>(), "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "item worker exploded")]
    fn par_each_mut_panic_propagates() {
        let mut data = vec![0u8; 3];
        par_each_mut(&mut data, |i, _| assert!(i != 1, "item worker exploded"));
    }

    #[test]
    fn work_actually_lands_on_all_blocks() {
        // Not a scheduling guarantee — just checks the batching math hits
        // every element exactly once under contention.
        let counter = AtomicUsize::new(0);
        with_threads(8, || {
            par_map_range(10_000, |_| counter.fetch_add(1, Ordering::Relaxed))
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panic_propagates_with_payload() {
        with_threads(3, || {
            par_map_range(64, |i| {
                assert!(i != 17, "worker exploded");
                i
            })
        });
    }
}
