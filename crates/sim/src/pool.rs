//! Deterministic shard pool: the workspace's one way to fan work out
//! across `std::thread` workers.
//!
//! Both parallel call sites — the word-sharded [`BitEngine`] step and
//! the Monte-Carlo trial runner — reduce to the same shape: run
//! `job(k)` for every shard index `k`, where the job either owns a
//! disjoint slice of the data (engine sharding) or claims work items
//! from a shared atomic counter (the trial runner). [`ShardPool::run`]
//! is that shape. The pool never influences *what* a shard computes,
//! only *where* it computes, so any determinism argument reduces to the
//! job's own index discipline (disjoint word ranges and per-node RNG
//! streams for the engine; `base_seed + trial_index` for the runner).
//!
//! The workspace forbids `unsafe`, so workers are scoped
//! (`std::thread::scope`) per [`run`](ShardPool::run) call rather than
//! parked in a persistent pool: borrowed shard data crosses into the
//! workers without `'static` laundering, and the scope join is the
//! phase barrier. The calling thread executes shard 0 itself, so
//! `threads == 1` costs nothing — no spawn, no synchronization.
//!
//! [`BitEngine`]: crate::BitEngine

/// A reusable fan-out handle: `threads` shards per [`run`](Self::run).
///
/// # Example
///
/// ```
/// use bfw_sim::ShardPool;
/// use std::sync::Mutex;
///
/// let pool = ShardPool::new(4);
/// let data = Mutex::new(vec![0usize; 4]);
/// pool.run(|k| data.lock().unwrap()[k] = k * 10);
/// assert_eq!(*data.lock().unwrap(), vec![0, 10, 20, 30]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPool {
    threads: usize,
}

impl ShardPool {
    /// Creates a pool that fans each [`run`](Self::run) out over
    /// `threads` shards.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        ShardPool { threads }
    }

    /// Number of shards per run.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(k)` once for every shard `k` in `0..threads`, in
    /// parallel, and returns after all shards complete (the join is the
    /// barrier). Shard 0 runs on the calling thread; with one thread no
    /// worker is spawned at all.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any shard.
    pub fn run<F: Fn(usize) + Sync>(&self, job: F) {
        if self.threads == 1 {
            job(0);
            return;
        }
        let job = &job;
        std::thread::scope(|scope| {
            for k in 1..self.threads {
                scope.spawn(move || job(k));
            }
            job(0);
        });
    }
}

/// Splits the word range `0..words` into `shards` contiguous chunks of
/// near-equal size and returns their `(lo, hi)` bounds; chunks cover
/// the range exactly, in order, and the first `words % shards` chunks
/// are one word longer. Fewer than `shards` bounds come back when there
/// are fewer words than shards (empty chunks are dropped).
pub fn shard_bounds(words: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards > 0, "at least one shard is required");
    let shards = shards.min(words.max(1));
    let base = words / shards;
    let extra = words % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut lo = 0;
    for k in 0..shards {
        let len = base + usize::from(k < extra);
        if len == 0 {
            break;
        }
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_shard_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let pool = ShardPool::new(threads);
            let hits = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            pool.run(|k| {
                hits.fetch_add(1, Ordering::SeqCst);
                sum.fetch_add(k, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), threads);
            assert_eq!(sum.load(Ordering::SeqCst), threads * (threads - 1) / 2);
        }
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for words in [0usize, 1, 7, 64, 65, 1000] {
            for shards in [1usize, 2, 3, 7, 16] {
                let bounds = shard_bounds(words, shards);
                let mut expect_lo = 0;
                for &(lo, hi) in &bounds {
                    assert_eq!(lo, expect_lo, "words={words} shards={shards}");
                    assert!(hi > lo, "chunks are non-empty");
                    expect_lo = hi;
                }
                assert_eq!(expect_lo, words, "words={words} shards={shards}");
                assert!(bounds.len() <= shards);
                if words > 0 {
                    assert_eq!(bounds.len(), shards.min(words));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected() {
        let _ = ShardPool::new(0);
    }
}
