//! Parallel Monte-Carlo trial runner.
//!
//! The paper's guarantees are "with high probability" statements; the
//! experiments estimate them by running many independent seeded trials.
//! [`run_trials`] distributes trials across the workspace's
//! [`ShardPool`] while keeping results deterministic: trial `i` always
//! receives seed `base_seed + i` and lands at index `i` of the output.
//! [`run_trials_sequential`] is the single-threaded reference the tests
//! compare against. The 64-lane sweeps of `bfw_core::bit` run through
//! `run_trials` too, one trial per 64-lane group.

use crate::pool::ShardPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `trials` independent trials of `f` across `threads` worker
/// threads and returns the results in trial order.
///
/// `f` receives the trial's seed (`base_seed + trial_index`). Results
/// are deterministic: the same inputs produce the same output vector
/// regardless of thread interleaving.
///
/// Workers claim trial indices from a shared atomic counter (dynamic
/// load balancing — trial durations are heavy-tailed) and each collects
/// its `(index, result)` pairs in a thread-local `Vec`; the pairs are
/// merged into trial order after the scope joins. No per-trial lock is
/// taken.
///
/// # Panics
///
/// Panics if `threads == 0` or if `f` panics in any worker.
///
/// # Example
///
/// ```
/// use bfw_sim::run_trials;
///
/// let squares = run_trials(8, 4, 100, |seed| seed * seed);
/// assert_eq!(squares[3], 103 * 103);
/// ```
pub fn run_trials<R, F>(trials: usize, threads: usize, base_seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    assert!(threads > 0, "at least one worker thread is required");
    if trials == 0 {
        return Vec::new();
    }
    let threads = threads.min(trials);
    if threads == 1 {
        return run_trials_sequential(trials, base_seed, f);
    }
    let pool = ShardPool::new(threads);
    let next = AtomicUsize::new(0);
    let buckets: Vec<Mutex<Vec<(usize, R)>>> =
        (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    pool.run(|k| {
        let mut local = Vec::with_capacity(trials / threads + 1);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= trials {
                break;
            }
            local.push((i, f(base_seed + i as u64)));
        }
        *buckets[k].lock().expect("bucket lock is per-worker") = local;
    });
    let mut results: Vec<Option<R>> = (0..trials).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket.into_inner().expect("bucket lock is per-worker") {
            debug_assert!(results[i].is_none(), "trial {i} produced twice");
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every trial index is claimed exactly once"))
        .collect()
}

/// Sequential reference implementation of [`run_trials`] (same seeding,
/// same output order).
pub fn run_trials_sequential<R, F>(trials: usize, base_seed: u64, f: F) -> Vec<R>
where
    F: Fn(u64) -> R,
{
    (0..trials).map(|i| f(base_seed + i as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        let f = |seed: u64| seed.wrapping_mul(2654435761) % 1009;
        let seq = run_trials_sequential(100, 7, f);
        let par = run_trials(100, 8, 7, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_trials() {
        let out: Vec<u64> = run_trials(0, 4, 0, |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_path() {
        let out = run_trials(5, 1, 10, |s| s);
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn more_threads_than_trials() {
        let out = run_trials(3, 64, 0, |s| s * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn seeds_are_distinct_per_trial() {
        let out = run_trials(50, 4, 1000, |s| s);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
        assert_eq!(out, (1000..1050).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_panics() {
        let _ = run_trials(1, 0, 0, |s| s);
    }
}
