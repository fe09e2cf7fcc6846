//! Parallel-stepping + relabel floors for the word-sharded bit kernel.
//!
//! Two independent floors, matching the two halves of E21:
//!
//! 1. **Relabel gather** (unconditional): on `scrambled-cycle:100000:97`
//!    the RCM-relabeled plan (`WordGraph::build`) must beat the
//!    label-order plan (`build_no_relabel`) by at least 2× per
//!    `heard |= A·beeps` round. The scrambled labels force the plain
//!    plan onto the general edge stream while RCM recovers the banded
//!    order and plans word-wide ring rotations — measured locally at
//!    ~18×, so 2× is a deliberately conservative line that any host
//!    holds.
//! 2. **8-thread stepping** (host-conditional): on `cycle:1000000` the
//!    bit kernel at 8 worker threads must sustain at least 3× the
//!    single-thread rounds/second — but only where
//!    `available_parallelism` actually offers 8 cores. Starved runners
//!    print a skip line instead of a vacuous failure; the committed
//!    `BENCH_parallel.json` records `host_cores` for the same reason.
//!
//! Plain `Instant` timing with interleaved passes and a max estimator,
//! the `tick_scale` floor idiom: the loops are long enough that
//! statistical machinery would add more noise than it removes.

use bfw_core::{Bfw, BitNetwork};
use bfw_graph::{generators, GraphSpec, WordGraph};
use std::hint::black_box;
use std::time::Instant;

const RELABEL_N: usize = 100_000;
const RELABEL_ITERS: u32 = 100;
/// The relabel floor CI defends everywhere; measured ~18x locally.
const RELABEL_FLOOR: f64 = 2.0;

const STEP_N: usize = 1_000_000;
const STEP_ROUNDS: u64 = 100;
const STEP_THREADS: usize = 8;
/// The 8-thread floor, defended only on hosts with >= 8 cores.
const STEP_FLOOR: f64 = 3.0;

/// Nanoseconds per `heard |= A·beeps` round on one plan.
fn gather_ns(plan: &WordGraph, src: &[u64], iters: u32) -> f64 {
    let mut dst = vec![0u64; plan.words()];
    let start = Instant::now();
    for _ in 0..iters {
        dst.iter_mut().for_each(|w| *w = 0);
        plan.propagate_or(src, &mut dst);
    }
    let total = start.elapsed().as_nanos() as f64;
    black_box(&dst);
    total / f64::from(iters)
}

fn relabel_floor() {
    let spec = GraphSpec::ScrambledCycle(RELABEL_N, 97);
    let graph = spec.build();
    let plain = WordGraph::build_no_relabel(&graph);
    let relabeled = WordGraph::build(&graph);
    assert_eq!(relabeled.plan_kind(), "rotations");
    let src: Vec<u64> = (0..plain.words() as u64)
        .map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();

    // Warm both plans, then interleave passes alternating order and
    // keep the minimum ns/round from each: the least noisy estimator.
    let _ = gather_ns(&plain, &src, 1);
    let _ = gather_ns(&relabeled, &src, 1);
    let mut base = f64::INFINITY;
    let mut fast = f64::INFINITY;
    for pass in 0..5 {
        if pass % 2 == 0 {
            base = base.min(gather_ns(&plain, &src, RELABEL_ITERS));
            fast = fast.min(gather_ns(&relabeled, &src, RELABEL_ITERS));
        } else {
            fast = fast.min(gather_ns(&relabeled, &src, RELABEL_ITERS));
            base = base.min(gather_ns(&plain, &src, RELABEL_ITERS));
        }
    }

    let ratio = base / fast;
    println!(
        "parallel_scale: {spec} gather — label-order {base:.0} ns/round, \
         RCM {fast:.0} ns/round, speedup {ratio:.1}x"
    );
    assert!(
        ratio >= RELABEL_FLOOR,
        "RCM gather speedup {ratio:.1}x fell below the {RELABEL_FLOOR}x floor"
    );
}

/// Rounds/second of the bit kernel at `threads` workers, same seed and
/// warmup at every thread count — byte-identical work, pure speed.
fn step_rps(threads: usize) -> f64 {
    let mut net = BitNetwork::new(Bfw::new(0.5), generators::cycle(STEP_N).into(), 7);
    net.set_threads(threads);
    net.run(16);
    let start = Instant::now();
    net.run(STEP_ROUNDS);
    STEP_ROUNDS as f64 / start.elapsed().as_secs_f64()
}

fn step_floor(cores: usize) {
    if cores < STEP_THREADS {
        println!(
            "parallel_scale: host offers {cores} core(s) < {STEP_THREADS} — skipping the \
             {STEP_THREADS}-thread stepping floor (BENCH_parallel.json records host_cores \
             for the same reason)"
        );
        return;
    }
    let _ = step_rps(STEP_THREADS);
    let mut serial = 0.0f64;
    let mut sharded = 0.0f64;
    for pass in 0..3 {
        if pass % 2 == 0 {
            serial = serial.max(step_rps(1));
            sharded = sharded.max(step_rps(STEP_THREADS));
        } else {
            sharded = sharded.max(step_rps(STEP_THREADS));
            serial = serial.max(step_rps(1));
        }
    }
    let ratio = sharded / serial;
    println!(
        "parallel_scale: cycle:{STEP_N} — 1 thread {serial:.0} rounds/s, {STEP_THREADS} threads \
         {sharded:.0} rounds/s, speedup {ratio:.1}x"
    );
    assert!(
        ratio >= STEP_FLOOR,
        "{STEP_THREADS}-thread stepping speedup {ratio:.1}x fell below the {STEP_FLOOR}x floor"
    );
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    relabel_floor();
    step_floor(cores);
}
