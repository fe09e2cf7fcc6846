//! The shared fault substrate: crash masking, per-node RNG streams and
//! the two-channel perception-noise model.
//!
//! [`FaultLayer`] is the one place where the fault vocabulary of every
//! runtime lives. Both kernels embed it: the scalar
//! [`TickEngine`](crate::TickEngine) (beeping and stone-age rounds, the
//! recovery layer, and asynchronous activations, one per tick) and the
//! bit-parallel [`BitEngine`](crate::BitEngine). Because the crash
//! bitmask, the ChaCha8 stream carving and the noise channels are one
//! struct rather than per-runtime copies, a crash or a noise burst
//! behaves identically under synchronous rounds and asynchronous
//! activations by construction.
//!
//! Determinism contract: node `i` draws from a ChaCha8 stream carved
//! deterministically out of the run seed (`n` node streams in index
//! order; the asynchronous model's scheduler stream is carved *after*
//! them, exactly as the first asynchronous runtime did — see the
//! `activation_engine_equivalence` workspace test for the pinned
//! traces). Zero-probability noise channels draw nothing.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-node fault state shared by all runtimes: crash bitmask, RNG
/// streams, and the two-channel perception-noise model.
#[derive(Debug, Clone)]
pub struct FaultLayer {
    crashed: Vec<bool>,
    alive: usize,
    /// `crashed` as a `u64` bitset with the polarity flipped (bit set =
    /// alive), maintained in lockstep for the bit-parallel kernel.
    /// Bits `>= n` of the last word are always clear.
    alive_words: Vec<u64>,
    rngs: Vec<ChaCha8Rng>,
    false_negative: f64,
    false_positive: f64,
}

impl FaultLayer {
    /// Creates the fault state for `n` nodes: no crashes, no noise, one
    /// independent ChaCha8 stream per node carved out of `seed`.
    pub(crate) fn new(n: usize, seed: u64) -> Self {
        Self::with_scheduler(n, seed).0
    }

    /// Like [`new`](Self::new), but also carves one extra stream for an
    /// activation scheduler, *after* the node streams — the carving
    /// order the first asynchronous runtime used, preserved so its
    /// pinned traces stay bit-identical. Synchronous engines drop the
    /// extra stream without drawing from it, which leaves the node
    /// streams unchanged.
    pub(crate) fn with_scheduler(n: usize, seed: u64) -> (Self, ChaCha8Rng) {
        let mut master = ChaCha8Rng::seed_from_u64(seed);
        let rngs = (0..n)
            .map(|_| ChaCha8Rng::from_rng(&mut master))
            .collect::<Vec<_>>();
        let scheduler = ChaCha8Rng::from_rng(&mut master);
        let mut alive_words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = alive_words.last_mut() {
            if !n.is_multiple_of(64) {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        (
            FaultLayer {
                crashed: vec![false; n],
                alive: n,
                alive_words,
                rngs,
                false_negative: 0.0,
                false_positive: 0.0,
            },
            scheduler,
        )
    }

    /// Returns `true` if node `i` is crashed.
    #[inline]
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    /// Returns the crash flags, indexed by node.
    pub fn flags(&self) -> &[bool] {
        &self.crashed
    }

    /// Marks node `i` crashed (idempotent).
    pub(crate) fn crash(&mut self, i: usize) {
        if !std::mem::replace(&mut self.crashed[i], true) {
            self.alive -= 1;
            self.alive_words[i >> 6] &= !(1u64 << (i & 63));
        }
    }

    /// Clears the crash mark on node `i`, returning `true` if it was
    /// crashed (the caller then resets the node's state).
    pub(crate) fn recover(&mut self, i: usize) -> bool {
        let was_crashed = std::mem::replace(&mut self.crashed[i], false);
        if was_crashed {
            self.alive += 1;
            self.alive_words[i >> 6] |= 1u64 << (i & 63);
        }
        was_crashed
    }

    /// Returns the alive nodes as a `u64` bitset (bit set = not
    /// crashed), `ceil(n / 64)` words, bits `>= n` clear.
    #[inline]
    pub(crate) fn alive_words(&self) -> &[u64] {
        &self.alive_words
    }

    /// Returns the number of non-crashed nodes, maintained in `O(1)`
    /// (crash/recover are the only mutation points).
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Returns node `i`'s RNG stream (for protocol transitions).
    #[inline]
    pub fn rng(&mut self, i: usize) -> &mut ChaCha8Rng {
        &mut self.rngs[i]
    }

    /// Returns node `i`'s ChaCha8 stream position (see
    /// [`rand_chacha::ChaCha8Rng::position`]) — the checkpoint seam:
    /// streams are re-carved from the run seed on restore, so a
    /// snapshot needs only positions, never keys.
    #[inline]
    pub(crate) fn rng_position(&self, i: usize) -> (u64, usize) {
        self.rngs[i].position()
    }

    /// Restores node `i` from a checkpoint: crash flag (alive counts
    /// and the word bitset stay in lockstep) and RNG stream position.
    /// The stream key is untouched — the layer must have been carved
    /// from the same seed as the checkpointed one.
    pub(crate) fn restore_node(&mut self, i: usize, crashed: bool, rng_position: (u64, usize)) {
        if crashed != self.crashed[i] {
            if crashed {
                self.crash(i);
            } else {
                self.recover(i);
            }
        }
        self.rngs[i].set_position(rng_position.0, rng_position.1);
    }

    /// Returns `true` if either noise channel is active.
    #[inline]
    pub fn has_noise(&self) -> bool {
        self.false_negative > 0.0 || self.false_positive > 0.0
    }

    /// Passes one perceived boolean signal of node `i` through the two
    /// noise channels: a `true` signal is lost with probability
    /// `false_negative`, a `false` signal hallucinated with probability
    /// `false_positive`. A channel with probability 0 draws nothing, so
    /// disabling noise restores bit-identical RNG streams.
    #[inline]
    pub fn filter_signal(&mut self, i: usize, signal: bool) -> bool {
        use rand::Rng as _;
        if signal {
            !(self.false_negative > 0.0 && self.rngs[i].random_bool(self.false_negative))
        } else {
            self.false_positive > 0.0 && self.rngs[i].random_bool(self.false_positive)
        }
    }

    /// Reorders the per-node state so that the entry of node `i` moves
    /// to index `map[i]` — the adoption step when the bit engine's
    /// adjacency plan relabels nodes at construction (topology changes
    /// keep that labeling). Only *storage positions* move:
    /// each node keeps the ChaCha8 stream carved for it at construction
    /// (streams never renumber), its crash flag, and its noise
    /// channels, so every later draw is byte-identical to the
    /// unpermuted layout.
    pub(crate) fn permute(&mut self, map: &[u32]) {
        let n = self.crashed.len();
        assert_eq!(map.len(), n, "permutation must cover every node");
        let mut crashed = vec![false; n];
        let mut rngs: Vec<Option<ChaCha8Rng>> = vec![None; n];
        for (i, old) in self.rngs.drain(..).enumerate() {
            let j = map[i] as usize;
            crashed[j] = self.crashed[i];
            debug_assert!(rngs[j].is_none(), "map must be a permutation");
            rngs[j] = Some(old);
        }
        self.crashed = crashed;
        self.rngs = rngs
            .into_iter()
            .map(|r| r.expect("map must be a permutation"))
            .collect();
        for w in self.alive_words.iter_mut() {
            *w = 0;
        }
        for (i, &c) in self.crashed.iter().enumerate() {
            if !c {
                self.alive_words[i >> 6] |= 1u64 << (i & 63);
            }
        }
    }

    /// Decomposes the layer into the parts the bit kernel's step reads
    /// and writes: `(alive_words, false_negative, false_positive,
    /// rngs)`. A word-sharded step splits `rngs` into disjoint
    /// per-shard slices (`split_at_mut`); each shard then filters noise
    /// and draws coins for its own node range only.
    pub(crate) fn shard_parts_mut(&mut self) -> (&[u64], f64, f64, &mut [ChaCha8Rng]) {
        (
            &self.alive_words,
            self.false_negative,
            self.false_positive,
            &mut self.rngs,
        )
    }

    /// Returns the false-negative (lost-signal) probability.
    pub(crate) fn false_negative(&self) -> f64 {
        self.false_negative
    }

    /// Returns the false-positive (hallucinated-signal) probability.
    pub(crate) fn false_positive(&self) -> f64 {
        self.false_positive
    }

    pub(crate) fn set_noise(&mut self, false_negative: f64, false_positive: f64) {
        assert!(
            (0.0..1.0).contains(&false_negative),
            "hearing-failure probability must be in [0, 1)"
        );
        assert!(
            (0.0..1.0).contains(&false_positive),
            "spurious-beep probability must be in [0, 1)"
        );
        self.false_negative = false_negative;
        self.false_positive = false_positive;
    }
}

/// Word-wide counterpart of [`FaultLayer::filter_signal`], over one
/// chunk of words: for every word `w` of the chunk, passes each
/// *listening, alive* node's heard bit through the two noise channels,
/// drawing lazily from that node's own stream in index order.
///
/// Candidates are exactly the nodes the generic
/// [`BeepingModel`](crate::BeepingModel) noise loop visits — not
/// beeping (`emit` bit clear) and not crashed — and each candidate
/// makes the same lazy draws from the same per-node stream, so the RNG
/// streams stay bit-identical to the generic path.
///
/// `rngs` holds the streams of exactly the nodes covered by the chunk's
/// words (node `64w + b` of the chunk draws from `rngs[64w + b]`), so a
/// caller hands a shard its disjoint `split_at_mut` slice and the draws
/// land on the same streams at the same positions as the whole-range
/// call — the sharding is invisible to the RNG state.
pub(crate) fn filter_heard_chunk(
    rngs: &mut [ChaCha8Rng],
    alive: &[u64],
    emit: &[u64],
    heard: &mut [u64],
    false_negative: f64,
    false_positive: f64,
) {
    use rand::Rng as _;
    for w in 0..heard.len() {
        let mut cand = alive[w] & !emit[w];
        while cand != 0 {
            let b = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let bit = 1u64 << b;
            let rng = &mut rngs[w * 64 + b];
            let kept = if heard[w] & bit != 0 {
                !(false_negative > 0.0 && rng.random_bool(false_negative))
            } else {
                false_positive > 0.0 && rng.random_bool(false_positive)
            };
            if kept {
                heard[w] |= bit;
            } else {
                heard[w] &= !bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_layer_streams_are_seed_deterministic() {
        use rand::RngCore as _;
        let draw = |seed| {
            let mut f = FaultLayer::new(4, seed);
            (0..4).map(|i| f.rng(i).next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Streams are pairwise distinct.
        let d = draw(7);
        assert_eq!(d.iter().collect::<std::collections::HashSet<_>>().len(), 4);
    }

    #[test]
    fn scheduler_stream_does_not_disturb_node_streams() {
        use rand::RngCore as _;
        let mut plain = FaultLayer::new(3, 9);
        let (mut carved, mut scheduler) = FaultLayer::with_scheduler(3, 9);
        for i in 0..3 {
            assert_eq!(plain.rng(i).next_u64(), carved.rng(i).next_u64());
        }
        // The scheduler stream is distinct from every node stream.
        let s = scheduler.next_u64();
        let mut fresh = FaultLayer::new(3, 9);
        assert!((0..3).all(|i| fresh.rng(i).next_u64() != s));
    }

    #[test]
    fn filter_signal_is_identity_without_noise() {
        let mut f = FaultLayer::new(2, 0);
        assert!(!f.has_noise());
        assert!(f.filter_signal(0, true));
        assert!(!f.filter_signal(0, false));
        // No draws happened: the stream still matches a fresh layer.
        use rand::RngCore as _;
        let mut g = FaultLayer::new(2, 0);
        assert_eq!(f.rng(0).next_u64(), g.rng(0).next_u64());
    }

    #[test]
    fn filter_signal_flips_at_extreme_probabilities() {
        let mut f = FaultLayer::new(1, 3);
        f.set_noise(0.999, 0.999);
        let mut lost = 0;
        let mut ghost = 0;
        for _ in 0..50 {
            lost += usize::from(!f.filter_signal(0, true));
            ghost += usize::from(f.filter_signal(0, false));
        }
        assert!(lost > 45, "{lost}");
        assert!(ghost > 45, "{ghost}");
    }

    #[test]
    fn crash_and_recover_toggle() {
        let mut f = FaultLayer::new(3, 0);
        assert!(!f.is_crashed(1));
        f.crash(1);
        f.crash(1); // idempotent
        assert!(f.is_crashed(1));
        assert_eq!(f.flags(), &[false, true, false]);
        assert_eq!(f.alive_count(), 2, "idempotent crash counts once");
        assert!(f.recover(1));
        assert!(!f.recover(1), "second recover is a no-op");
        assert_eq!(f.alive_count(), 3);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn noise_probabilities_validated() {
        FaultLayer::new(1, 0).set_noise(1.0, 0.0);
    }

    #[test]
    fn alive_words_track_crashes() {
        let mut f = FaultLayer::new(70, 0);
        assert_eq!(f.alive_words(), &[u64::MAX, (1 << 6) - 1]);
        f.crash(0);
        f.crash(65);
        assert_eq!(f.alive_words(), &[u64::MAX - 1, 0b11_1101]);
        f.recover(65);
        assert_eq!(f.alive_words(), &[u64::MAX - 1, 0b11_1111]);
    }

    #[test]
    fn filter_heard_words_matches_scalar_loop() {
        // The word-wide path must visit the same candidates and make the
        // same draws as the generic per-node loop.
        let n = 100;
        let mut scalar = FaultLayer::new(n, 5);
        let mut wordy = FaultLayer::new(n, 5);
        scalar.set_noise(0.3, 0.2);
        wordy.set_noise(0.3, 0.2);
        scalar.crash(7);
        wordy.crash(7);

        let emit_flags: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
        let mut heard_flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let mut emit = vec![0u64; 2];
        let mut heard = vec![0u64; 2];
        for i in 0..n {
            emit[i >> 6] |= u64::from(emit_flags[i]) << (i & 63);
            heard[i >> 6] |= u64::from(heard_flags[i]) << (i & 63);
        }

        let (alive, fneg, fpos, rngs) = wordy.shard_parts_mut();
        filter_heard_chunk(rngs, alive, &emit, &mut heard, fneg, fpos);
        for i in 0..n {
            if emit_flags[i] || scalar.is_crashed(i) {
                continue;
            }
            heard_flags[i] = scalar.filter_signal(i, heard_flags[i]);
        }
        for i in 0..n {
            assert_eq!(
                heard[i >> 6] >> (i & 63) & 1 == 1,
                heard_flags[i],
                "node {i}"
            );
        }
        // Streams advanced identically.
        use rand::RngCore as _;
        for i in 0..n {
            assert_eq!(scalar.rng(i).next_u64(), wordy.rng(i).next_u64(), "rng {i}");
        }
    }
}
