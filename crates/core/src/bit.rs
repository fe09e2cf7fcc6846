//! BFW on the bit-parallel kernel: plane algebra, the `BitNetwork`
//! fast path and the 64-lane Monte-Carlo engine.
//!
//! # The δ table as boolean planes
//!
//! With the planes `leader` / `beeping` / `frozen` (and the derived
//! `waiting = !beeping & !frozen`), Figure 1's entire transition
//! function collapses to four word-wide expressions:
//!
//! ```text
//! beeping' = (waiting & heard) | (waiting & !heard & leader & coin)
//! frozen'  = beeping
//! leader'  = leader & !(waiting & heard)
//! ```
//!
//! Reading them against the table: a waiting node that hears a beep
//! relays it (`W → B◦`, and a `W•` additionally loses its leader bit —
//! the elimination rule); a silent waiting leader beeps iff its coin
//! came up (`W• → B•`); every beeping node freezes for exactly one
//! round (`B → F`); every frozen node thaws (`F → W`), keeping its
//! leader bit. The `bit_kernel_equivalence` workspace test checks the
//! algebra exhaustively against [`delta`](crate::delta) and pins
//! byte-identity with the generic engine.

use crate::protocol::Bfw;
use crate::state::BfwState;
use bfw_graph::{Graph, NodeId};
use bfw_sim::{
    bernoulli_words, run_trials, BeepingProtocol, BitEngine, BitModel, NodeCtx, PlaneWord,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

impl BitModel for Bfw {
    type State = BfwState;

    fn initial_state(&self, ctx: NodeCtx) -> BfwState {
        BeepingProtocol::initial_state(self, ctx)
    }

    fn pack(&self, state: &BfwState) -> (bool, bool, bool) {
        (state.is_leader(), state.beeps(), state.is_frozen())
    }

    fn unpack(&self, leader: bool, beeping: bool, frozen: bool) -> BfwState {
        match (leader, beeping, frozen) {
            (true, false, false) => BfwState::LeaderWaiting,
            (true, true, false) => BfwState::LeaderBeeping,
            (true, false, true) => BfwState::LeaderFrozen,
            (false, false, false) => BfwState::Waiting,
            (false, true, false) => BfwState::Beeping,
            (false, false, true) => BfwState::Frozen,
            _ => panic!("no BFW state is both beeping and frozen"),
        }
    }

    fn coin_probability(&self) -> f64 {
        self.p()
    }

    fn coin_mask(&self, planes: PlaneWord, heard: u64) -> u64 {
        // Exactly the scalar lazy-draw condition: state == W• (leader,
        // neither beeping nor frozen) and silence.
        planes.leader & !planes.beeping & !planes.frozen & !heard
    }

    fn advance_word(&self, planes: PlaneWord, heard: u64, coin: u64) -> PlaneWord {
        let waiting = !planes.beeping & !planes.frozen;
        // Written through `coin_mask`, which the caller has just computed
        // for its draw, so the compiler shares it; spelled out, the lane
        // engine's step measured ≈3% slower (perfbench
        // `lanes.ns_per_node_round`, 2-core x86-64 host).
        PlaneWord {
            leader: planes.leader & !(waiting & heard),
            beeping: (waiting & heard) | (self.coin_mask(planes, heard) & coin),
            frozen: planes.beeping,
        }
    }
}

/// The bit-parallel BFW executor — drop-in sibling of
/// [`Network<Bfw>`](bfw_sim::Network) with byte-identical outcomes at a
/// fixed seed (see [`bit`](crate::bit) module docs).
///
/// # Example
///
/// ```
/// use bfw_core::{Bfw, BitNetwork};
/// use bfw_graph::generators;
///
/// let mut net = BitNetwork::new(Bfw::new(0.5), generators::cycle(256).into(), 42);
/// while net.leader_count() > 1 {
///     net.step();
/// }
/// assert!(net.unique_leader().is_some());
/// ```
pub type BitNetwork = BitEngine<Bfw>;

/// Outcome of one Monte-Carlo lane: when the lane's execution reached a
/// unique leader (`None` if the round budget ran out) and which node it
/// was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOutcome {
    /// First round with exactly one leader (convergence is absorbing —
    /// the paper's Lemma 9: the leader count never increases and never
    /// reaches zero).
    pub converged_round: Option<u64>,
    /// The elected node, for converged lanes.
    pub leader: Option<NodeId>,
}

/// 64 independent BFW executions packed into the bit positions of one
/// word per node — the lane-parallel Monte-Carlo engine.
///
/// The layout is the *transpose* of [`BitNetwork`]'s: there, bit `b` of
/// word `w` is node `64w + b` of **one** execution; here, bit `k` of
/// node `u`'s word is node `u` of **lane (trial)** `k`. One round
/// advances all lanes at once: `heard[u]` is the OR of `beeping[v]`
/// over `N(u) ∪ {u}` (word-wide across lanes), and the per-node coin is
/// drawn for all lanes needing one via [`bernoulli_words`] — one
/// ChaCha8 output word per ~bit of precision instead of one draw per
/// lane.
///
/// Determinism: node `u` owns the `u`-th ChaCha8 stream carved from the
/// **group seed** (the same carving scheme as the engines' fault layer)
/// and draws only when at least one lane needs a coin, with a draw
/// count that is a pure function of the lane-need mask — so outcomes
/// are reproducible and independent of scheduling. Lane trials agree
/// with scalar trials in distribution, not draw-for-draw.
#[derive(Debug, Clone)]
pub struct BfwLaneEngine {
    protocol: Bfw,
    graph: Graph,
    lane_mask: u64,
    lanes: usize,
    leader: Vec<u64>,
    beeping: Vec<u64>,
    frozen: Vec<u64>,
    heard: Vec<u64>,
    rngs: Vec<ChaCha8Rng>,
    round: u64,
    converged_at: Vec<Option<u64>>,
    converged_lanes: u64,
}

impl BfwLaneEngine {
    /// Builds `lanes` (1–64) independent executions of `protocol` on
    /// `graph`, all in their initial configuration, seeded by the group
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds 64.
    pub fn new(protocol: &Bfw, graph: &Graph, seed: u64, lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "lanes must be in 1..=64");
        let n = graph.node_count();
        let lane_mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let mut master = ChaCha8Rng::seed_from_u64(seed);
        let rngs = (0..n)
            .map(|_| ChaCha8Rng::from_rng(&mut master))
            .collect::<Vec<_>>();
        let leader = (0..n)
            .map(|i| {
                let initial = BeepingProtocol::initial_state(
                    protocol,
                    NodeCtx {
                        node: NodeId::new(i),
                        node_count: n,
                    },
                );
                if initial.is_leader() {
                    lane_mask
                } else {
                    0
                }
            })
            .collect();
        let mut engine = BfwLaneEngine {
            protocol: protocol.clone(),
            graph: graph.clone(),
            lane_mask,
            lanes,
            leader,
            beeping: vec![0; n],
            frozen: vec![0; n],
            heard: vec![0; n],
            rngs,
            round: 0,
            converged_at: vec![None; lanes],
            converged_lanes: 0,
        };
        engine.note_convergence();
        engine
    }

    /// Completed rounds (shared by all lanes).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Lanes that currently have a unique leader, as a bitmask.
    pub fn converged_lanes(&self) -> u64 {
        self.converged_lanes
    }

    /// Per-lane leader count == 1, via one carry-save pass over the
    /// leader words; records first-convergence rounds.
    fn note_convergence(&mut self) {
        let mut ones = 0u64;
        let mut more = 0u64;
        for &l in &self.leader {
            more |= ones & l;
            ones |= l;
        }
        let mut newly = ones & !more & self.lane_mask & !self.converged_lanes;
        self.converged_lanes |= newly;
        while newly != 0 {
            let k = newly.trailing_zeros() as usize;
            newly &= newly - 1;
            self.converged_at[k] = Some(self.round);
        }
    }

    /// Advances one synchronous round in every lane: Figure 1 as
    /// [`Bfw`]'s plane algebra ([`BitModel::coin_mask`] and
    /// [`BitModel::advance_word`]), one word per node across the lanes.
    pub fn step(&mut self) {
        for u in 0..self.heard.len() {
            let mut h = self.beeping[u];
            for &v in self.graph.neighbors(NodeId::new(u)) {
                h |= self.beeping[v.index()];
            }
            self.heard[u] = h;
        }
        let p = self.protocol.coin_probability();
        for u in 0..self.heard.len() {
            let planes = PlaneWord {
                leader: self.leader[u],
                beeping: self.beeping[u],
                frozen: self.frozen[u],
            };
            let heard = self.heard[u];
            let need = self.protocol.coin_mask(planes, heard);
            let coin = bernoulli_words(&mut self.rngs[u], p, need);
            let next = self.protocol.advance_word(planes, heard, coin);
            self.leader[u] = next.leader;
            self.beeping[u] = next.beeping;
            self.frozen[u] = next.frozen;
        }
        self.round += 1;
        self.note_convergence();
    }

    /// Runs until every lane has converged or `max_rounds` is reached,
    /// then reports per-lane outcomes in lane order.
    pub fn run_to_convergence(mut self, max_rounds: u64) -> Vec<LaneOutcome> {
        while self.converged_lanes != self.lane_mask && self.round < max_rounds {
            self.step();
        }
        // One pass recovers each converged lane's elected node.
        let mut leaders = vec![None; self.lanes];
        for (u, &l) in self.leader.iter().enumerate() {
            let mut bits = l & self.converged_lanes;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                leaders[k] = Some(NodeId::new(u));
            }
        }
        self.converged_at
            .iter()
            .zip(leaders)
            .map(|(&converged_round, leader)| LaneOutcome {
                converged_round,
                leader,
            })
            .collect()
    }
}

/// Runs `trials` independent BFW elections on `graph` in 64-lane
/// bitsliced groups across `threads` workers — the sweep driver that
/// makes `n = 10^6` Monte-Carlo estimation tractable.
///
/// Group `g` covers trials `64g..64g + 64` (the last group may be
/// shorter) and runs as one [`run_trials`] trial seeded
/// `base_seed + 64g`, so the group covering trials `s..s+64` receives
/// `base_seed + s`. Lane executions draw from per-node streams carved
/// out of the *group* seed, so lane trials agree with scalar trials in
/// distribution, not draw for draw (see [`bernoulli_words`]). Outcomes
/// land at their trial index; lanes that exhaust `max_rounds` report
/// `converged_round: None`.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_bfw_trials_bitsliced(
    protocol: &Bfw,
    graph: &Graph,
    trials: usize,
    threads: usize,
    base_seed: u64,
    max_rounds: u64,
) -> Vec<LaneOutcome> {
    let groups = trials.div_ceil(64);
    // With base seed 0, the seed `run_trials` passes is the group index.
    let groups = run_trials(groups, threads, 0, |g| {
        let start = g as usize * 64;
        let lanes = 64.min(trials - start);
        BfwLaneEngine::new(protocol, graph, base_seed + start as u64, lanes)
            .run_to_convergence(max_rounds)
    });
    groups.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::generators;

    #[test]
    fn plane_algebra_matches_delta_exhaustively() {
        // Every (state, heard, coin) cell of Figure 1, one bit at a time.
        let bfw = Bfw::new(0.5);
        for state in BfwState::ALL {
            for heard in [false, true] {
                for coin in [false, true] {
                    let (l, b, f) = BitModel::pack(&bfw, &state);
                    let planes = PlaneWord {
                        leader: u64::from(l),
                        beeping: u64::from(b),
                        frozen: u64::from(f),
                    };
                    let next = bfw.advance_word(planes, u64::from(heard), u64::from(coin));
                    let bit = bfw.unpack(
                        next.leader & 1 == 1,
                        next.beeping & 1 == 1,
                        next.frozen & 1 == 1,
                    );
                    // The scalar coin only matters on the coin mask.
                    let mask = bfw.coin_mask(planes, u64::from(heard));
                    let scalar = crate::delta(state, heard, coin && mask & 1 == 1);
                    assert_eq!(bit, scalar, "{state} heard={heard} coin={coin}");
                }
            }
        }
    }

    #[test]
    fn coin_mask_is_the_lazy_draw_condition() {
        let bfw = Bfw::new(0.5);
        for state in BfwState::ALL {
            for heard in [false, true] {
                let (l, b, f) = BitModel::pack(&bfw, &state);
                let planes = PlaneWord {
                    leader: u64::from(l),
                    beeping: u64::from(b),
                    frozen: u64::from(f),
                };
                let draws = bfw.coin_mask(planes, u64::from(heard)) & 1 == 1;
                assert_eq!(
                    draws,
                    state == BfwState::LeaderWaiting && !heard,
                    "{state} heard={heard}"
                );
            }
        }
    }

    #[test]
    fn bit_network_elects_on_small_graphs() {
        for (name, graph) in [
            ("cycle", generators::cycle(48)),
            ("torus", generators::torus(4, 6)),
            ("path", generators::path(30)),
        ] {
            let mut net = BitNetwork::new(Bfw::new(0.5), graph.into(), 7);
            let mut rounds = 0u64;
            while net.leader_count() > 1 && rounds < 100_000 {
                net.step();
                rounds += 1;
            }
            assert_eq!(net.leader_count(), 1, "{name}");
            let u = net.unique_leader().expect(name);
            assert!(net.state(u).is_leader(), "{name}");
        }
    }

    #[test]
    fn lane_engine_converges_every_lane() {
        let graph = generators::cycle(32);
        let outcomes =
            BfwLaneEngine::new(&Bfw::new(0.5), &graph, 99, 64).run_to_convergence(1_000_000);
        assert_eq!(outcomes.len(), 64);
        for (k, o) in outcomes.iter().enumerate() {
            let r = o.converged_round.unwrap_or_else(|| panic!("lane {k}"));
            assert!(r > 0);
            assert!(o.leader.is_some(), "lane {k}");
        }
        // Lanes are independent: convergence rounds are not all equal.
        let rounds: std::collections::HashSet<_> =
            outcomes.iter().map(|o| o.converged_round).collect();
        assert!(rounds.len() > 4, "{rounds:?}");
    }

    #[test]
    fn lane_trials_are_deterministic_and_indexed() {
        let graph = generators::torus(4, 4);
        let bfw = Bfw::new(0.5);
        let a = run_bfw_trials_bitsliced(&bfw, &graph, 100, 1, 7, 1_000_000);
        let b = run_bfw_trials_bitsliced(&bfw, &graph, 100, 4, 7, 1_000_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        // The second group (trials 64..) is seeded independently.
        assert_ne!(a[0], a[64]);
    }

    /// Every lane of `run_bfw_trials_bitsliced(&Bfw::new(0.5), &torus(4, 4),
    /// 130, 1, 5, 1_000_000)` — two full groups and a two-lane one: the
    /// round each converged at and the node it elected, pinned from the
    /// engine that restated Figure 1 inline, before the lanes called
    /// `Bfw`'s plane algebra.
    const TORUS_4X4_ROUNDS: [u64; 130] = [
        9, 12, 19, 17, 11, 12, 28, 13, 18, 16, 14, 25, 46, 20, 31, 19, 33, 15, 20, 10, 23, 13, 14,
        19, 25, 15, 17, 21, 25, 14, 21, 11, 29, 44, 24, 29, 34, 34, 29, 31, 42, 39, 19, 17, 44, 19,
        12, 44, 11, 49, 16, 23, 17, 17, 12, 20, 40, 10, 23, 28, 30, 23, 22, 77, 56, 17, 18, 14, 23,
        30, 40, 46, 20, 75, 15, 16, 37, 15, 18, 15, 48, 30, 14, 16, 52, 27, 14, 18, 15, 16, 26, 61,
        35, 35, 20, 13, 8, 19, 23, 19, 25, 15, 22, 18, 14, 17, 25, 34, 60, 17, 19, 14, 21, 23, 16,
        17, 12, 27, 31, 13, 11, 32, 28, 35, 16, 22, 33, 17, 40, 16,
    ];
    const TORUS_4X4_LEADERS: [usize; 130] = [
        11, 15, 9, 15, 0, 12, 11, 0, 4, 6, 4, 1, 13, 1, 15, 6, 5, 5, 0, 5, 15, 14, 8, 6, 15, 12,
        13, 15, 7, 13, 11, 6, 13, 5, 11, 7, 7, 5, 4, 8, 2, 9, 9, 10, 0, 8, 6, 5, 3, 9, 12, 0, 1, 4,
        14, 15, 3, 0, 14, 6, 9, 8, 4, 13, 14, 2, 0, 5, 8, 2, 14, 0, 15, 6, 7, 1, 9, 9, 12, 14, 0,
        4, 8, 3, 10, 9, 10, 11, 1, 14, 11, 5, 8, 7, 15, 14, 12, 5, 12, 15, 13, 2, 9, 6, 9, 8, 5, 1,
        6, 9, 2, 4, 7, 11, 7, 7, 7, 5, 7, 1, 6, 13, 7, 11, 0, 10, 7, 4, 0, 12,
    ];

    #[test]
    fn lane_outcomes_are_pinned() {
        let outcomes = run_bfw_trials_bitsliced(
            &Bfw::new(0.5),
            &generators::torus(4, 4),
            130,
            1,
            5,
            1_000_000,
        );
        let rounds: Vec<u64> = outcomes
            .iter()
            .map(|o| o.converged_round.unwrap())
            .collect();
        let leaders: Vec<usize> = outcomes.iter().map(|o| o.leader.unwrap().index()).collect();
        assert_eq!(rounds, TORUS_4X4_ROUNDS);
        assert_eq!(leaders, TORUS_4X4_LEADERS);
    }

    #[test]
    fn single_node_converges_at_round_zero() {
        let graph = generators::path(1);
        let outcomes = BfwLaneEngine::new(&Bfw::new(0.5), &graph, 1, 3).run_to_convergence(10);
        for o in outcomes {
            assert_eq!(o.converged_round, Some(0));
            assert_eq!(o.leader, Some(NodeId::new(0)));
        }
    }

    #[test]
    #[should_panic(expected = "lanes must be in 1..=64")]
    fn lane_count_validated() {
        let _ = BfwLaneEngine::new(&Bfw::new(0.5), &generators::path(2), 0, 65);
    }
}
