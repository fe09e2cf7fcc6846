//! `KnockoutClique`: anonymous randomized knockout on single-hop
//! networks, in the spirit of Gilbert–Newport, *"The computational power
//! of beeps"* (DISC 2015).
//!
//! Every active candidate flips a fair coin each round: heads → beep,
//! tails → listen. A listening candidate that hears a beep becomes
//! passive. With `k ≥ 2` active candidates, a constant fraction is
//! knocked out per round in expectation, so a unique candidate remains
//! after `O(log n)` rounds w.h.p. — using only **three states** and no
//! identifiers, but correct only on *single-hop* (fully connected)
//! topologies: on multi-hop graphs two non-adjacent candidates never
//! hear each other and may both survive forever.
//!
//! The paper's \[17\] works in this setting with an error probability
//! `ε`; our variant is the eventual-election core of that protocol (no
//! termination detection), matching the paper's Definition 1 semantics
//! for the clique.

use bfw_sim::{BeepingProtocol, LeaderElection, NodeCtx};
use rand::{Rng, RngCore};

/// The knockout protocol (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnockoutClique {
    beep_prob: f64,
}

impl KnockoutClique {
    /// Creates the protocol with the canonical fair coin.
    pub fn new() -> Self {
        KnockoutClique { beep_prob: 0.5 }
    }

    /// Creates the protocol with a custom beep probability.
    ///
    /// # Panics
    ///
    /// Panics if `beep_prob` is not in the open interval `(0, 1)`.
    pub fn with_beep_prob(beep_prob: f64) -> Self {
        assert!(
            beep_prob > 0.0 && beep_prob < 1.0 && beep_prob.is_finite(),
            "beep probability must lie in (0, 1), got {beep_prob}"
        );
        KnockoutClique { beep_prob }
    }

    /// Returns the per-round beep probability of active candidates.
    pub fn beep_prob(&self) -> f64 {
        self.beep_prob
    }
}

impl Default for KnockoutClique {
    fn default() -> Self {
        Self::new()
    }
}

/// The three states of [`KnockoutClique`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnockoutState {
    /// Active candidate, beeping this round.
    Beeping,
    /// Active candidate, listening this round.
    Listening,
    /// Knocked out (permanent).
    Passive,
}

impl BeepingProtocol for KnockoutClique {
    type State = KnockoutState;

    fn initial_state(&self, _ctx: NodeCtx) -> KnockoutState {
        KnockoutState::Listening
    }

    fn beeps(&self, state: &KnockoutState) -> bool {
        *state == KnockoutState::Beeping
    }

    fn transition(
        &self,
        state: &KnockoutState,
        heard: bool,
        rng: &mut dyn RngCore,
    ) -> KnockoutState {
        match state {
            // A beeping candidate hears only its own beep (plus possibly
            // others', which it cannot distinguish): it stays active and
            // re-flips.
            KnockoutState::Beeping => {
                if rng.random_bool(self.beep_prob) {
                    KnockoutState::Beeping
                } else {
                    KnockoutState::Listening
                }
            }
            KnockoutState::Listening => {
                if heard {
                    // Someone else beeped: knocked out.
                    KnockoutState::Passive
                } else if rng.random_bool(self.beep_prob) {
                    KnockoutState::Beeping
                } else {
                    KnockoutState::Listening
                }
            }
            KnockoutState::Passive => KnockoutState::Passive,
        }
    }
}

impl LeaderElection for KnockoutClique {
    fn is_leader(&self, state: &KnockoutState) -> bool {
        matches!(state, KnockoutState::Beeping | KnockoutState::Listening)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::generators;
    use bfw_sim::{Network, Topology};

    #[test]
    fn converges_fast_on_clique() {
        // O(log n) w.h.p.: allow a generous constant.
        for n in [2usize, 8, 64, 256] {
            let mut worst = 0u64;
            for seed in 0..20u64 {
                let mut net = Network::new(KnockoutClique::new(), Topology::Clique(n), seed);
                let round = net
                    .run_until(10_000, |v| v.leader_count() == 1)
                    .unwrap_or_else(|| panic!("n={n} seed={seed}: no convergence"));
                worst = worst.max(round);
            }
            let bound = 40.0 * ((n.max(2)) as f64).ln().max(1.0);
            assert!(
                (worst as f64) < bound,
                "n={n}: worst {worst} >= bound {bound}"
            );
        }
    }

    #[test]
    fn leader_is_stable_on_clique() {
        let mut net = Network::new(KnockoutClique::new(), Topology::Clique(32), 7);
        net.run_until(10_000, |v| v.leader_count() == 1).unwrap();
        let leader = net.unique_leader().unwrap();
        for _ in 0..200 {
            net.step();
            assert_eq!(net.unique_leader(), Some(leader));
        }
    }

    #[test]
    fn never_zero_leaders_on_clique() {
        // A sole beeping candidate hears itself but (heard == true only
        // via own beep while *beeping*) is never knocked out: knockouts
        // require listening. With >= 2 beeping simultaneously, none of
        // the beepers is knocked out either. So the last candidate
        // cannot disappear.
        for seed in 0..50u64 {
            let mut net = Network::new(KnockoutClique::new(), Topology::Clique(16), seed);
            for _ in 0..500 {
                net.step();
                assert!(net.leader_count() >= 1, "seed {seed}");
            }
        }
    }

    #[test]
    fn uses_exactly_three_states() {
        let mut net = Network::new(KnockoutClique::new(), Topology::Clique(32), 3);
        let mut seen = std::collections::HashSet::new();
        net.run_until(500, |v| {
            seen.extend(v.states.iter().map(|s| format!("{s:?}")));
            false
        });
        assert!(seen.len() <= 3);
    }

    #[test]
    fn may_fail_on_multi_hop_graphs() {
        // Two far-apart candidates on a long path can both stay active:
        // the protocol is only correct single-hop. Witness at least one
        // seed where 2+ leaders survive a long run.
        let mut witnessed = false;
        for seed in 0..10u64 {
            let mut net = Network::new(KnockoutClique::new(), generators::path(64).into(), seed);
            net.run(2_000);
            if net.leader_count() >= 2 {
                witnessed = true;
                break;
            }
        }
        assert!(
            witnessed,
            "knockout should not solve multi-hop leader election"
        );
    }

    #[test]
    fn custom_beep_prob_validated() {
        assert_eq!(KnockoutClique::with_beep_prob(0.3).beep_prob(), 0.3);
        assert_eq!(KnockoutClique::default(), KnockoutClique::new());
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1)")]
    fn bad_beep_prob_panics() {
        let _ = KnockoutClique::with_beep_prob(0.0);
    }
}
