//! One interface over all compared algorithms, so the Table 1 harness
//! (experiment E2) can sweep them uniformly.

use crate::{BitwiseMaxId, FloodMax, KnockoutClique};
use bfw_core::Bfw;
use bfw_graph::{algo, Graph};
use bfw_sim::message_passing::MessagePassingNetwork;
use bfw_sim::{Network, SimError};
use std::collections::HashSet;

/// Communication model an algorithm runs in (Table 1's implicit
/// "model" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// The beeping model (weakest).
    Beeping,
    /// Synchronous message passing with `Θ(log n)`-bit messages
    /// (strongest).
    MessagePassing,
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Model::Beeping => write!(f, "beeping"),
            Model::MessagePassing => write!(f, "msg-passing"),
        }
    }
}

/// Static facts about an algorithm — the assumption columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmInfo {
    /// Display name.
    pub name: &'static str,
    /// Communication model.
    pub model: Model,
    /// Whether nodes carry unique identifiers.
    pub unique_ids: bool,
    /// Prior knowledge required ("none", "D", "n, D").
    pub knowledge: &'static str,
    /// Asymptotic state usage as claimed ("O(1)", "Ω(n)", ...).
    pub state_bound: &'static str,
    /// Whether the algorithm is deterministic.
    pub deterministic: bool,
    /// Whether the algorithm is only correct on single-hop (clique)
    /// topologies.
    pub clique_only: bool,
}

/// Measured outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// First round with exactly one leader.
    pub converged_round: u64,
    /// Number of distinct per-node states observed during the run — the
    /// empirical "States" column.
    pub distinct_states: usize,
}

/// Whole-run channel-complexity counters — the E19 faceoff columns.
///
/// Beeping candidates measure these with the engine's instrumentation
/// seam (see [`bfw_sim::instrument`]); the message-passing FloodMax
/// derives them analytically (every alive node sends one
/// `⌈log₂ n⌉`-bit message per neighbor per round). `beeps_sent` /
/// `beeps_heard` are zero for non-beeping models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComplexityStats {
    /// Rounds with a non-quiescent emission, summed over emitters.
    pub beeps_sent: u64,
    /// Post-noise perception events (alive nodes that heard a beep).
    pub beeps_heard: u64,
    /// Information crossing the channel, in bits.
    pub bits: u64,
    /// Point-to-point message equivalents (emissions × receiver count).
    pub messages: u64,
    /// Per-node state footprint in bytes.
    pub state_bytes: usize,
}

/// A leader-election algorithm that the Table 1 harness can run on an
/// arbitrary graph.
///
/// The `Send + Sync` bound lets the harness share algorithms across
/// Monte-Carlo worker threads.
pub trait CandidateAlgorithm: Send + Sync {
    /// Returns the assumption profile of the algorithm.
    fn info(&self) -> AlgorithmInfo;

    /// Runs one election on `graph` and reports when a unique leader
    /// first appeared plus how many distinct states were used.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundBudgetExhausted`] if more than one leader
    /// remains after `max_rounds`, plus the usual topology errors.
    fn run(&self, graph: &Graph, seed: u64, max_rounds: u64) -> Result<RunStats, SimError>;

    /// [`run`](Self::run) with channel-complexity accounting. The
    /// default returns `None` for the counters — algorithms that can
    /// measure (or derive) their channel usage override this; the
    /// outcome in the first tuple slot is identical to
    /// [`run`](Self::run)'s either way.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    fn run_measured(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(RunStats, Option<ComplexityStats>), SimError> {
        self.run(graph, seed, max_rounds).map(|stats| (stats, None))
    }
}

fn check_topology(graph: &Graph) -> Result<(), SimError> {
    if graph.node_count() == 0 {
        return Err(SimError::EmptyTopology);
    }
    if !algo::is_connected(graph) {
        return Err(SimError::Disconnected);
    }
    Ok(())
}

/// Runs a [`bfw_sim::LeaderElection`] beeping protocol and collects
/// [`RunStats`] (shared by all beeping-model candidates).
fn run_beeping<P: bfw_sim::LeaderElection>(
    protocol: P,
    graph: &Graph,
    seed: u64,
    max_rounds: u64,
) -> Result<RunStats, SimError> {
    check_topology(graph)?;
    let mut net = Network::new(protocol, graph.clone().into(), seed);
    run_to_single_leader(&mut net, max_rounds)
}

/// [`run_beeping`] with the engine's instrumentation enabled (no
/// flight recorder): the counters come straight out of the
/// [`bfw_sim::ComplexityLedger`]. Instrumentation is passive, so the
/// [`RunStats`] are identical to the uninstrumented run's.
fn run_beeping_measured<P: bfw_sim::LeaderElection>(
    protocol: P,
    graph: &Graph,
    seed: u64,
    max_rounds: u64,
) -> Result<(RunStats, Option<ComplexityStats>), SimError> {
    check_topology(graph)?;
    let mut net = Network::new(protocol, graph.clone().into(), seed);
    net.enable_instrumentation(None);
    let stats = run_to_single_leader(&mut net, max_rounds)?;
    let ledger = net
        .complexity_ledger()
        .expect("instrumentation was enabled");
    let complexity = ComplexityStats {
        beeps_sent: ledger.beeps_sent(),
        beeps_heard: ledger.beeps_heard(),
        bits: ledger.bits(),
        messages: ledger.messages(),
        state_bytes: ledger.state_bytes_per_node(),
    };
    Ok((stats, Some(complexity)))
}

/// Steps `net` to its first single-leader round, counting the distinct
/// states (by `Debug` rendering) that appear on the way.
fn run_to_single_leader<P: bfw_sim::LeaderElection>(
    net: &mut Network<P>,
    max_rounds: u64,
) -> Result<RunStats, SimError> {
    let mut seen: HashSet<String> = HashSet::new();
    let converged = net.run_until(max_rounds, |v| {
        for s in v.states {
            seen.insert(format!("{s:?}"));
        }
        v.leader_count() == 1
    });
    match converged {
        Some(round) => Ok(RunStats {
            converged_round: round,
            distinct_states: seen.len(),
        }),
        None => Err(SimError::RoundBudgetExhausted {
            max_rounds,
            leaders_remaining: net.leader_count(),
        }),
    }
}

/// BFW with a uniform constant `p` (the paper's main algorithm,
/// Theorem 2 row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfwUniform {
    /// Beep probability.
    pub p: f64,
}

impl CandidateAlgorithm for BfwUniform {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: "BFW (this paper)",
            model: Model::Beeping,
            unique_ids: false,
            knowledge: "none",
            state_bound: "O(1) = 6",
            deterministic: false,
            clique_only: false,
        }
    }

    fn run(&self, graph: &Graph, seed: u64, max_rounds: u64) -> Result<RunStats, SimError> {
        run_beeping(Bfw::new(self.p), graph, seed, max_rounds)
    }

    fn run_measured(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(RunStats, Option<ComplexityStats>), SimError> {
        run_beeping_measured(Bfw::new(self.p), graph, seed, max_rounds)
    }
}

/// BFW with `p = 1/(D+1)` (Theorem 3 row of Table 1: knowledge of `D`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BfwKnownDiameter {}

impl CandidateAlgorithm for BfwKnownDiameter {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: "BFW, p = 1/(D+1)",
            model: Model::Beeping,
            unique_ids: false,
            knowledge: "D",
            state_bound: "O(1) = 6",
            deterministic: false,
            clique_only: false,
        }
    }

    fn run(&self, graph: &Graph, seed: u64, max_rounds: u64) -> Result<RunStats, SimError> {
        check_topology(graph)?;
        let d = algo::diameter(graph).expect("connected graph has a diameter");
        run_beeping(Bfw::with_known_diameter(d), graph, seed, max_rounds)
    }

    fn run_measured(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(RunStats, Option<ComplexityStats>), SimError> {
        check_topology(graph)?;
        let d = algo::diameter(graph).expect("connected graph has a diameter");
        run_beeping_measured(Bfw::with_known_diameter(d), graph, seed, max_rounds)
    }
}

/// FloodMax in the message-passing model (the `Θ(D)` strong-model
/// reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FloodMaxAlgorithm {}

impl CandidateAlgorithm for FloodMaxAlgorithm {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: "FloodMax",
            model: Model::MessagePassing,
            unique_ids: true,
            knowledge: "none",
            state_bound: "Ω(n)",
            deterministic: true,
            clique_only: false,
        }
    }

    fn run(&self, graph: &Graph, seed: u64, max_rounds: u64) -> Result<RunStats, SimError> {
        check_topology(graph)?;
        let mut net = MessagePassingNetwork::new(FloodMax::new(), graph.clone().into(), seed);
        let mut seen: HashSet<String> = HashSet::new();
        // FloodMax reports *full agreement* (every node knows the
        // leader's identity): that is the guarantee the classical
        // algorithm provides and what the termination-detecting rows of
        // Table 1 mean by convergence. Pure Definition-1 convergence
        // would be a 1–2 round curiosity in this strong model.
        let converged = net.run_until(max_rounds, |n| {
            for s in n.states() {
                seen.insert(format!("{s:?}"));
            }
            FloodMax::all_agree(n.states())
        });
        match converged {
            Some(round) => Ok(RunStats {
                converged_round: round,
                distinct_states: seen.len(),
            }),
            None => Err(SimError::RoundBudgetExhausted {
                max_rounds,
                leaders_remaining: net.leader_count(),
            }),
        }
    }

    fn run_measured(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(RunStats, Option<ComplexityStats>), SimError> {
        let stats = self.run(graph, seed, max_rounds)?;
        // Analytic accounting: FloodMax sends every round on every
        // directed edge (each node broadcasts its max-seen to each
        // neighbor), and each message carries an identifier in
        // `[0, n)`, i.e. `⌈log₂ n⌉` bits. No stochastic element — the
        // closed form is exact, no instrumented rerun needed.
        let n = graph.node_count() as u64;
        let bits_per_msg = 64 - n.saturating_sub(1).leading_zeros() as u64;
        let messages = stats.converged_round * 2 * graph.edge_count() as u64;
        Ok((
            stats,
            Some(ComplexityStats {
                beeps_sent: 0,
                beeps_heard: 0,
                bits: messages * bits_per_msg.max(1),
                messages,
                state_bytes: std::mem::size_of::<crate::FloodMaxState>(),
            }),
        ))
    }
}

/// Bitwise max-identifier election in the beeping model (the
/// `O(D log n)` deterministic row, after \[14\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitwiseMaxIdAlgorithm {}

impl CandidateAlgorithm for BitwiseMaxIdAlgorithm {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: "BitwiseMaxId (a la [14])",
            model: Model::Beeping,
            unique_ids: true,
            knowledge: "n, D",
            state_bound: "Ω(n)",
            deterministic: true,
            clique_only: false,
        }
    }

    fn run(&self, graph: &Graph, seed: u64, max_rounds: u64) -> Result<RunStats, SimError> {
        check_topology(graph)?;
        let d = algo::diameter(graph)
            .expect("connected graph has a diameter")
            .max(1);
        run_beeping(BitwiseMaxId::new(d), graph, seed, max_rounds)
    }

    fn run_measured(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(RunStats, Option<ComplexityStats>), SimError> {
        check_topology(graph)?;
        let d = algo::diameter(graph)
            .expect("connected graph has a diameter")
            .max(1);
        run_beeping_measured(BitwiseMaxId::new(d), graph, seed, max_rounds)
    }
}

/// Anonymous knockout on the clique (the `O(1)`-state single-hop row,
/// after \[17\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KnockoutCliqueAlgorithm {}

impl CandidateAlgorithm for KnockoutCliqueAlgorithm {
    fn info(&self) -> AlgorithmInfo {
        AlgorithmInfo {
            name: "Knockout (a la [17])",
            model: Model::Beeping,
            unique_ids: false,
            knowledge: "none",
            state_bound: "O(1) = 3",
            deterministic: false,
            clique_only: true,
        }
    }

    fn run(&self, graph: &Graph, seed: u64, max_rounds: u64) -> Result<RunStats, SimError> {
        run_beeping(KnockoutClique::new(), graph, seed, max_rounds)
    }

    fn run_measured(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(RunStats, Option<ComplexityStats>), SimError> {
        run_beeping_measured(KnockoutClique::new(), graph, seed, max_rounds)
    }
}

/// The five algorithms of the empirical Table 1, in display order.
pub fn standard_suite(bfw_p: f64) -> Vec<Box<dyn CandidateAlgorithm>> {
    vec![
        Box::new(BfwUniform { p: bfw_p }),
        Box::new(BfwKnownDiameter::default()),
        Box::new(FloodMaxAlgorithm::default()),
        Box::new(BitwiseMaxIdAlgorithm::default()),
        Box::new(KnockoutCliqueAlgorithm::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::generators;

    #[test]
    fn suite_runs_on_clique() {
        let g = generators::complete(16);
        for algo in standard_suite(0.5) {
            let stats = algo
                .run(&g, 7, 500_000)
                .unwrap_or_else(|e| panic!("{} failed: {e}", algo.info().name));
            assert!(stats.converged_round < 500_000);
            assert!(stats.distinct_states >= 1);
        }
    }

    #[test]
    fn suite_runs_on_path_except_clique_only() {
        let g = generators::path(12);
        for algo in standard_suite(0.5) {
            let info = algo.info();
            let result = algo.run(&g, 3, 2_000_000);
            if info.clique_only {
                // Knockout may or may not converge on a path; both
                // outcomes are acceptable, we only require no panic.
                let _ = result;
            } else {
                let stats = result.unwrap_or_else(|e| panic!("{} failed: {e}", info.name));
                assert!(stats.converged_round < 2_000_000, "{}", info.name);
            }
        }
    }

    #[test]
    fn bfw_uses_at_most_six_states_everywhere() {
        for g in [
            generators::path(10),
            generators::grid(3, 4),
            generators::complete(8),
        ] {
            let stats = BfwUniform { p: 0.5 }.run(&g, 11, 1_000_000).unwrap();
            assert!(
                stats.distinct_states <= 6,
                "{} states",
                stats.distinct_states
            );
        }
    }

    #[test]
    fn id_based_algorithms_use_many_states() {
        let g = generators::path(24);
        let flood = FloodMaxAlgorithm::default().run(&g, 0, 10_000).unwrap();
        // FloodMax states embed identifiers: at least n distinct.
        assert!(flood.distinct_states >= 24, "{}", flood.distinct_states);
        let bitwise = BitwiseMaxIdAlgorithm::default()
            .run(&g, 0, 100_000)
            .unwrap();
        assert!(bitwise.distinct_states >= 24, "{}", bitwise.distinct_states);
    }

    #[test]
    fn info_fields_are_consistent() {
        for algo in standard_suite(0.5) {
            let info = algo.info();
            assert!(!info.name.is_empty());
            assert!(!info.knowledge.is_empty());
            assert!(!info.state_bound.is_empty());
        }
    }

    #[test]
    fn errors_propagate() {
        let disconnected = bfw_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        for algo in standard_suite(0.5) {
            assert_eq!(
                algo.run(&disconnected, 0, 100).unwrap_err(),
                SimError::Disconnected,
                "{}",
                algo.info().name
            );
        }
        let empty = bfw_graph::Graph::from_edges(0, []).unwrap();
        assert_eq!(
            FloodMaxAlgorithm::default().run(&empty, 0, 10).unwrap_err(),
            SimError::EmptyTopology
        );
    }

    #[test]
    fn measured_runs_match_plain_runs() {
        // Instrumentation is passive: run_measured's RunStats equal
        // run's, and every suite algorithm produces counters.
        let g = generators::complete(12);
        for algo in standard_suite(0.5) {
            let name = algo.info().name;
            let plain = algo.run(&g, 7, 500_000).unwrap();
            let (measured, complexity) = algo.run_measured(&g, 7, 500_000).unwrap();
            assert_eq!(plain, measured, "{name}");
            let c = complexity.unwrap_or_else(|| panic!("{name}: no counters"));
            assert!(c.messages > 0, "{name}");
            assert!(c.bits > 0, "{name}");
            assert!(c.state_bytes > 0, "{name}");
            if algo.info().model == Model::Beeping {
                assert!(c.beeps_sent > 0, "{name}");
                // Clique: every emission reaches n-1 receivers.
                assert_eq!(c.messages, c.beeps_sent * 11, "{name}");
            } else {
                assert_eq!(c.beeps_sent, 0, "{name}");
            }
        }
    }

    #[test]
    fn flood_max_counters_are_the_closed_form() {
        let g = generators::path(24);
        let (stats, complexity) = FloodMaxAlgorithm::default()
            .run_measured(&g, 0, 10_000)
            .unwrap();
        let c = complexity.unwrap();
        // path:24 has 23 edges, ids fit in ceil(log2 24) = 5 bits.
        assert_eq!(c.messages, stats.converged_round * 2 * 23);
        assert_eq!(c.bits, c.messages * 5);
        assert_eq!(c.beeps_sent, 0);
        assert_eq!(c.beeps_heard, 0);
    }

    #[test]
    fn run_measured_default_returns_no_counters() {
        // External CandidateAlgorithm impls that don't override
        // run_measured still work — they just report no counters.
        struct Plain;
        impl CandidateAlgorithm for Plain {
            fn info(&self) -> AlgorithmInfo {
                BfwUniform { p: 0.5 }.info()
            }
            fn run(&self, g: &Graph, seed: u64, max_rounds: u64) -> Result<RunStats, SimError> {
                BfwUniform { p: 0.5 }.run(g, seed, max_rounds)
            }
        }
        let g = generators::complete(8);
        let (stats, complexity) = Plain.run_measured(&g, 3, 500_000).unwrap();
        assert!(stats.converged_round > 0);
        assert_eq!(complexity, None);
    }

    #[test]
    fn flood_max_is_fastest_on_long_path() {
        // The Table 1 ordering: strong model beats weak model.
        let g = generators::path(24);
        let flood = FloodMaxAlgorithm::default().run(&g, 0, 10_000).unwrap();
        let bfw = BfwUniform { p: 0.5 }.run(&g, 0, 10_000_000).unwrap();
        assert!(flood.converged_round < bfw.converged_round);
    }
}
