//! The paper's flow theory (Section 3) as executable code.
//!
//! Definition 5 assigns to each oriented edge `e = (u, v)` in round `t`
//! the flow `ν_t(e) ∈ {−1, 0, +1}`: `+1` when a wave crosses from `u` to
//! `v` (`u` beeping, `v` waiting), `−1` in the opposite direction, `0`
//! otherwise. Along a path the flows add up, and the paper proves:
//!
//! * **Lemma 7 (conservation)** — `ν_t(ω) = ν_{t−1}(ω) + 1{v₁ ∈ B_t} −
//!   1{v_k ∈ B_t}`;
//! * **Corollary 8 (Ohm's law)** — `ν_t(ω) = N_beep_t(v₁) −
//!   N_beep_t(v_k)`;
//! * **Lemma 11** — `|N_beep_t(u) − N_beep_t(v)| ≤ dis(u, v)`.
//!
//! These are *deterministic* consequences of the state machine, so the
//! [`FlowAuditor`] checks them exactly on live executions; any violation
//! is a bug in either the implementation or the paper.

use crate::state::BfwState;
use bfw_graph::{Graph, NodeId};
use bfw_sim::{BeepingProtocol, RoundView};
use rand::Rng;

/// The flow `ν_t(e)` along the oriented edge `(u, v)` (Definition 5),
/// computed from the two endpoint states in round `t`.
///
/// # Example
///
/// ```
/// use bfw_core::{edge_flow, BfwState};
///
/// assert_eq!(edge_flow(BfwState::LeaderBeeping, BfwState::Waiting), 1);
/// assert_eq!(edge_flow(BfwState::Waiting, BfwState::Beeping), -1);
/// assert_eq!(edge_flow(BfwState::Frozen, BfwState::Waiting), 0);
/// ```
#[inline]
pub fn edge_flow(u: BfwState, v: BfwState) -> i64 {
    match (u.beeps(), u.is_waiting(), v.beeps(), v.is_waiting()) {
        (true, _, _, true) => 1,
        (_, true, true, _) => -1,
        _ => 0,
    }
}

/// The flow `ν_t(ω)` along a path given as a vertex sequence
/// (Definition 5). Paths may repeat vertices and edges, exactly as in
/// Definition 4.
///
/// # Panics
///
/// Panics if a vertex index is out of range for `states`.
pub fn path_flow(states: &[BfwState], path: &[NodeId]) -> i64 {
    path.windows(2)
        .map(|w| edge_flow(states[w[0].index()], states[w[1].index()]))
        .sum()
}

/// Samples a random walk of `edges` edges starting at `start` — a valid
/// "path" in the paper's Definition 4 sense (vertices and edges may
/// repeat), used to exercise Ohm's law on non-simple paths.
///
/// Returns `None` if the walk hits a node with no neighbors.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn random_walk_path<R: Rng + ?Sized>(
    g: &Graph,
    start: NodeId,
    edges: usize,
    rng: &mut R,
) -> Option<Vec<NodeId>> {
    let mut path = Vec::with_capacity(edges + 1);
    path.push(start);
    let mut current = start;
    for _ in 0..edges {
        let nbrs = g.neighbors(current);
        if nbrs.is_empty() {
            return None;
        }
        current = nbrs[rng.random_range(0..nbrs.len())];
        path.push(current);
    }
    Some(path)
}

/// Audits the flow theory on a live execution.
///
/// Fed every round through [`on_round`](Self::on_round), the auditor
/// maintains `N_beep_t(u)` for every node and, each round, checks
///
/// 1. **Ohm's law** (Corollary 8) along every registered path,
/// 2. **Lemma 7** (flow conservation) between consecutive rounds,
/// 3. **Lemma 11** (`|N_beep(u) − N_beep(v)| ≤ dis(u, v)`) for the
///    registered paths' endpoints, using the path length as the distance
///    upper bound.
///
/// Violations are collected (they indicate implementation bugs; the
/// properties are theorems).
///
/// # Example
///
/// ```
/// use bfw_core::{Bfw, FlowAuditor};
/// use bfw_sim::Network;
/// use bfw_graph::{generators, NodeId};
///
/// let g = generators::cycle(8);
/// let mut auditor = FlowAuditor::new(8);
/// auditor.register_path((0..8).chain([0]).map(NodeId::new).collect());
/// let mut net = Network::new(Bfw::new(0.5), g.into(), 7);
/// net.run_until(200, |v| {
///     auditor.on_round(v);
///     false
/// });
/// assert!(auditor.violations().is_empty());
/// assert!(auditor.checks_performed() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FlowAuditor {
    n_beep: Vec<u64>,
    paths: Vec<Vec<NodeId>>,
    previous_flows: Vec<Option<i64>>,
    last_states: Option<Vec<BfwState>>,
    violations: Vec<String>,
    checks: u64,
}

impl FlowAuditor {
    /// Creates an auditor for `n` nodes with no registered paths.
    pub fn new(n: usize) -> Self {
        FlowAuditor {
            n_beep: vec![0; n],
            paths: Vec::new(),
            previous_flows: Vec::new(),
            last_states: None,
            violations: Vec::new(),
            checks: 0,
        }
    }

    /// Registers a path (vertex sequence, repeats allowed) to audit each
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty or mentions an out-of-range node.
    pub fn register_path(&mut self, path: Vec<NodeId>) {
        assert!(!path.is_empty(), "path must contain at least one vertex");
        assert!(
            path.iter().all(|u| u.index() < self.n_beep.len()),
            "path mentions out-of-range node"
        );
        self.paths.push(path);
        self.previous_flows.push(None);
    }

    /// Returns `N_beep_t(u)` as of the last observed round.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn n_beep(&self, u: NodeId) -> u64 {
        self.n_beep[u.index()]
    }

    /// Returns all beep counts, indexed by node.
    pub fn n_beeps(&self) -> &[u64] {
        &self.n_beep
    }

    /// Returns the collected violations (empty on a correct
    /// implementation).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Returns how many individual property checks have been evaluated.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// Panics with a diagnostic if any violation was recorded.
    ///
    /// # Panics
    ///
    /// Panics if the audit found a violation.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "flow theory violated: {:?}",
            self.violations
        );
    }

    /// Audits one round of a live execution; call it once per round,
    /// starting at round 0.
    pub fn on_round<P>(&mut self, view: &RoundView<'_, P>)
    where
        P: BeepingProtocol<State = BfwState>,
    {
        self.audit_round(view.round, view.states, view.beeps);
    }

    fn audit_round(&mut self, round: u64, states: &[BfwState], beeps: &[bool]) {
        // Update N_beep with this round's beeps.
        for (c, &b) in self.n_beep.iter_mut().zip(beeps) {
            *c += u64::from(b);
        }
        for (idx, path) in self.paths.iter().enumerate() {
            let flow = path_flow(states, path);
            let first = *path.first().expect("paths are non-empty");
            let last = *path.last().expect("paths are non-empty");

            // Corollary 8 (Ohm's law).
            let expected = self.n_beep[first.index()] as i64 - self.n_beep[last.index()] as i64;
            self.checks += 1;
            if flow != expected {
                self.violations.push(format!(
                    "round {round}: Ohm's law violated on path #{idx}: ν = {flow}, \
                     N_beep({first}) − N_beep({last}) = {expected}"
                ));
            }

            // Lemma 7 (conservation) against the previous round.
            if let Some(prev) = self.previous_flows[idx] {
                let delta = i64::from(beeps[first.index()]) - i64::from(beeps[last.index()]);
                self.checks += 1;
                if flow != prev + delta {
                    self.violations.push(format!(
                        "round {round}: Lemma 7 violated on path #{idx}: \
                         ν_t = {flow}, ν_(t−1) + Δ = {}",
                        prev + delta
                    ));
                }
            }
            self.previous_flows[idx] = Some(flow);

            // Lemma 11, with the path length as a distance upper bound:
            // |N_beep(u) − N_beep(v)| = |ν| ≤ len ≥ dis(u, v).
            self.checks += 1;
            if expected.unsigned_abs() as usize > path.len() - 1 {
                self.violations.push(format!(
                    "round {round}: |N_beep({first}) − N_beep({last})| = {} exceeds \
                     path length {}",
                    expected.abs(),
                    path.len() - 1
                ));
            }
        }
        self.last_states = Some(states.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Bfw, InitialConfig};
    use bfw_graph::generators;
    use bfw_sim::Network;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use BfwState::*;

    #[test]
    fn edge_flow_definition5_exhaustive() {
        // Flow is +1 iff u ∈ B and v ∈ W; −1 iff u ∈ W and v ∈ B; 0
        // otherwise — across all 36 state pairs.
        for u in BfwState::ALL {
            for v in BfwState::ALL {
                let expected = if u.beeps() && v.is_waiting() {
                    1
                } else if u.is_waiting() && v.beeps() {
                    -1
                } else {
                    0
                };
                assert_eq!(edge_flow(u, v), expected, "({u}, {v})");
            }
        }
    }

    #[test]
    fn edge_flow_antisymmetric() {
        for u in BfwState::ALL {
            for v in BfwState::ALL {
                assert_eq!(edge_flow(u, v), -edge_flow(v, u), "({u}, {v})");
            }
        }
    }

    #[test]
    fn path_flow_sums_edges() {
        let states = [LeaderBeeping, Waiting, Beeping, LeaderWaiting];
        let path: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        // Edges: (B•,W◦) = +1, (W◦,B◦) = −1, (B◦,W•) = +1.
        assert_eq!(path_flow(&states, &path), 1);
        // Reversed path gives the negation.
        let rev: Vec<NodeId> = (0..4).rev().map(NodeId::new).collect();
        assert_eq!(path_flow(&states, &rev), -1);
    }

    #[test]
    fn path_flow_bounded_by_length() {
        // Eq. (1): |ν_t(ω)| ≤ k for every state assignment. Alternating
        // B,W cancels (+1, −1, ...); the densest co-directional wave
        // train is B W F B W (two wavefronts moving the same way).
        let alternating = [
            LeaderBeeping,
            Waiting,
            LeaderBeeping,
            Waiting,
            LeaderBeeping,
        ];
        let path: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        assert_eq!(path_flow(&alternating, &path), 0);

        let wave_train = [LeaderBeeping, Waiting, Frozen, Beeping, Waiting];
        let flow = path_flow(&wave_train, &path);
        assert_eq!(flow, 2);
        assert!((flow.unsigned_abs() as usize) < path.len());
    }

    #[test]
    fn path_flow_single_vertex_is_zero() {
        assert_eq!(path_flow(&[LeaderBeeping], &[NodeId::new(0)]), 0);
    }

    #[test]
    fn path_flow_with_repeated_vertices() {
        // Definition 4 allows repeats: a back-and-forth path has zero
        // net flow.
        let states = [LeaderBeeping, Waiting];
        let path = vec![
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(0),
            NodeId::new(1),
        ];
        // Edge flows: +1 (B→W), −1 (W→B), +1 (B→W).
        assert_eq!(path_flow(&states, &path), 1);
    }

    #[test]
    fn random_walk_path_stays_on_edges() {
        let g = generators::grid(4, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let path = random_walk_path(&g, NodeId::new(0), 20, &mut rng).unwrap();
        assert_eq!(path.len(), 21);
        for w in path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn random_walk_none_on_isolated_node() {
        let g = bfw_graph::Graph::from_edges(2, []).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(random_walk_path(&g, NodeId::new(0), 1, &mut rng), None);
    }

    #[test]
    fn auditor_clean_on_real_execution_cycle() {
        let n = 12;
        let g = generators::cycle(n);
        let mut auditor = FlowAuditor::new(n);
        // The full cycle (closed path — endpoints equal, flow must be 0
        // by Ohm's law) plus a diameter path.
        auditor.register_path((0..n).chain([0]).map(NodeId::new).collect());
        auditor.register_path((0..=n / 2).map(NodeId::new).collect());
        let mut net = Network::new(Bfw::new(0.5), g.into(), 99);
        net.run_until(500, |v| {
            auditor.on_round(v);
            false
        });
        auditor.assert_clean();
        assert!(auditor.checks_performed() >= 500 * 2);
    }

    #[test]
    fn auditor_clean_on_random_walk_paths_grid() {
        let g = generators::grid(5, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut auditor = FlowAuditor::new(25);
        for _ in 0..5 {
            let start = NodeId::new(rng.random_range(0..25));
            let path = random_walk_path(&g, start, 15, &mut rng).unwrap();
            auditor.register_path(path);
        }
        let mut net = Network::new(Bfw::new(0.3), g.into(), 17);
        net.run_until(400, |v| {
            auditor.on_round(v);
            false
        });
        auditor.assert_clean();
    }

    #[test]
    fn auditor_two_leader_initialization() {
        // Ohm's law also holds with k-leader initial configurations
        // (Section 3 only needs Eq. (2)).
        let n = 9;
        let bfw = Bfw::new(0.5).with_initial_config(InitialConfig::Nodes(vec![
            NodeId::new(0),
            NodeId::new(n - 1),
        ]));
        let mut auditor = FlowAuditor::new(n);
        auditor.register_path((0..n).map(NodeId::new).collect());
        let mut net = Network::new(bfw, generators::path(n).into(), 4);
        net.run_until(600, |v| {
            auditor.on_round(v);
            false
        });
        auditor.assert_clean();
    }

    #[test]
    fn auditor_detects_fabricated_violation() {
        // Feed the auditor inconsistent data directly to prove it can
        // fail: states say "flow 0" while a node's beep count advanced.
        let mut auditor = FlowAuditor::new(2);
        auditor.register_path(vec![NodeId::new(0), NodeId::new(1)]);
        // Round 0: node 0 beeps, node 1 waits -> flow +1, N = (1, 0). OK.
        auditor.audit_round(0, &[LeaderBeeping, Waiting], &[true, false]);
        assert!(auditor.violations().is_empty());
        // Round 1: claim both wait (flow 0) but node 0 "beeped" again —
        // N = (2, 0) ≠ 0. Ohm's law check must fire.
        auditor.audit_round(1, &[LeaderWaiting, Waiting], &[true, false]);
        assert!(!auditor.violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "flow theory violated")]
    fn assert_clean_panics_on_violation() {
        let mut auditor = FlowAuditor::new(2);
        auditor.register_path(vec![NodeId::new(0), NodeId::new(1)]);
        auditor.audit_round(0, &[LeaderWaiting, Waiting], &[true, false]);
        auditor.assert_clean();
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn register_empty_path_panics() {
        let mut auditor = FlowAuditor::new(2);
        auditor.register_path(vec![]);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn register_out_of_range_path_panics() {
        let mut auditor = FlowAuditor::new(2);
        auditor.register_path(vec![NodeId::new(5)]);
    }

    #[test]
    fn n_beep_accessors() {
        let mut auditor = FlowAuditor::new(2);
        auditor.audit_round(0, &[LeaderBeeping, Waiting], &[true, false]);
        auditor.audit_round(1, &[LeaderFrozen, Waiting], &[false, false]);
        assert_eq!(auditor.n_beep(NodeId::new(0)), 1);
        assert_eq!(auditor.n_beeps(), &[1, 0]);
    }
}
