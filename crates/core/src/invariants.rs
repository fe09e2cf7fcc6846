//! The paper's deterministic lemmas as runtime checks.
//!
//! Section 3's results are theorems about *every* execution of BFW, so
//! they double as a powerful test oracle: run the protocol, assert the
//! lemmas each round. [`InvariantChecker`] verifies, per round,
//!
//! * **Claim 6** — all nine one-step structural implications
//!   (Eqs. (3)–(11)),
//! * **Lemma 9** — at least one leader exists,
//! * monotonicity — the leader set never grows (no transition enters the
//!   leader half of Figure 1),
//! * **Lemma 11** — `|N_beep_t(u) − N_beep_t(v)| ≤ dis(u, v)` for all
//!   pairs (optional: `O(n²)` per round).
//!
//! Violations are collected into an [`InvariantReport`]; any violation
//! is an implementation bug.

use crate::state::BfwState;
use bfw_graph::{algo::DistanceMatrix, Graph, NodeId};
use bfw_sim::{BeepingProtocol, RoundView};

/// Outcome of an invariant audit (see [`InvariantChecker`]).
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    violations: Vec<String>,
    rounds_checked: u64,
}

impl InvariantReport {
    /// Returns the collected violation messages.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Returns `true` if no violation was recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Returns the number of observed rounds.
    pub fn rounds_checked(&self) -> u64 {
        self.rounds_checked
    }
}

/// Checks Claim 6, Lemma 9, Lemma 11 and leader-set monotonicity on a
/// live BFW execution, one [`on_round`](Self::on_round) call per round
/// from the [`Network::run_until`](bfw_sim::Network::run_until)
/// predicate.
///
/// # Example
///
/// ```
/// use bfw_core::{Bfw, InvariantChecker};
/// use bfw_sim::Network;
/// use bfw_graph::generators;
///
/// let g = generators::grid(3, 4);
/// let mut checker = InvariantChecker::new(&g).with_lemma11(true);
/// let mut net = Network::new(Bfw::new(0.5), g.into(), 5);
/// net.run_until(300, |v| {
///     checker.on_round(v);
///     false
/// });
/// assert!(checker.report().is_clean());
/// ```
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    graph: Graph,
    distances: Option<DistanceMatrix>,
    n_beep: Vec<u64>,
    prev: Option<(Vec<BfwState>, Vec<bool>)>,
    prev_leaders: Option<usize>,
    report: InvariantReport,
}

impl InvariantChecker {
    /// Creates a checker for executions on `graph` (the checker needs
    /// the adjacency to verify the neighborhood implications (6), (10),
    /// (11)). Lemma 11 checking starts disabled.
    pub fn new(graph: &Graph) -> Self {
        InvariantChecker {
            graph: graph.clone(),
            distances: None,
            n_beep: vec![0; graph.node_count()],
            prev: None,
            prev_leaders: None,
            report: InvariantReport::default(),
        }
    }

    /// Enables (or disables) the all-pairs Lemma 11 check. Enabling
    /// builds a [`DistanceMatrix`] (`O(n·m)` once, `O(n²)` per round).
    pub fn with_lemma11(mut self, enabled: bool) -> Self {
        self.distances = enabled.then(|| DistanceMatrix::new(&self.graph));
        self
    }

    /// Returns the audit report.
    pub fn report(&self) -> &InvariantReport {
        &self.report
    }

    /// Panics with diagnostics if any violation was recorded.
    ///
    /// # Panics
    ///
    /// Panics if the audit found a violation.
    pub fn assert_clean(&self) {
        assert!(
            self.report.is_clean(),
            "BFW invariants violated: {:?}",
            self.report.violations
        );
    }

    /// Checks one round of a live execution; call it once per round,
    /// starting at round 0.
    pub fn on_round<P>(&mut self, view: &RoundView<'_, P>)
    where
        P: BeepingProtocol<State = BfwState>,
    {
        self.check_round(view.round, view.states, view.beeps);
    }

    fn violate(&mut self, round: u64, message: String) {
        self.report
            .violations
            .push(format!("round {round}: {message}"));
    }

    fn check_round(&mut self, round: u64, states: &[BfwState], beeps: &[bool]) {
        let n = states.len();
        // Lemma 9: at least one leader.
        let leaders = states.iter().filter(|s| s.is_leader()).count();
        if leaders == 0 {
            self.violate(round, "Lemma 9 violated: no leader remains".to_owned());
        }
        // Monotonicity of the leader set.
        if let Some(prev_leaders) = self.prev_leaders {
            if leaders > prev_leaders {
                self.violate(
                    round,
                    format!("leader count increased from {prev_leaders} to {leaders}"),
                );
            }
        }
        self.prev_leaders = Some(leaders);

        // Beep flags must agree with the states.
        for (i, s) in states.iter().enumerate() {
            if beeps[i] != s.beeps() {
                self.violate(
                    round,
                    format!("beep flag of node {i} disagrees with state {s}"),
                );
            }
        }

        if let Some((prev_states, prev_beeps)) = self.prev.take() {
            self.check_claim6(round, &prev_states, &prev_beeps, states);
            self.prev = Some((prev_states, prev_beeps));
        }

        // Update N_beep and check Lemma 11.
        for (c, &b) in self.n_beep.iter_mut().zip(beeps) {
            *c += u64::from(b);
        }
        if let Some(dm) = &self.distances {
            for u in 0..n {
                for v in (u + 1)..n {
                    let gap = self.n_beep[u].abs_diff(self.n_beep[v]);
                    match dm.get(NodeId::new(u), NodeId::new(v)) {
                        Some(d) if gap <= u64::from(d) => {}
                        Some(d) => {
                            self.report.violations.push(format!(
                                "round {round}: Lemma 11 violated: |N_beep({u}) − N_beep({v})| \
                                 = {gap} > dis = {d}"
                            ));
                        }
                        None => {
                            self.report.violations.push(format!(
                                "round {round}: graph disconnected between {u} and {v}"
                            ));
                        }
                    }
                }
            }
        }

        self.prev = Some((states.to_vec(), beeps.to_vec()));
        self.report.rounds_checked += 1;
    }

    /// Claim 6: one-step implications between round `t` (prev) and
    /// `t+1` (next). `prev_beeps[u] ⇔ u ∈ B_t`.
    fn check_claim6(
        &mut self,
        round: u64,
        prev: &[BfwState],
        prev_beeps: &[bool],
        next: &[BfwState],
    ) {
        let n = prev.len();
        for u in 0..n {
            let (pu, nu) = (prev[u], next[u]);
            // Eq. (3): u ∈ W_t ⇒ u ∉ F_{t+1}.
            if pu.is_waiting() && nu.is_frozen() {
                self.violate(round, format!("Eq.(3): node {u} went W → F"));
            }
            // Eq. (4): u ∈ B_t ⇒ u ∈ F_{t+1}.
            if pu.beeps() && !nu.is_frozen() {
                self.violate(round, format!("Eq.(4): node {u} beeped but is not frozen"));
            }
            // Eq. (5): u ∈ F_t ⇒ u ∈ W_{t+1}.
            if pu.is_frozen() && !nu.is_waiting() {
                self.violate(round, format!("Eq.(5): node {u} left F without entering W"));
            }
            // Eq. (7): u ∈ W_{t+1} ⇒ u ∉ B_t (checked backward).
            if nu.is_waiting() && pu.beeps() {
                self.violate(round, format!("Eq.(7): node {u} went B → W"));
            }
            // Eq. (8): u ∈ B_{t+1} ⇒ u ∈ W_t.
            if nu.beeps() && !pu.is_waiting() {
                self.violate(
                    round,
                    format!("Eq.(8): node {u} beeps without having waited"),
                );
            }
            // Eq. (9): u ∈ F_{t+1} ⇒ u ∈ B_t.
            if nu.is_frozen() && !pu.beeps() {
                self.violate(round, format!("Eq.(9): node {u} froze without beeping"));
            }
            // Eq. (11): u ∈ B◦_{t+1} ⇒ some neighbor beeped in round t
            // — unless u was an eliminated leader (then it heard a
            // neighbor beep too) — in all cases a neighbor of u was in
            // B_t.
            if nu == BfwState::Beeping {
                let any = self
                    .graph
                    .neighbors(NodeId::new(u))
                    .iter()
                    .any(|v| prev_beeps[v.index()]);
                if !any {
                    self.violate(
                        round,
                        format!("Eq.(11): node {u} is B◦ without a beeping neighbor"),
                    );
                }
            }
        }
        // Eq. (6): u ∈ B_t, v ∈ W_t, {u,v} ∈ E ⇒ v ∈ B◦_{t+1}.
        // Eq. (10): u ∈ F_{t+1}... (checked in its round-t form below).
        let edges: Vec<(NodeId, NodeId)> = self.graph.edges().collect();
        for (u, v) in edges {
            for (a, b) in [(u, v), (v, u)] {
                if prev[a.index()].beeps()
                    && prev[b.index()].is_waiting()
                    && next[b.index()] != BfwState::Beeping
                {
                    self.violate(
                        round,
                        format!("Eq.(6): {b} waited next to beeping {a} but is not B◦"),
                    );
                }
                // Eq. (10): u ∈ F_t ∧ v ∈ W_t ⇒ v ∈ F_{t−1}; forward
                // form: if u ∈ B_t and v ∈ F_t... the paper's (10) needs
                // round t−1, equivalent forward: u ∈ F_{t+1} ∧ v ∈
                // W_{t+1} ⇒ v ∈ F_t.
                if next[a.index()].is_frozen()
                    && next[b.index()].is_waiting()
                    && !prev[b.index()].is_frozen()
                {
                    self.violate(
                        round,
                        format!(
                            "Eq.(10): {a} frozen next to waiting {b}, but {b} was not frozen \
                             in the previous round"
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Bfw, InitialConfig};
    use bfw_graph::generators;
    use bfw_sim::Network;
    use BfwState::*;

    fn run_checked(g: Graph, p: f64, seed: u64, rounds: u64, lemma11: bool) -> InvariantChecker {
        let mut checker = InvariantChecker::new(&g).with_lemma11(lemma11);
        let mut net = Network::new(Bfw::new(p), g.into(), seed);
        net.run_until(rounds, |v| {
            checker.on_round(v);
            false
        });
        checker
    }

    #[test]
    fn clean_on_cycle() {
        let checker = run_checked(generators::cycle(10), 0.5, 1, 400, true);
        checker.assert_clean();
        assert_eq!(checker.report().rounds_checked(), 401);
    }

    #[test]
    fn clean_on_path_and_grid_and_star() {
        for (g, seed) in [
            (generators::path(15), 2u64),
            (generators::grid(4, 4), 3),
            (generators::star(12), 4),
            (generators::complete(8), 5),
            (generators::balanced_tree(2, 3), 6),
        ] {
            let checker = run_checked(g, 0.5, seed, 300, true);
            checker.assert_clean();
        }
    }

    #[test]
    fn clean_with_small_and_large_p() {
        for p in [0.05, 0.95] {
            let checker = run_checked(generators::cycle(9), p, 7, 300, false);
            checker.assert_clean();
        }
    }

    #[test]
    fn clean_with_two_leader_init() {
        let n = 13;
        let g = generators::path(n);
        let bfw = Bfw::new(0.5).with_initial_config(InitialConfig::Nodes(vec![
            NodeId::new(0),
            NodeId::new(n - 1),
        ]));
        let mut checker = InvariantChecker::new(&g).with_lemma11(true);
        let mut net = Network::new(bfw, g.into(), 11);
        net.run_until(2_000, |v| {
            checker.on_round(v);
            false
        });
        checker.assert_clean();
    }

    #[test]
    fn detects_fabricated_lemma9_violation() {
        let g = generators::path(2);
        let mut checker = InvariantChecker::new(&g);
        checker.check_round(0, &[Waiting, Waiting], &[false, false]);
        assert!(!checker.report().is_clean());
        assert!(checker.report().violations()[0].contains("Lemma 9"));
    }

    #[test]
    fn detects_fabricated_claim6_violations() {
        let g = generators::path(2);
        // W → F directly violates Eq. (3) (and Eq. (9)).
        let mut checker = InvariantChecker::new(&g);
        checker.check_round(0, &[LeaderWaiting, Waiting], &[false, false]);
        checker.check_round(1, &[LeaderFrozen, Waiting], &[false, false]);
        let joined = checker.report().violations().join("\n");
        assert!(joined.contains("Eq.(3)"), "{joined}");
        assert!(joined.contains("Eq.(9)"), "{joined}");
    }

    #[test]
    fn detects_fabricated_eq6_violation() {
        let g = generators::path(2);
        let mut checker = InvariantChecker::new(&g);
        // Node 0 beeps next to waiting node 1...
        checker.check_round(0, &[LeaderBeeping, Waiting], &[true, false]);
        // ...but node 1 "fails" to relay (stays Waiting). Eq. (6) fires
        // (and others).
        checker.check_round(1, &[LeaderFrozen, Waiting], &[false, false]);
        let joined = checker.report().violations().join("\n");
        assert!(joined.contains("Eq.(6)"), "{joined}");
    }

    #[test]
    fn detects_fabricated_monotonicity_violation() {
        let g = generators::path(2);
        let mut checker = InvariantChecker::new(&g);
        checker.check_round(0, &[LeaderWaiting, Waiting], &[false, false]);
        checker.check_round(1, &[LeaderWaiting, LeaderWaiting], &[false, false]);
        let joined = checker.report().violations().join("\n");
        assert!(joined.contains("leader count increased"), "{joined}");
    }

    #[test]
    fn detects_beep_flag_mismatch() {
        let g = generators::path(2);
        let mut checker = InvariantChecker::new(&g);
        checker.check_round(0, &[LeaderBeeping, Waiting], &[false, false]);
        assert!(checker.report().violations()[0].contains("beep flag"));
    }

    #[test]
    fn detects_fabricated_lemma11_violation() {
        let g = generators::path(3);
        let mut checker = InvariantChecker::new(&g).with_lemma11(true);
        // Node 0 "beeps" twice in a row (impossible under the protocol):
        // gap 2 > dis(0, 1) = 1 — Lemma 11 must fire (other checks fire
        // too, which is fine).
        checker.check_round(
            0,
            &[LeaderBeeping, LeaderWaiting, LeaderWaiting],
            &[true, false, false],
        );
        checker.check_round(
            1,
            &[LeaderBeeping, LeaderWaiting, LeaderWaiting],
            &[true, false, false],
        );
        let joined = checker.report().violations().join("\n");
        assert!(joined.contains("Lemma 11"), "{joined}");
    }

    #[test]
    #[should_panic(expected = "invariants violated")]
    fn assert_clean_panics() {
        let g = generators::path(2);
        let mut checker = InvariantChecker::new(&g);
        checker.check_round(0, &[Waiting, Waiting], &[false, false]);
        checker.assert_clean();
    }
}
