//! Scenario monitors: re-election latency and leader stability.

use bfw_graph::NodeId;

/// One measured recovery: a disruption followed by the return of a
/// unique leader that stayed stable for the configured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Round of the disruption this recovery answers.
    pub disrupted_at: u64,
    /// First round of the stable single-leader window.
    pub recovered_at: u64,
    /// The re-elected leader.
    pub leader: NodeId,
}

impl Recovery {
    /// Rounds from disruption to the start of the stable window.
    pub fn latency(&self) -> u64 {
        self.recovered_at - self.disrupted_at
    }
}

/// The full serializable state of an [`ElectionMonitor`], captured by
/// [`ElectionMonitor::snapshot`] and restored by
/// [`ElectionMonitor::from_state`]. Part of the scenario snapshot
/// format: resuming a run must continue open recovery windows and
/// stability streaks exactly where the snapshot left them, or the
/// resumed outcome would diverge from the straight run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorState {
    /// Stable rounds required before a recovery is recorded.
    pub stability_window: u64,
    /// Rounds of disruptions whose recovery windows are still open.
    pub open_disruptions: Vec<u64>,
    /// Leader of the stability streak in progress, if any.
    pub streak_leader: Option<NodeId>,
    /// Length of the stability streak in progress.
    pub streak_len: u64,
    /// Last observed unique leader (for flap counting).
    pub last_unique: Option<NodeId>,
    /// Unique-leader identity changes observed so far.
    pub flaps: u64,
    /// Completed recoveries so far.
    pub recoveries: Vec<Recovery>,
}

/// Tracks leader dynamics across a perturbed run.
///
/// * **Re-election latency** — every disruption opens its *own* window:
///   the monitor records one [`Recovery`] per open disruption at the
///   first round from which a unique leader persists unchanged for
///   `stability_window` consecutive rounds. A second disruption
///   arriving while earlier windows are still open is **not** merged
///   into them — it gets its own latency, measured from its own round
///   (disruptions landing in the same round are one disturbance and
///   share a window). The completing stable leader answers all open
///   windows at once, so `recoveries()` may contain several entries
///   with the same `recovered_at` and distinct `disrupted_at`s.
/// * **Leader flaps** — the number of times the unique-leader identity
///   changes across the run (`a → b` counts one flap, regardless of
///   leaderless gaps in between; the initial appearance is not a flap).
#[derive(Debug, Clone)]
pub struct ElectionMonitor {
    stability_window: u64,
    open_disruptions: Vec<u64>,
    streak_leader: Option<NodeId>,
    streak_len: u64,
    last_unique: Option<NodeId>,
    flaps: u64,
    recoveries: Vec<Recovery>,
}

impl ElectionMonitor {
    /// Creates a monitor requiring `stability_window` unchanged rounds
    /// before a recovery is recorded (0 means "any single-leader round
    /// counts").
    pub fn new(stability_window: u64) -> Self {
        ElectionMonitor {
            stability_window,
            open_disruptions: Vec::new(),
            streak_leader: None,
            streak_len: 0,
            last_unique: None,
            flaps: 0,
            recoveries: Vec::new(),
        }
    }

    /// Marks a disruption at `round` (called by the engine when it
    /// applies events). Several disruptions in the same round count as
    /// one disturbance; a disruption at a later round opens a separate
    /// recovery window.
    pub fn mark_disruption(&mut self, round: u64) {
        if self.open_disruptions.last() != Some(&round) {
            self.open_disruptions.push(round);
        }
        // A disruption breaks any stability streak in progress.
        self.streak_leader = None;
        self.streak_len = 0;
    }

    /// Feeds the leader set of one round. Only a set of exactly one
    /// leader counts, so the engine passes the host's unique leader (an
    /// empty slice for zero or several).
    pub fn observe(&mut self, round: u64, leaders: &[NodeId]) {
        let unique = if leaders.len() == 1 {
            Some(leaders[0])
        } else {
            None
        };

        if let Some(u) = unique {
            if let Some(prev) = self.last_unique {
                if prev != u {
                    self.flaps += 1;
                }
            }
            self.last_unique = Some(u);
        }

        match (unique, self.streak_leader) {
            (Some(u), Some(s)) if u == s => self.streak_len += 1,
            (Some(u), _) => {
                self.streak_leader = Some(u);
                self.streak_len = 1;
            }
            (None, _) => {
                self.streak_leader = None;
                self.streak_len = 0;
            }
        }

        if let Some(leader) = self.streak_leader {
            if !self.open_disruptions.is_empty() && self.streak_len > self.stability_window {
                let recovered_at = round + 1 - self.streak_len;
                for &disrupted_at in &self.open_disruptions {
                    self.recoveries.push(Recovery {
                        disrupted_at,
                        recovered_at,
                        leader,
                    });
                }
                self.open_disruptions.clear();
            }
        }
    }

    /// Returns the completed recoveries, in order.
    pub fn recoveries(&self) -> &[Recovery] {
        &self.recoveries
    }

    /// Returns the number of unique-leader identity changes observed.
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Returns the round of the earliest disruption whose recovery
    /// window is still open (if any).
    pub fn pending_disruption(&self) -> Option<u64> {
        self.open_disruptions.first().copied()
    }

    /// Returns the rounds of all disruptions whose recovery windows are
    /// still open, in arrival order.
    pub fn pending_disruptions(&self) -> &[u64] {
        &self.open_disruptions
    }

    /// Captures the monitor's full state for a scenario snapshot.
    pub fn snapshot(&self) -> MonitorState {
        MonitorState {
            stability_window: self.stability_window,
            open_disruptions: self.open_disruptions.clone(),
            streak_leader: self.streak_leader,
            streak_len: self.streak_len,
            last_unique: self.last_unique,
            flaps: self.flaps,
            recoveries: self.recoveries.clone(),
        }
    }

    /// Rebuilds a monitor from a captured [`MonitorState`] (the inverse
    /// of [`snapshot`](Self::snapshot)).
    pub fn from_state(state: MonitorState) -> Self {
        ElectionMonitor {
            stability_window: state.stability_window,
            open_disruptions: state.open_disruptions,
            streak_leader: state.streak_leader,
            streak_len: state.streak_len,
            last_unique: state.last_unique,
            flaps: state.flaps,
            recoveries: state.recoveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn overlapping_disruptions_get_their_own_windows() {
        // A second disruption while the first window is open must not
        // be merged: each gets a Recovery with its own latency.
        let mut m = ElectionMonitor::new(2);
        m.observe(0, &[n(0)]);
        m.mark_disruption(1);
        m.observe(1, &[]); // leaderless
        m.mark_disruption(2); // second disruption while armed
        m.observe(2, &[]);
        m.observe(3, &[n(4)]);
        m.observe(4, &[n(4)]);
        m.observe(5, &[n(4)]); // streak of 3 > window of 2
        assert_eq!(
            m.recoveries(),
            &[
                Recovery {
                    disrupted_at: 1,
                    recovered_at: 3,
                    leader: n(4)
                },
                Recovery {
                    disrupted_at: 2,
                    recovered_at: 3,
                    leader: n(4)
                }
            ]
        );
        assert_eq!(m.recoveries()[0].latency(), 2);
        assert_eq!(m.recoveries()[1].latency(), 1);
        assert_eq!(m.pending_disruption(), None);
        assert!(m.pending_disruptions().is_empty());
    }

    #[test]
    fn same_round_disruptions_share_one_window() {
        let mut m = ElectionMonitor::new(0);
        m.mark_disruption(5);
        m.mark_disruption(5); // e.g. a crash and an edge cut in round 5
        m.observe(5, &[]);
        m.observe(6, &[n(2)]);
        assert_eq!(
            m.recoveries(),
            &[Recovery {
                disrupted_at: 5,
                recovered_at: 6,
                leader: n(2)
            }]
        );
    }

    #[test]
    fn unstable_leaders_do_not_count_as_recovery() {
        let mut m = ElectionMonitor::new(3);
        m.mark_disruption(0);
        for round in 0..20 {
            // Leader alternates every round: never 4 stable rounds.
            m.observe(round, &[n((round % 2) as usize)]);
        }
        assert!(m.recoveries().is_empty());
        assert_eq!(m.pending_disruption(), Some(0));
        assert_eq!(m.flaps(), 19);
    }

    #[test]
    fn flaps_count_identity_changes_across_gaps() {
        let mut m = ElectionMonitor::new(0);
        m.observe(0, &[n(1)]);
        m.observe(1, &[]); // gap
        m.observe(2, &[n(1)]); // same leader: no flap
        m.observe(3, &[n(2)]); // flap
        m.observe(4, &[n(2), n(3)]); // not unique: ignored
        m.observe(5, &[n(3)]); // flap
        assert_eq!(m.flaps(), 2);
    }

    #[test]
    fn zero_window_records_first_single_round() {
        let mut m = ElectionMonitor::new(0);
        m.mark_disruption(5);
        m.observe(5, &[]);
        m.observe(6, &[n(2)]);
        assert_eq!(
            m.recoveries(),
            &[Recovery {
                disrupted_at: 5,
                recovered_at: 6,
                leader: n(2)
            }]
        );
    }

    #[test]
    fn disruption_resets_running_streak() {
        let mut m = ElectionMonitor::new(2);
        m.mark_disruption(0);
        m.observe(0, &[n(1)]);
        m.observe(1, &[n(1)]);
        // Disruption right before the streak would complete.
        m.mark_disruption(2);
        m.observe(2, &[n(1)]);
        m.observe(3, &[n(1)]);
        m.observe(4, &[n(1)]);
        // Streak restarted at round 2; completes at round 4 and answers
        // both open windows, each with its own latency.
        assert_eq!(
            m.recoveries(),
            &[
                Recovery {
                    disrupted_at: 0,
                    recovered_at: 2,
                    leader: n(1)
                },
                Recovery {
                    disrupted_at: 2,
                    recovered_at: 2,
                    leader: n(1)
                }
            ]
        );
    }

    #[test]
    fn stable_run_without_disruption_records_nothing() {
        let mut m = ElectionMonitor::new(1);
        for round in 0..10 {
            m.observe(round, &[n(0)]);
        }
        assert!(m.recoveries().is_empty());
        assert_eq!(m.pending_disruption(), None);
    }
}
