//! The scenario engine: applies a compiled timeline to a running host.

use crate::{
    DynamicHost, ElectionMonitor, InjectKind, MonitorState, Recovery, ScenarioEvent, ScenarioTrace,
    ScheduledEvent, Timeline,
};
use bfw_graph::{Graph, NodeId, TopologyDelta};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Resolves an [`InjectKind`] into a concrete configuration for the
/// host's protocol (`None` = unsupported, the event is skipped).
pub type Injector<S> = Box<dyn Fn(&InjectKind, usize) -> Option<Vec<S>>>;

/// Drives a [`DynamicHost`] through a perturbed execution.
///
/// The engine owns the compiled timeline, a dedicated ChaCha stream
/// for the randomized event targets (`CrashRandom`, `RecoverRandom`),
/// the partition backlog, and the [`ElectionMonitor`] measuring
/// re-election latency and leader flaps. It keeps no edge set of its
/// own: edge events are checked against the host's live
/// [`topology`](DynamicHost::topology), a partition collects its cut
/// from the cut side's neighbors, and valid edits are forwarded to the
/// host as [`TopologyDelta`] batches, applied in `O(deg)` per edge —
/// the CSR is never rebuilt per event, so per-round churn stays cheap
/// even on graphs with tens of thousands of nodes (see the
/// `churn-scale` experiment). Everything is a pure function of the
/// initial graph, the timeline, and the two seeds (host seed, scenario
/// seed) — running the same scenario twice produces bit-identical event
/// logs and outcomes.
pub struct Engine<H: DynamicHost> {
    host: H,
    events: Vec<ScheduledEvent>,
    next_event: usize,
    horizon: u64,
    rng: ChaCha8Rng,
    monitor: ElectionMonitor,
    injector: Option<Injector<H::State>>,
    partition_backlog: Vec<(NodeId, NodeId)>,
    noise_off_at: Option<u64>,
    log: Vec<String>,
    /// Highest round whose due events have been applied and whose
    /// leader set has been observed (`None` = no round processed yet).
    /// [`run_until`](Self::run_until) consults it so a resumed engine
    /// never re-applies the snapshot round's events or double-feeds its
    /// leader set to the monitor (which would corrupt the stability
    /// streak).
    observed_through: Option<u64>,
    /// Trace bookkeeping (instrumented hosts only): the leader set of
    /// the last `leader-set` trace event.
    traced_leaders: Option<Vec<NodeId>>,
    /// `(disruption round, bits, messages)`: the ledger totals of the
    /// round each disruption opened in, so the channel cost of the
    /// recovery answering it is a subtraction.
    disruption_marks: Vec<(u64, u64, u64)>,
    /// `(bits, messages)` of each completed recovery, aligned with the
    /// monitor's recoveries.
    recovery_costs: Vec<(u64, u64)>,
}

/// The engine's own resumable state, beyond what the host carries: the
/// timeline cursor, the partition backlog, the pending noise-burst
/// expiry, the scenario RNG stream position, the event log so far, and
/// the [`MonitorState`]. Captured by [`Engine::cursor`] after a
/// [`Engine::run_until`], restored by [`Engine::resume`]; together with
/// a host checkpoint (see `bfw_sim::EngineCheckpoint`) it makes a
/// mid-run scenario byte-identically resumable.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCursor {
    /// Index of the next compiled timeline event to fire.
    pub next_event: usize,
    /// Edges removed by partitions and not yet healed.
    pub partition_backlog: Vec<(NodeId, NodeId)>,
    /// Round at which the active noise burst switches off, if any.
    pub noise_off_at: Option<u64>,
    /// `(counter, cursor)` position of the scenario ChaCha8 stream.
    pub rng_position: (u64, usize),
    /// Event-log lines emitted so far (a resumed run's outcome must
    /// list the pre-snapshot events too).
    pub log: Vec<String>,
    /// The election monitor's full state.
    pub monitor: MonitorState,
    /// Highest round already applied and observed (the snapshot round).
    pub observed_through: Option<u64>,
}

/// Result of a completed scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Rounds executed.
    pub rounds_run: u64,
    /// One line per applied (or skipped) event, in firing order.
    pub event_log: Vec<String>,
    /// Completed disruption → stable-leader recoveries.
    pub recoveries: Vec<Recovery>,
    /// Round of the earliest disruption still unanswered when the run
    /// ended.
    pub pending_disruption: Option<u64>,
    /// Unique-leader identity changes across the run.
    pub leader_flaps: u64,
    /// Alive leaders at the end of the run.
    pub final_leaders: Vec<NodeId>,
    /// Alive (non-crashed) nodes at the end of the run.
    pub final_alive: usize,
    /// Edges in the final topology.
    pub final_edges: usize,
}

impl ScenarioOutcome {
    /// Renders the outcome as a deterministic plain-text report (the
    /// CLI's output; byte-identical across runs with the same inputs).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "rounds run:        {}", self.rounds_run);
        let _ = writeln!(out, "events applied:    {}", self.event_log.len());
        for line in &self.event_log {
            let _ = writeln!(out, "  {line}");
        }
        let _ = writeln!(out, "leader flaps:      {}", self.leader_flaps);
        let _ = writeln!(out, "recoveries:        {}", self.recoveries.len());
        for r in &self.recoveries {
            let _ = writeln!(
                out,
                "  disrupted @{} -> leader {} stable from @{} (latency {})",
                r.disrupted_at,
                r.leader,
                r.recovered_at,
                r.latency()
            );
        }
        match self.pending_disruption {
            Some(round) => {
                let _ = writeln!(out, "pending disruption: @{round} (never re-stabilized)");
            }
            None => {
                let _ = writeln!(out, "pending disruption: none");
            }
        }
        let leaders: Vec<String> = self.final_leaders.iter().map(|u| u.to_string()).collect();
        let _ = writeln!(
            out,
            "final leaders:     [{}] ({} alive, {} edges)",
            leaders.join(", "),
            self.final_alive,
            self.final_edges
        );
        out
    }

    /// Mean re-election latency over completed recoveries, if any.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.recoveries.is_empty() {
            return None;
        }
        let total: u64 = self.recoveries.iter().map(Recovery::latency).sum();
        Some(total as f64 / self.recoveries.len() as f64)
    }
}

impl<H: DynamicHost> Engine<H> {
    /// Creates an engine around `host`, whose current topology is
    /// `graph` (only its node count is checked: the engine reads edges
    /// off the host).
    ///
    /// `timeline` is compiled against `horizon` (events past it never
    /// fire); `scenario_seed` drives random event targets and arrival
    /// processes; `stability_window` configures the re-election metric
    /// (see [`ElectionMonitor`]).
    ///
    /// # Panics
    ///
    /// Panics if `graph` and `host` disagree on the node count.
    pub fn new(
        host: H,
        graph: &Graph,
        timeline: &Timeline,
        horizon: u64,
        scenario_seed: u64,
        stability_window: u64,
    ) -> Self {
        assert_eq!(
            graph.node_count(),
            host.node_count(),
            "engine graph must match the host topology"
        );
        Engine::at_round_zero(host, timeline, horizon, scenario_seed, stability_window)
    }

    /// The engine before its first event and observation.
    fn at_round_zero(
        host: H,
        timeline: &Timeline,
        horizon: u64,
        scenario_seed: u64,
        stability_window: u64,
    ) -> Self {
        Engine {
            host,
            events: timeline.compile(horizon, scenario_seed),
            next_event: 0,
            horizon,
            rng: ChaCha8Rng::seed_from_u64(scenario_seed ^ 0x5CE9_A210),
            monitor: ElectionMonitor::new(stability_window),
            injector: None,
            partition_backlog: Vec::new(),
            noise_off_at: None,
            log: Vec::new(),
            observed_through: None,
            traced_leaders: None,
            disruption_marks: Vec::new(),
            recovery_costs: Vec::new(),
        }
    }

    /// Rebuilds an engine mid-run from a snapshot: `host` must already
    /// be built on the snapshot round's topology (not the initial one —
    /// topology events may have fired already) and restored to its
    /// states and fault checkpoint. `timeline`, `horizon` and
    /// `scenario_seed` must be the original run's; the scenario RNG is
    /// re-seeded and fast-forwarded to the cursor's stream position.
    pub fn resume(
        host: H,
        timeline: &Timeline,
        horizon: u64,
        scenario_seed: u64,
        cursor: EngineCursor,
    ) -> Self {
        let mut engine = Engine::at_round_zero(host, timeline, horizon, scenario_seed, 0);
        let (counter, word) = cursor.rng_position;
        engine.rng.set_position(counter, word);
        Engine {
            next_event: cursor.next_event,
            monitor: ElectionMonitor::from_state(cursor.monitor),
            partition_backlog: cursor.partition_backlog,
            noise_off_at: cursor.noise_off_at,
            log: cursor.log,
            observed_through: cursor.observed_through,
            ..engine
        }
    }

    /// Captures the engine's resumable state (see [`EngineCursor`]).
    /// Meaningful after [`run_until`](Self::run_until); pair it with
    /// the host's own checkpoint to snapshot a run.
    pub fn cursor(&self) -> EngineCursor {
        EngineCursor {
            next_event: self.next_event,
            partition_backlog: self.partition_backlog.clone(),
            noise_off_at: self.noise_off_at,
            rng_position: self.rng.position(),
            log: self.log.clone(),
            monitor: self.monitor.snapshot(),
            observed_through: self.observed_through,
        }
    }

    /// Installs the protocol-specific resolver for
    /// [`ScenarioEvent::InjectState`] events (see
    /// [`crate::bfw_injector`] for the BFW one).
    pub fn with_injector(mut self, injector: Injector<H::State>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Returns the host (e.g. to inspect states after a run).
    pub fn host(&self) -> &H {
        &self.host
    }

    /// Runs the scenario to the horizon given at construction and
    /// reports the outcome.
    ///
    /// Events scheduled for round `t` apply after the host has completed
    /// `t` rounds; the monitor then observes the post-event leader set
    /// of that round.
    pub fn run(mut self) -> ScenarioOutcome {
        self.run_until(self.horizon);
        self.into_outcome().0
    }

    /// Advances the run until the host has completed `target` rounds,
    /// with `target`'s due events applied and its leader set observed
    /// (so a snapshot taken here resumes cleanly). On a fresh engine
    /// this processes rounds `0..=target`; on a resumed engine it picks
    /// up right after the snapshot round without re-applying it.
    ///
    /// On an instrumented host it also records the trace: a
    /// `leader-set` event whenever the leader set changes, and the
    /// channel cost of every completed recovery (see
    /// [`trace`](Self::trace)). The bookkeeping only reads the host, so
    /// a traced run's outcome is byte-identical to the untraced one.
    pub fn run_until(&mut self, target: u64) {
        let tracing = self.host.instrumentation_enabled();
        loop {
            let round = self.host.round();
            if self.observed_through != Some(round) {
                self.apply_due_events(round);
                let unique = self.host.unique_leader();
                self.monitor.observe(round, unique.as_slice());
                if tracing {
                    self.trace_round(self.host.leaders());
                }
                self.observed_through = Some(round);
            }
            if round >= target {
                break;
            }
            self.host.step();
        }
    }

    /// The [`ScenarioTrace`] of the rounds run so far — complexity
    /// ledger, flight-recorder dump and per-recovery channel costs —
    /// when the host's instrumentation is on (`None` otherwise; enable
    /// it on the host before constructing the `Engine`).
    pub fn trace(&self) -> Option<ScenarioTrace> {
        self.host.complexity_ledger().map(|ledger| ScenarioTrace {
            ledger: ledger.clone(),
            recorder: self.host.flight_recorder().cloned(),
            recovery_costs: self.recovery_costs.clone(),
        })
    }

    /// Consumes the engine and assembles the outcome of the rounds run
    /// so far, handing back the host so callers can inspect its final
    /// configuration (e.g. the recovery layer's per-node epochs).
    pub fn into_outcome(self) -> (ScenarioOutcome, H) {
        let final_leaders = self.host.leaders();
        let final_alive = (0..self.host.node_count())
            .filter(|&i| !self.host.is_crashed(NodeId::new(i)))
            .count();
        let outcome = ScenarioOutcome {
            rounds_run: self.host.round(),
            event_log: self.log,
            recoveries: self.monitor.recoveries().to_vec(),
            pending_disruption: self.monitor.pending_disruption(),
            leader_flaps: self.monitor.flaps(),
            final_leaders,
            final_alive,
            final_edges: self.host.topology().edge_count(),
        };
        (outcome, self.host)
    }

    /// Records an observed round on an instrumented host: a
    /// `leader-set` event when the set changed, the channel cost of each
    /// newly completed recovery, and a ledger mark for each disruption
    /// still open. A disruption answered in the round it opened (a zero
    /// stability window) has no mark yet, and cost nothing.
    fn trace_round(&mut self, leaders: Vec<NodeId>) {
        if self.traced_leaders.as_ref() != Some(&leaders) {
            let ids: Vec<String> = leaders.iter().map(NodeId::to_string).collect();
            self.host
                .record_trace_event("leader-set", format!("[{}]", ids.join(", ")));
            self.traced_leaders = Some(leaders);
        }
        let (bits, messages) = self
            .host
            .complexity_ledger()
            .map_or((0, 0), |l| (l.bits(), l.messages()));
        let marks = &mut self.disruption_marks;
        for r in &self.monitor.recoveries()[self.recovery_costs.len()..] {
            let (b0, m0) = marks
                .iter()
                .find(|&&(d, _, _)| d == r.disrupted_at)
                .map_or((bits, messages), |&(_, b, m)| (b, m));
            self.recovery_costs.push((bits - b0, messages - m0));
        }
        for &d in self.monitor.pending_disruptions() {
            if !marks.iter().any(|&(r, _, _)| r == d) {
                marks.push((d, bits, messages));
            }
        }
    }

    fn apply_due_events(&mut self, round: u64) {
        if let Some(off_at) = self.noise_off_at {
            if round >= off_at {
                self.host.set_perception_noise(0.0, 0.0);
                self.noise_off_at = None;
                let line = format!("@{round} noise-burst ends");
                if self.host.instrumentation_enabled() {
                    self.host.record_trace_event("scenario-event", line.clone());
                }
                self.log.push(line);
                self.monitor.mark_disruption(round);
            }
        }
        while self.next_event < self.events.len() && self.events[self.next_event].round <= round {
            let event = self.events[self.next_event].event.clone();
            self.next_event += 1;
            let (note, applied) = self.apply(round, &event);
            let line = format!("@{round} {event} -> {note}");
            if self.host.instrumentation_enabled() {
                self.host.record_trace_event("scenario-event", line.clone());
            }
            self.log.push(line);
            // Only events that changed something count as disruptions;
            // a skipped no-op must not reset the stability streak or
            // arm the re-election metric.
            if applied {
                self.monitor.mark_disruption(round);
            }
        }
    }

    /// Forwards one validated edge mutation to the host as a
    /// single-edge delta.
    fn push_edge(&mut self, u: NodeId, v: NodeId, add: bool) {
        let mut delta = TopologyDelta::new();
        if add {
            delta.add_edge(u, v);
        } else {
            delta.remove_edge(u, v);
        }
        self.host.apply_delta(&delta);
    }

    /// Applies one event, returning the log note and whether the event
    /// actually changed the system (skipped no-ops return `false`).
    fn apply(&mut self, round: u64, event: &ScenarioEvent) -> (String, bool) {
        let n = self.host.node_count();
        match event {
            ScenarioEvent::CrashNode(u) => {
                if u.index() >= n {
                    return (format!("skipped (node {u} out of range, {n} nodes)"), false);
                }
                if self.host.is_crashed(*u) {
                    return (format!("skipped (node {u} already crashed)"), false);
                }
                self.host.crash(*u);
                (format!("crashed node {u}"), true)
            }
            ScenarioEvent::CrashRandom => {
                let alive: Vec<NodeId> = (0..self.host.node_count())
                    .map(NodeId::new)
                    .filter(|&u| !self.host.is_crashed(u))
                    .collect();
                if alive.is_empty() {
                    return ("skipped (no alive node)".to_owned(), false);
                }
                let u = alive[self.rng.random_range(0..alive.len())];
                self.host.crash(u);
                (format!("crashed node {u}"), true)
            }
            ScenarioEvent::CrashLeader => match self.host.leaders().first() {
                Some(&u) => {
                    self.host.crash(u);
                    (format!("crashed leader {u}"), true)
                }
                None => ("skipped (no leader alive)".to_owned(), false),
            },
            ScenarioEvent::RecoverNode(u) => {
                if u.index() >= n {
                    (format!("skipped (node {u} out of range, {n} nodes)"), false)
                } else if self.host.is_crashed(*u) {
                    self.host.recover(*u);
                    (format!("recovered node {u}"), true)
                } else {
                    (format!("skipped (node {u} alive)"), false)
                }
            }
            ScenarioEvent::RecoverRandom => {
                let crashed: Vec<NodeId> = (0..self.host.node_count())
                    .map(NodeId::new)
                    .filter(|&u| self.host.is_crashed(u))
                    .collect();
                if crashed.is_empty() {
                    return ("skipped (no crashed node)".to_owned(), false);
                }
                let u = crashed[self.rng.random_range(0..crashed.len())];
                self.host.recover(u);
                (format!("recovered node {u}"), true)
            }
            ScenarioEvent::RecoverAll => {
                let crashed: Vec<NodeId> = (0..self.host.node_count())
                    .map(NodeId::new)
                    .filter(|&u| self.host.is_crashed(u))
                    .collect();
                for &u in &crashed {
                    self.host.recover(u);
                }
                (
                    format!("recovered {} node(s)", crashed.len()),
                    !crashed.is_empty(),
                )
            }
            ScenarioEvent::AddEdge(u, v) => match self.host.topology().check_add_edge(*u, *v) {
                Ok(()) => {
                    self.push_edge(*u, *v, true);
                    (format!("added edge ({u}, {v})"), true)
                }
                Err(e) => (format!("skipped ({e})"), false),
            },
            ScenarioEvent::RemoveEdge(u, v) => match self.host.topology().check_remove_edge(*u, *v)
            {
                Ok(()) => {
                    self.push_edge(*u, *v, false);
                    (format!("removed edge ({u}, {v})"), true)
                }
                Err(e) => (format!("skipped ({e})"), false),
            },
            ScenarioEvent::Partition { side } => {
                let mut members: Vec<NodeId> =
                    side.iter().copied().filter(|u| u.index() < n).collect();
                let ignored = side.len() - members.len();
                members.sort_unstable();
                members.dedup();
                // Each crossing edge has exactly one end on the cut side,
                // so the side's neighbors list it once; sorted `(min,
                // max)` pairs are the order heals and snapshots replay.
                let mut removed = Vec::new();
                for &u in &members {
                    self.host.topology().for_each_neighbor(u, |v| {
                        if members.binary_search(&v).is_err() {
                            removed.push((u.min(v), u.max(v)));
                        }
                    });
                }
                removed.sort_unstable();
                let count = removed.len();
                if count > 0 {
                    let mut delta = TopologyDelta::new();
                    for &(u, v) in &removed {
                        delta.remove_edge(u, v);
                    }
                    self.host.apply_delta(&delta);
                }
                self.partition_backlog.extend(removed);
                let note = if ignored > 0 {
                    format!("cut {count} edge(s), ignored {ignored} out-of-range node id(s)")
                } else {
                    format!("cut {count} edge(s)")
                };
                (note, count > 0)
            }
            ScenarioEvent::Heal => {
                let backlog = std::mem::take(&mut self.partition_backlog);
                let topology = self.host.topology();
                let mut queued = BTreeSet::new();
                let mut delta = TopologyDelta::new();
                for (u, v) in backlog {
                    // A backlog edge can have reappeared through an
                    // AddEdge event in the meantime, or been cut twice
                    // (partition, add-edge, partition); restore each
                    // missing edge once.
                    if topology.check_add_edge(u, v).is_ok() && queued.insert((u.min(v), u.max(v)))
                    {
                        delta.add_edge(u, v);
                    }
                }
                let restored = delta.len();
                if restored > 0 {
                    self.host.apply_delta(&delta);
                }
                (format!("restored {restored} edge(s)"), restored > 0)
            }
            ScenarioEvent::NoiseBurst {
                fn_rate,
                fp_rate,
                rounds,
            } => {
                if self.host.set_perception_noise(*fn_rate, *fp_rate) {
                    self.noise_off_at = Some(round + rounds);
                    (format!("noise on for {rounds} round(s)"), true)
                } else {
                    ("skipped (runtime has no noise model)".to_owned(), false)
                }
            }
            ScenarioEvent::InjectState(kind) => {
                let n = self.host.node_count();
                match self.injector.as_ref().and_then(|inj| inj(kind, n)) {
                    Some(states) => {
                        self.host.set_states(states);
                        (format!("injected {kind}"), true)
                    }
                    None => (format!("skipped (no injector for {kind})"), false),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_core::Bfw;
    use bfw_graph::generators;
    use bfw_sim::Network;

    fn engine_on_cycle(
        n: usize,
        timeline: Timeline,
        horizon: u64,
        seed: u64,
    ) -> Engine<Network<Bfw>> {
        let graph = generators::cycle(n);
        let net = Network::new(Bfw::new(0.5), graph.clone().into(), seed);
        Engine::new(net, &graph, &timeline, horizon, seed, 10)
    }

    #[test]
    fn unperturbed_run_elects_and_records_nothing() {
        let outcome = engine_on_cycle(8, Timeline::new(), 5_000, 1).run();
        assert_eq!(outcome.rounds_run, 5_000);
        assert!(outcome.event_log.is_empty());
        assert!(outcome.recoveries.is_empty());
        assert_eq!(outcome.final_leaders.len(), 1);
        assert_eq!(outcome.final_alive, 8);
    }

    #[test]
    fn crash_leader_then_recover_measures_re_election() {
        // Crash the leader once elected, then recover the node later:
        // the recovered node rejoins in W• and must win again. The
        // crash and the rejoin are *separate* disruptions, each with
        // its own recovery window answered by the same stable leader.
        let timeline = Timeline::new()
            .at(3_000, ScenarioEvent::CrashLeader)
            .at(3_100, ScenarioEvent::RecoverAll);
        let outcome = engine_on_cycle(8, timeline, 20_000, 7).run();
        assert_eq!(outcome.event_log.len(), 2);
        assert!(
            outcome.event_log[0].contains("crashed leader"),
            "{:?}",
            outcome.event_log
        );
        assert_eq!(outcome.recoveries.len(), 2, "{outcome:?}");
        let (crash, rejoin) = (outcome.recoveries[0], outcome.recoveries[1]);
        assert_eq!(crash.disrupted_at, 3_000);
        assert_eq!(rejoin.disrupted_at, 3_100);
        assert_eq!(crash.recovered_at, rejoin.recovered_at);
        assert!(crash.recovered_at >= 3_100, "{crash:?}");
        assert_eq!(crash.latency(), rejoin.latency() + 100);
        assert_eq!(outcome.pending_disruption, None);
        assert_eq!(outcome.final_leaders.len(), 1);
    }

    #[test]
    fn crashing_the_only_leader_without_recovery_never_stabilizes() {
        // BFW is not self-stabilizing: with the unique leader crashed
        // and nobody recovered, no new leader can appear (Section 5).
        let timeline = Timeline::new().at(5_000, ScenarioEvent::CrashLeader);
        let outcome = engine_on_cycle(6, timeline, 8_000, 3).run();
        assert_eq!(outcome.pending_disruption, Some(5_000));
        assert!(outcome.final_leaders.is_empty());
        assert_eq!(outcome.final_alive, 5);
    }

    #[test]
    fn partition_and_heal_round_trip_edges() {
        let timeline = Timeline::new()
            .at(
                10,
                ScenarioEvent::Partition {
                    side: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
                },
            )
            .at(20, ScenarioEvent::Heal);
        let outcome = engine_on_cycle(8, timeline, 30, 5).run();
        assert!(outcome.event_log[0].contains("cut 2 edge(s)"));
        assert!(outcome.event_log[1].contains("restored 2 edge(s)"));
        assert_eq!(outcome.final_edges, 8);
    }

    #[test]
    fn partition_cut_lists_crossing_edges_in_cut_order() {
        // Cycle 0-1-2-3-0, cut {1, 0} (given twice, out of order) vs
        // {2, 3}: the crossing edges are (0, 3) and (1, 2), as sorted
        // (min, max) pairs.
        let id = NodeId::new;
        let timeline = Timeline::new().at(
            5,
            ScenarioEvent::Partition {
                side: vec![id(1), id(0), id(1)],
            },
        );
        let mut engine = engine_on_cycle(4, timeline, 10, 3);
        engine.run_until(5);
        assert_eq!(
            engine.cursor().partition_backlog,
            [(id(0), id(3)), (id(1), id(2))]
        );
        assert_eq!(engine.host().topology().edge_count(), 2);
        assert!(!engine.host().topology().has_edge(id(3), id(0)));
        assert!(engine.host().topology().has_edge(id(0), id(1)));
    }

    #[test]
    fn inject_phantom_waves_goes_leaderless_forever() {
        let timeline = Timeline::new().at(
            100,
            ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves: 1 }),
        );
        let graph = generators::cycle(9);
        let net = Network::new(Bfw::new(0.5), graph.clone().into(), 2);
        let engine =
            Engine::new(net, &graph, &timeline, 2_000, 2, 10).with_injector(crate::bfw_injector());
        let outcome = engine.run();
        assert!(outcome.event_log[0].contains("injected phantom-waves(1)"));
        assert!(outcome.final_leaders.is_empty());
        assert_eq!(outcome.pending_disruption, Some(100));
    }

    #[test]
    fn out_of_range_node_events_are_skipped_not_panics() {
        let timeline = Timeline::new()
            .at(10, ScenarioEvent::CrashNode(NodeId::new(99)))
            .at(20, ScenarioEvent::RecoverNode(NodeId::new(99)))
            .at(
                30,
                ScenarioEvent::Partition {
                    side: vec![NodeId::new(0), NodeId::new(50)],
                },
            )
            .at(40, ScenarioEvent::AddEdge(NodeId::new(0), NodeId::new(77)));
        let outcome = engine_on_cycle(8, timeline, 100, 1).run();
        assert!(
            outcome.event_log[0].contains("skipped (node 99 out of range, 8 nodes)"),
            "{:?}",
            outcome.event_log
        );
        assert!(
            outcome.event_log[1].contains("skipped (node 99 out of range"),
            "{:?}",
            outcome.event_log
        );
        assert!(
            outcome.event_log[2].contains("ignored 1 out-of-range node id(s)"),
            "{:?}",
            outcome.event_log
        );
        assert!(
            outcome.event_log[3].contains("skipped (node 77 out of range"),
            "{:?}",
            outcome.event_log
        );
    }

    #[test]
    fn skipped_no_op_events_do_not_arm_the_monitor() {
        // A recover of an alive node near the horizon changes nothing;
        // it must not leave a phantom "pending disruption" or suppress
        // the stability verdict.
        let timeline = Timeline::new().at(4_950, ScenarioEvent::RecoverNode(NodeId::new(0)));
        let outcome = engine_on_cycle(8, timeline, 5_000, 1).run();
        assert!(
            outcome.event_log[0].contains("skipped (node 0 alive)"),
            "{:?}",
            outcome.event_log
        );
        assert_eq!(outcome.pending_disruption, None, "{}", outcome.to_text());
        assert!(outcome.recoveries.is_empty());
    }

    #[test]
    fn injection_without_injector_is_skipped() {
        let timeline = Timeline::new().at(10, ScenarioEvent::InjectState(InjectKind::Dead));
        let outcome = engine_on_cycle(6, timeline, 5_000, 4).run();
        assert!(outcome.event_log[0].contains("skipped (no injector"));
        // The election itself is unaffected.
        assert_eq!(outcome.final_leaders.len(), 1);
    }

    #[test]
    fn noise_burst_switches_off_after_window() {
        let timeline = Timeline::new().at(
            50,
            ScenarioEvent::NoiseBurst {
                fn_rate: 0.2,
                fp_rate: 0.05,
                rounds: 100,
            },
        );
        let outcome = engine_on_cycle(8, timeline, 10_000, 6).run();
        assert!(outcome.event_log[0].contains("noise on for 100 round(s)"));
        assert!(outcome.event_log[1].contains("noise-burst ends"));
        // Noise can legitimately wipe out every leader (Section 3's
        // guarantees assume reliable hearing); what must hold is that
        // the count never exceeds one after the long quiet tail.
        assert!(outcome.final_leaders.len() <= 1);
    }

    #[test]
    fn run_is_bit_deterministic() {
        let mk = || {
            let timeline = Timeline::new()
                .every(500, 500, 6, ScenarioEvent::CrashRandom)
                .every(700, 500, 6, ScenarioEvent::RecoverRandom)
                .random(
                    0.001,
                    ScenarioEvent::RemoveEdge(NodeId::new(0), NodeId::new(1)),
                );
            engine_on_cycle(10, timeline, 8_000, 11).run().to_text()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn outcome_text_lists_everything() {
        let timeline = Timeline::new().at(1_000, ScenarioEvent::CrashLeader);
        let text = engine_on_cycle(8, timeline, 3_000, 1).run().to_text();
        assert!(text.contains("rounds run:        3000"), "{text}");
        assert!(text.contains("events applied:    1"), "{text}");
        assert!(text.contains("leader flaps:"), "{text}");
        assert!(text.contains("pending disruption:"), "{text}");
    }

    #[test]
    fn mean_latency_averages_recoveries() {
        let outcome = ScenarioOutcome {
            rounds_run: 0,
            event_log: vec![],
            recoveries: vec![
                Recovery {
                    disrupted_at: 0,
                    recovered_at: 10,
                    leader: NodeId::new(0),
                },
                Recovery {
                    disrupted_at: 100,
                    recovered_at: 130,
                    leader: NodeId::new(1),
                },
            ],
            pending_disruption: None,
            leader_flaps: 0,
            final_leaders: vec![],
            final_alive: 0,
            final_edges: 0,
        };
        assert_eq!(outcome.mean_latency(), Some(20.0));
        let empty = ScenarioOutcome {
            recoveries: vec![],
            ..outcome
        };
        assert_eq!(empty.mean_latency(), None);
    }
}
