//! Shared complexity accounting and flight recording for both kernels.
//!
//! The complexity landscape the paper sits in is staked out in **bits
//! and messages**, not just rounds — the diameter-two message chasm
//! (Chatterjee–Pandurangan–Robinson) and the `Θ(D + log n)` bit-rounds
//! bound (Casteigts et al.). This module is the one seam through which
//! both kernels — the scalar [`TickEngine`](crate::TickEngine), whose
//! models sample each tick through the one `sample` argument of
//! [`TickModel::advance`](crate::TickModel::advance), and the
//! bit-parallel [`BitEngine`](crate::BitEngine) — account for what
//! their executions actually transmit:
//!
//! * a [`ComplexityLedger`] accumulating beeps sent/heard, bits of
//!   channel information, message deliveries and per-node state size,
//!   fed once per round (sync) or per activation (async; a stalled
//!   activation, with every node crashed, feeds nothing);
//! * a fixed-capacity ring-buffer [`FlightRecorder`] of recent
//!   [`TraceEvent`]s (scenario events, leader-set changes, anything a
//!   caller records), bounded even in million-node runs — only the
//!   last `capacity` events are retained. `bfw-scenario` renders both
//!   as the `trace` block of its versioned JSON report.
//!
//! **Zero cost when off, passive when on.** [`Instrumentation`] is
//! enum-dispatch around an `Option`: a disabled probe costs one branch
//! per step. An *enabled* probe only reads caches the models already
//! maintain (the beeping `beeps`/`heard` vectors, the stone-age symbol
//! vectors) — it never draws from any RNG stream and never reorders
//! existing draws, so enabling it cannot perturb an execution. That
//! property is pinned by determinism tests in `bfw-scenario`
//! (trace-on/off scenario runs are byte-identical) and the
//! `instrument_overhead` bench keeps the enabled-path tax visible.
//!
//! # Accounting conventions
//!
//! Communication models differ in what a "message" is; the ledger uses
//! one convention across all of them so faceoffs (experiment E19) stay
//! comparable:
//!
//! * **beeps sent** — transmission events: nodes emitting a
//!   non-quiescent signal this round (beeping: beeping nodes;
//!   stone-age: nodes displaying a non-quiescent symbol; async: the
//!   activated node if it displays one).
//! * **beeps heard** — perception events *after* noise: nodes that
//!   perceived at least one non-quiescent signal this round (async: the
//!   activated node, if its observation was non-empty).
//! * **bits** — channel information of the transmissions: one bit per
//!   beep, `⌈log₂ σ⌉` bits per stone-age symbol display.
//! * **messages** — deliveries across edges: for each emitter, one per
//!   neighbor (sync); for each activation, one per alive neighbor read
//!   (async).

use crate::Topology;
use bfw_graph::NodeId;
use std::collections::VecDeque;

/// What one engine step (round or activation) transmitted, as sampled
/// by the model. Models that do not implement sampling contribute an
/// all-zero sample, so the ledger's step counter still advances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundSample {
    /// Nodes that emitted a non-quiescent signal.
    pub emitters: u64,
    /// Nodes that perceived a non-quiescent signal (post-noise).
    pub heard: u64,
    /// Bits of channel information transmitted.
    pub bits: u64,
    /// Signal deliveries across edges.
    pub messages: u64,
}

/// Cumulative complexity counters over an instrumented execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComplexityLedger {
    steps: u64,
    beeps_sent: u64,
    beeps_heard: u64,
    bits: u64,
    messages: u64,
    nodes: usize,
    state_bytes: usize,
}

impl ComplexityLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one step's sample into the counters and refreshes the
    /// state-footprint facts.
    pub fn record(&mut self, sample: RoundSample, nodes: usize, state_bytes: usize) {
        self.steps += 1;
        self.beeps_sent += sample.emitters;
        self.beeps_heard += sample.heard;
        self.bits += sample.bits;
        self.messages += sample.messages;
        self.nodes = nodes;
        self.state_bytes = state_bytes;
    }

    /// Steps accounted (rounds, or activations on the asynchronous
    /// runtime).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total transmission events (see the module-level conventions).
    pub fn beeps_sent(&self) -> u64 {
        self.beeps_sent
    }

    /// Total post-noise perception events.
    pub fn beeps_heard(&self) -> u64 {
        self.beeps_heard
    }

    /// Total bits of channel information transmitted.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Total signal deliveries across edges.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Number of nodes in the instrumented execution.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Size of one node's protocol state in bytes (`size_of` of the
    /// model's state type — the empirical "States" column's footprint).
    pub fn state_bytes_per_node(&self) -> usize {
        self.state_bytes
    }
}

/// One recorded event: a step stamp plus a short kind and free-form
/// detail (e.g. `kind = "scenario-event"`, `detail = "@400 crash-leader
/// -> crashed node 3"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Engine step at which the event was recorded (round or
    /// activation count).
    pub step: u64,
    /// Event category.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A fixed-capacity ring buffer of recent [`TraceEvent`]s.
///
/// When full, recording drops the oldest event and counts the drop, so
/// the recorder's memory stays bounded no matter how long the run is —
/// the property that keeps flight recording viable at million-node
/// scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder retaining the last `capacity` events
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records an event, evicting the oldest if the buffer is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events in chronological order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

/// Counts emitters and their message fan-out over a topology:
/// `emits(i)` says whether node `i` transmits; the result is
/// `(emitters, Σ_{emitting i} deg(i))`, with an `O(n)` clique fast
/// path. Shared by the model samplers.
pub fn fanout(topology: &Topology, mut emits: impl FnMut(usize) -> bool) -> (u64, u64) {
    let n = topology.node_count();
    match topology {
        Topology::Clique(_) => {
            let emitters = (0..n).filter(|&i| emits(i)).count() as u64;
            (emitters, emitters * (n as u64).saturating_sub(1))
        }
        graph_backed => {
            // Branchless accumulation over O(1) degree lookups: with
            // roughly half the nodes emitting, a branch here
            // mispredicts constantly and neighbor iteration costs
            // O(m) — both measurable against the round loop this
            // shadows (see the `instrument_overhead` bench).
            let mut emitters = 0u64;
            let mut messages = 0u64;
            for i in 0..n {
                let b = u64::from(emits(i));
                emitters += b;
                messages += b * graph_backed.degree(NodeId::new(i)) as u64;
            }
            (emitters, messages)
        }
    }
}

/// Slice form of [`fanout`] for samplers whose emission predicate is
/// already a boolean mask (the beeping model's beep cache): static CSR
/// graphs dispatch to the vectorizable [`Graph::masked_fanout`] kernel,
/// everything else falls back to the closure path.
///
/// [`Graph::masked_fanout`]: bfw_graph::Graph::masked_fanout
///
/// # Panics
///
/// Panics if `mask.len()` differs from the topology's node count.
pub fn fanout_mask(topology: &Topology, mask: &[bool]) -> (u64, u64) {
    match topology {
        Topology::Graph(g) => g.masked_fanout(mask),
        other => fanout(other, |i| mask[i]),
    }
}

/// Bits needed to name one of `alphabet` symbols (`⌈log₂ σ⌉`, at
/// least 1) — the per-display channel information of a stone-age
/// symbol.
pub fn bits_per_symbol(alphabet: usize) -> u64 {
    u64::from(usize::BITS - alphabet.saturating_sub(1).leading_zeros()).max(1)
}

/// The per-engine instrumentation seam: `Off` costs one branch per
/// step; `On` carries a boxed probe so the engines stay lean when
/// instrumentation is disabled (the common case).
#[derive(Debug, Clone, Default)]
pub struct Instrumentation {
    probe: Option<Box<Probe>>,
}

#[derive(Debug, Clone)]
struct Probe {
    ledger: ComplexityLedger,
    recorder: Option<FlightRecorder>,
}

impl Instrumentation {
    /// The disabled seam (what engines start with).
    pub fn off() -> Self {
        Self::default()
    }

    /// Returns `true` if the probe is active.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.probe.is_some()
    }

    /// Activates the probe: the ledger always accumulates; a flight
    /// recorder of `recorder_capacity` events is attached when given.
    /// Idempotent on the ledger; a second call can still attach or
    /// keep a recorder.
    pub fn enable(&mut self, recorder_capacity: Option<usize>) {
        let probe = self.probe.get_or_insert_with(|| {
            Box::new(Probe {
                ledger: ComplexityLedger::new(),
                recorder: None,
            })
        });
        if let Some(capacity) = recorder_capacity {
            if probe.recorder.is_none() {
                probe.recorder = Some(FlightRecorder::new(capacity));
            }
        }
    }

    /// The accumulated ledger, if the probe is on.
    pub fn ledger(&self) -> Option<&ComplexityLedger> {
        self.probe.as_ref().map(|p| &p.ledger)
    }

    /// The flight recorder, if one is attached.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.probe.as_ref().and_then(|p| p.recorder.as_ref())
    }

    /// Folds one step's sample into the ledger (no-op when off).
    #[inline]
    pub fn record_step(&mut self, sample: RoundSample, nodes: usize, state_bytes: usize) {
        if let Some(probe) = &mut self.probe {
            probe.ledger.record(sample, nodes, state_bytes);
        }
    }

    /// Records a trace event (no-op when off or no recorder attached).
    pub fn record_event(&mut self, step: u64, kind: &str, detail: impl Into<String>) {
        if let Some(recorder) = self.probe.as_mut().and_then(|p| p.recorder.as_mut()) {
            recorder.record(TraceEvent {
                step,
                kind: kind.to_owned(),
                detail: detail.into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::generators;

    #[test]
    fn ledger_accumulates() {
        let mut ledger = ComplexityLedger::new();
        ledger.record(
            RoundSample {
                emitters: 3,
                heard: 5,
                bits: 3,
                messages: 6,
            },
            8,
            2,
        );
        ledger.record(
            RoundSample {
                emitters: 1,
                heard: 2,
                bits: 1,
                messages: 2,
            },
            8,
            2,
        );
        assert_eq!(ledger.steps(), 2);
        assert_eq!(ledger.beeps_sent(), 4);
        assert_eq!(ledger.beeps_heard(), 7);
        assert_eq!(ledger.bits(), 4);
        assert_eq!(ledger.messages(), 8);
        assert_eq!(ledger.nodes(), 8);
        assert_eq!(ledger.state_bytes_per_node(), 2);
    }

    #[test]
    fn recorder_is_a_ring() {
        let mut rec = FlightRecorder::new(2);
        for step in 0..5u64 {
            rec.record(TraceEvent {
                step,
                kind: "k".into(),
                detail: format!("event {step}"),
            });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.capacity(), 2);
        assert_eq!(rec.dropped(), 3);
        let steps: Vec<u64> = rec.events().map(|e| e.step).collect();
        assert_eq!(steps, vec![3, 4], "oldest evicted, order kept");
        assert!(!rec.is_empty());
    }

    #[test]
    fn capacity_is_clamped() {
        assert_eq!(FlightRecorder::new(0).capacity(), 1);
    }

    #[test]
    fn instrumentation_off_is_inert() {
        let mut instr = Instrumentation::off();
        assert!(!instr.is_on());
        instr.record_step(RoundSample::default(), 4, 1);
        instr.record_event(0, "k", "d");
        assert!(instr.ledger().is_none());
        assert!(instr.recorder().is_none());
    }

    #[test]
    fn instrumentation_enable_paths() {
        let mut instr = Instrumentation::off();
        instr.enable(None);
        assert!(instr.is_on());
        assert!(instr.recorder().is_none());
        instr.record_step(
            RoundSample {
                emitters: 1,
                heard: 1,
                bits: 1,
                messages: 2,
            },
            4,
            1,
        );
        // A second enable attaches a recorder without resetting the ledger.
        instr.enable(Some(8));
        assert_eq!(instr.ledger().unwrap().steps(), 1);
        instr.record_event(7, "k", "d");
        assert_eq!(instr.recorder().unwrap().len(), 1);
    }

    #[test]
    fn fanout_counts_degrees() {
        let t: Topology = generators::path(4).into();
        // Emitters 0 and 1: deg(0) = 1, deg(1) = 2.
        let (emitters, messages) = fanout(&t, |i| i < 2);
        assert_eq!((emitters, messages), (2, 3));
        // Clique fast path matches the materialized graph.
        let clique = Topology::Clique(5);
        let explicit: Topology = generators::complete(5).into();
        let (e1, m1) = fanout(&clique, |i| i % 2 == 0);
        let (e2, m2) = fanout(&explicit, |i| i % 2 == 0);
        assert_eq!((e1, m1), (e2, m2));
        assert_eq!(m1, 3 * 4);
    }

    #[test]
    fn bits_per_symbol_is_ceil_log2() {
        assert_eq!(bits_per_symbol(0), 1);
        assert_eq!(bits_per_symbol(1), 1);
        assert_eq!(bits_per_symbol(2), 1);
        assert_eq!(bits_per_symbol(3), 2);
        assert_eq!(bits_per_symbol(4), 2);
        assert_eq!(bits_per_symbol(5), 3);
        assert_eq!(bits_per_symbol(256), 8);
    }
}
