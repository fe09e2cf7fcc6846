//! Scenario lifecycle: `step`, snapshot, `resume` — a run as a value.
//!
//! `bfw scenario run` executes a spec start to finish. The lifecycle
//! verbs split that run at any round: [`step_bfw_scenario`] advances a
//! fresh scenario N rounds and captures an [`EngineSnapshot`];
//! [`resume_step_bfw_scenario`] picks a snapshot up and advances it
//! further; [`resume_run_bfw_scenario`] drives one to the horizon and
//! hands back the [`ScenarioOutcome`]. The contract is byte-exactness:
//! stepping N then M rounds produces the *identical* outcome — event
//! log, recoveries, flap counts, leaders — as one straight run of
//! N + M rounds at the same seed, on every kernel and at every thread
//! count.
//!
//! A snapshot is everything the run is: the normalized spec (compiled
//! all-`at` timeline, pinned seed), the topology at the snapshot round
//! (events may have rewired it), per-node protocol states, the fault
//! layer's crash mask and noise channels, every per-node ChaCha stream
//! position, the async scheduler half when there is one, and the
//! engine's own cursor (timeline index, partition backlog, noise
//! expiry, scenario-RNG position, event log, election-monitor state).
//! Serialized as a versioned `bfw/engine-snapshot` document
//! ([`EngineSnapshot::to_json_value`] / [`EngineSnapshot::from_json`],
//! checked by [`validate_engine_snapshot`]).
//!
//! The document names its graph instead of copying it. The embedded
//! spec's `graph` is a seeded [`GraphSpec`], so version 2 of the format
//! stores the topology as its edits from a fresh build of that spec:
//! the `removed` and `added` edges as sorted `[min, max]` pairs, plus
//! the base's edge count and FNV-1a digest
//! ([`io::edge_digest`](bfw_graph::io::edge_digest)). A decode checks
//! `nodes` against the spec before it allocates anything node-sized,
//! builds the base once, checks its edge count and digest, refuses each
//! edit that does not fit it at its JSON pointer, and applies the rest.
//! In memory a snapshot keeps the live topology and a shared handle on
//! that base, so capture never runs a generator, and only encoding
//! computes the edits, in one `O(n + m)` merge.
//!
//! Snapshots are **kernel- and thread-invariant**: the embedded spec
//! keeps the file's own `kernel`/`threads` keys (execution overrides
//! apply only to the run, never to the artifact), the bit kernel
//! translates its checkpoint back to original node labels, and edits
//! are emitted sorted — so the generic engine at 1 thread and the bit
//! kernel at 8 write byte-identical snapshot documents, and either can
//! resume the other's.

use crate::bfw_run::{bfw_injector, no_snapshot_encoding, Leg, LegResult, OnHost, RunTo};
use crate::spec_io::{normalized_spec, spec_body, spec_from_doc};
use crate::{
    DynamicHost, EngineCursor, KernelKind, MonitorState, Recovery, RuntimeKind, ScenarioOutcome,
    ScenarioSpec, SpecError,
};
use bfw_core::{Bfw, BfwState, RecoveringNetwork};
use bfw_graph::{io, Graph, GraphSpec, NodeId, OverlayGraph, TopologyDelta};
use bfw_sim::{EngineCheckpoint, SchedulerCheckpoint};
use bfw_stats::{Doc, Envelope, JsonValue, SchemaError};
use std::sync::Arc;

/// A paused scenario run: everything needed to continue it — or to
/// reproduce its remainder on a different kernel or thread count.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The normalized run configuration: compiled all-`at` timeline,
    /// effective seed pinned, no trace request, and the *file's* kernel
    /// and threads keys (execution overrides are never embedded).
    pub spec: ScenarioSpec,
    /// The run's effective seed (duplicates `spec.seed` for cheap
    /// access).
    pub seed: u64,
    /// Rounds completed when the snapshot was taken; round `round`'s
    /// due events are applied and its leader set observed.
    pub round: u64,
    /// The topology **at the snapshot round** (timeline events may have
    /// rewired the initial graph).
    pub graph: Graph,
    /// The graph the run started on, the one `spec.graph` builds: the
    /// document stores `graph` as its edits from this base. Every
    /// snapshot of one run shares it — the graph handed to
    /// [`step_bfw_scenario`], or the one [`EngineSnapshot::from_json`]
    /// built.
    pub base: Arc<Graph>,
    /// Per-node protocol states, in original node-label order.
    pub states: Vec<BfwState>,
    /// The host engine's checkpoint: crash mask, noise channels,
    /// per-node RNG stream positions, async scheduler half.
    pub checkpoint: EngineCheckpoint,
    /// The scenario engine's cursor: timeline index, partition backlog,
    /// noise expiry, scenario-RNG position, event log, monitor state.
    pub cursor: EngineCursor,
}

/// What [`validate_engine_snapshot`] reports about a well-formed
/// document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// Scenario name from the embedded spec.
    pub name: String,
    /// Rounds completed at the snapshot.
    pub round: u64,
    /// The embedded spec's horizon.
    pub rounds: u64,
    /// Nodes in the snapshot topology.
    pub nodes: usize,
    /// Crashed nodes at the snapshot.
    pub crashed: usize,
}

impl std::fmt::Display for SnapshotSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bfw/engine-snapshot, \"{}\" at round {}/{} ({} nodes, {} crashed)",
            self.name, self.round, self.rounds, self.nodes, self.crashed
        )
    }
}

/// Advances a fresh scenario `rounds` rounds (clamped to the spec's
/// horizon) and captures the resulting [`EngineSnapshot`]. `seed` is
/// the run's effective seed; `kernel`/`threads` override the spec's
/// keys **for execution only** — the snapshot embeds the spec's own
/// values, keeping the artifact kernel- and thread-invariant.
///
/// # Errors
///
/// A [`SpecError`] for stack-rule violations, or for
/// `protocol = "bfw+recovery"` — the recovery layer's epoch-tagged
/// states have no snapshot encoding (run it with `scenario run`).
pub fn step_bfw_scenario(
    spec: &ScenarioSpec,
    graph: &Graph,
    seed: u64,
    rounds: u64,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
) -> Result<EngineSnapshot, SpecError> {
    let embed = normalized_spec(spec, seed);
    let leg = Leg {
        spec: &embed,
        graph,
        seed,
        from: None,
        target: rounds.min(embed.rounds),
        kernel,
        threads,
        trace: None,
    };
    leg.run(StepTo)
}

/// Advances a snapshot `rounds` further rounds (clamped to its horizon)
/// and captures the new snapshot. The execution kernel and thread count
/// are free choices — any combination resumes any snapshot and the
/// bytes come out the same.
///
/// # Errors
///
/// Same as [`step_bfw_scenario`].
pub fn resume_step_bfw_scenario(
    snap: &EngineSnapshot,
    rounds: u64,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
) -> Result<EngineSnapshot, SpecError> {
    let target = snap.round.saturating_add(rounds).min(snap.spec.rounds);
    resuming(snap, target, kernel, threads).run(StepTo)
}

/// Drives a snapshot to its horizon and assembles the full
/// [`ScenarioOutcome`] — byte-identical to what a straight
/// `scenario run` of the embedded spec would have produced.
///
/// # Errors
///
/// Same as [`step_bfw_scenario`].
pub fn resume_run_bfw_scenario(
    snap: &EngineSnapshot,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
) -> Result<ScenarioOutcome, SpecError> {
    let leg = resuming(snap, snap.spec.rounds, kernel, threads);
    leg.run(RunTo).map(|(outcome, _)| outcome)
}

/// The leg that continues `snap` up to `target`.
fn resuming(
    snap: &EngineSnapshot,
    target: u64,
    kernel: Option<KernelKind>,
    threads: Option<usize>,
) -> Leg<'_> {
    Leg {
        spec: &snap.spec,
        graph: &snap.graph,
        seed: snap.spec.seed,
        from: Some(snap),
        target,
        kernel,
        threads,
        trace: None,
    }
}

/// Ends a leg by capturing it as an [`EngineSnapshot`].
struct StepTo;

impl OnHost for StepTo {
    type Output = EngineSnapshot;

    fn bfw<H: DynamicHost<State = BfwState>>(self, leg: &Leg<'_>, host: H) -> LegResult<Self> {
        let engine = leg.drive(leg.restored(host), bfw_injector());
        let host = engine.host();
        let (states, checkpoint) = host.capture();
        let base = leg.from.map_or_else(
            || Arc::new(leg.graph.clone()),
            |snap| Arc::clone(&snap.base),
        );
        Ok(EngineSnapshot {
            spec: leg.spec.clone(),
            seed: leg.seed,
            round: host.round(),
            graph: host.topology().to_graph(),
            base,
            states,
            checkpoint,
            cursor: engine.cursor(),
        })
    }

    fn recovering(self, _: &Leg<'_>, _: RecoveringNetwork<Bfw>) -> LegResult<Self> {
        Err(no_snapshot_encoding())
    }
}

fn state_index(state: BfwState) -> u64 {
    BfwState::ALL
        .iter()
        .position(|&s| s == state)
        .expect("ALL lists every state") as u64
}

fn position_json(pos: (u64, usize)) -> JsonValue {
    JsonValue::array([JsonValue::from(pos.0), JsonValue::from(pos.1 as u64)])
}

/// Words in one ChaCha8 block: a stream cursor runs from 0 to 16, and
/// 16 means the current block is used up.
const BLOCK_WORDS: u64 = 16;

/// Reads a `[counter, cursor]` stream position, refusing the ones
/// `ChaCha8Rng::set_position` cannot restore.
fn position_from_doc(doc: &Doc<'_>) -> Result<(u64, usize), SchemaError> {
    let items = doc.items()?;
    if items.len() != 2 {
        return Err(doc.error("an RNG position is a [counter, cursor] pair"));
    }
    let counter = items[0].u64()?;
    let cursor = items[1].u64()?;
    if cursor > BLOCK_WORDS {
        return Err(items[1].error(format!(
            "RNG cursor {cursor} out of range (0..={BLOCK_WORDS})"
        )));
    }
    if cursor < BLOCK_WORDS && counter == 0 {
        return Err(doc.error(format!(
            "RNG cursor {cursor} inside a block needs a block counter above 0"
        )));
    }
    Ok((counter, cursor as usize))
}

fn node_from_doc(doc: &Doc<'_>) -> Result<NodeId, SchemaError> {
    let id = doc.u64()?;
    u32::try_from(id)
        .map(NodeId::from_u32)
        .map_err(|_| doc.error(format!("node id {id} exceeds u32::MAX")))
}

/// How a snapshot pins its base graph: the FNV-1a edge digest in hex.
fn digest_hex(graph: &Graph) -> String {
    format!("{:016x}", io::edge_digest(graph))
}

/// Refuses a document that is not a `bfw/engine-snapshot` this build
/// reads, with a hint for one from an older build.
fn check_envelope(doc: &Doc<'_>) -> Result<(), SchemaError> {
    let envelope = Envelope::read(doc)?;
    let current = Envelope::current_version("engine-snapshot");
    if envelope.kind == "engine-snapshot" && envelope.version < current {
        return Err(doc.field("version")?.error(format!(
            "bfw/engine-snapshot version {} is no longer read (this build reads version \
             {current}, which stores the topology as edits from the spec's graph); re-create \
             the snapshot with `bfw scenario step`",
            envelope.version
        )));
    }
    Envelope::expect(doc, "engine-snapshot").map(drop)
}

/// Reads a snapshot's `graph` object: builds the spec's graph once,
/// checks it against the pinned node count, edge count and digest, and
/// applies the edits, refusing each one that does not fit it. Returns
/// the base and the topology at the snapshot round.
fn topology_from_doc(
    spec: &ScenarioSpec,
    graph_key: &Doc<'_>,
    doc: &Doc<'_>,
) -> Result<(Arc<Graph>, Graph), SchemaError> {
    let workload = spec
        .graph
        .parse::<GraphSpec>()
        .map_err(|e| graph_key.error(e.to_string()))?;
    // The node count is checked before the build: a document cannot
    // make the decoder allocate more than the spec's graph.
    let nodes_doc = doc.field("nodes")?;
    let nodes = nodes_doc.u64()?;
    if nodes != workload.node_count() {
        return Err(nodes_doc.error(format!(
            "{nodes} nodes, but the spec's graph {workload} has {}",
            workload.node_count()
        )));
    }
    let base = workload
        .try_build()
        .map_err(|e| graph_key.error(e.to_string()))?;
    let edges_doc = doc.field("base_edges")?;
    let edges = edges_doc.u64()?;
    if edges != base.edge_count() as u64 {
        return Err(edges_doc.error(format!(
            "a base of {edges} edges, but the spec's graph {workload} has {}: the snapshot \
             was not taken on this graph",
            base.edge_count()
        )));
    }
    let digest_doc = doc.field("base_digest")?;
    let digest = digest_hex(&base);
    if digest_doc.str()? != digest {
        return Err(digest_doc.error(format!(
            "base digest {} differs from {digest}, the digest of the spec's graph {workload}: \
             the snapshot was not taken on this graph",
            digest_doc.str()?
        )));
    }

    let mut delta = TopologyDelta::new();
    for (key, in_base) in [("removed", true), ("added", false)] {
        let mut last = None;
        for item in doc.field(key)?.items()? {
            let (u, v) = io::edge_from_json(&item, base.node_count())?;
            if let Some(message) = edit_refusal(&base, last, (u, v), in_base) {
                return Err(item.error(message));
            }
            last = Some((u, v));
            if in_base {
                delta.remove_edge(u, v);
            } else {
                delta.add_edge(u, v);
            }
        }
    }
    let mut live = OverlayGraph::from_graph(base.clone());
    live.apply(&delta);
    Ok((Arc::new(base), live.to_graph()))
}

/// Why the edit `[u, v]`, after `last` in a snapshot's `removed`
/// (`in_base`) or `added` list, cannot apply to `base`, if it cannot.
fn edit_refusal(
    base: &Graph,
    last: Option<(NodeId, NodeId)>,
    (u, v): (NodeId, NodeId),
    in_base: bool,
) -> Option<String> {
    if u == v {
        Some(format!("[{u}, {u}] is a self-loop"))
    } else if u > v {
        Some(format!("write the edge as [{v}, {u}], smaller end first"))
    } else if last == Some((u, v)) {
        Some(format!("[{u}, {v}] is listed twice"))
    } else if last > Some((u, v)) {
        Some(format!("[{u}, {v}] is out of order (edits are sorted)"))
    } else if base.has_edge(u, v) == in_base {
        None
    } else if in_base {
        Some(format!("removes [{u}, {v}], which the spec's graph lacks"))
    } else {
        Some(format!(
            "adds [{u}, {v}], which the spec's graph already has"
        ))
    }
}

impl EngineSnapshot {
    /// What [`validate_engine_snapshot`] reports about this snapshot's
    /// document.
    pub fn summary(&self) -> SnapshotSummary {
        SnapshotSummary {
            name: self.spec.name.clone(),
            round: self.round,
            rounds: self.spec.rounds,
            nodes: self.graph.node_count(),
            crashed: self.checkpoint.crashed.iter().filter(|&&c| c).count(),
        }
    }

    /// Renders the snapshot as a versioned `bfw/engine-snapshot`
    /// document. Deterministic and kernel-invariant: states in label
    /// order, topology edits sorted, and only the embedded (file) spec
    /// — the same paused run always renders byte-identically, whichever
    /// kernel or thread count produced it.
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Envelope::entries("engine-snapshot").into();
        fields.push((
            "spec".to_owned(),
            JsonValue::object(spec_body(&self.spec, self.seed)),
        ));
        fields.push(("round".to_owned(), JsonValue::from(self.round)));
        let edits = self.base.edits_to(&self.graph);
        fields.push((
            "graph".to_owned(),
            JsonValue::object([
                ("nodes", JsonValue::from(self.graph.node_count())),
                ("base_edges", JsonValue::from(self.base.edge_count())),
                ("base_digest", JsonValue::from(digest_hex(&self.base))),
                (
                    "removed",
                    io::edges_to_json(edits.removed().iter().copied()),
                ),
                ("added", io::edges_to_json(edits.added().iter().copied())),
            ]),
        ));
        fields.push((
            "states".to_owned(),
            JsonValue::array(self.states.iter().map(|&s| JsonValue::from(state_index(s)))),
        ));
        let cp = &self.checkpoint;
        fields.push((
            "engine".to_owned(),
            JsonValue::object([
                ("steps", JsonValue::from(cp.steps)),
                (
                    "crashed",
                    JsonValue::array(
                        cp.crashed
                            .iter()
                            .enumerate()
                            .filter(|&(_, &c)| c)
                            .map(|(i, _)| JsonValue::from(i)),
                    ),
                ),
                (
                    "noise",
                    JsonValue::object([
                        ("fn", JsonValue::from(cp.false_negative)),
                        ("fp", JsonValue::from(cp.false_positive)),
                    ]),
                ),
                (
                    "rng",
                    JsonValue::array(cp.rng_positions.iter().map(|&p| position_json(p))),
                ),
                (
                    "scheduler",
                    match &cp.scheduler {
                        None => JsonValue::Null,
                        Some(s) => JsonValue::object([
                            ("rng", position_json(s.rng_position)),
                            ("replay_cursor", JsonValue::from(s.replay_cursor)),
                        ]),
                    },
                ),
            ]),
        ));
        let cur = &self.cursor;
        let m = &cur.monitor;
        fields.push((
            "cursor".to_owned(),
            JsonValue::object([
                ("next_event", JsonValue::from(cur.next_event)),
                (
                    "partition_backlog",
                    io::edges_to_json(cur.partition_backlog.iter().copied()),
                ),
                ("noise_off_at", JsonValue::from(cur.noise_off_at)),
                ("rng", position_json(cur.rng_position)),
                (
                    "log",
                    JsonValue::array(cur.log.iter().map(|l| JsonValue::from(l.as_str()))),
                ),
                (
                    "monitor",
                    JsonValue::object([
                        ("stability_window", JsonValue::from(m.stability_window)),
                        (
                            "open_disruptions",
                            JsonValue::array(
                                m.open_disruptions.iter().map(|&r| JsonValue::from(r)),
                            ),
                        ),
                        (
                            "streak_leader",
                            JsonValue::from(m.streak_leader.map(|u| u.index())),
                        ),
                        ("streak_len", JsonValue::from(m.streak_len)),
                        (
                            "last_unique",
                            JsonValue::from(m.last_unique.map(|u| u.index())),
                        ),
                        ("flaps", JsonValue::from(m.flaps)),
                        (
                            "recoveries",
                            JsonValue::array(m.recoveries.iter().map(|r| {
                                JsonValue::object([
                                    ("disrupted_at", JsonValue::from(r.disrupted_at)),
                                    ("recovered_at", JsonValue::from(r.recovered_at)),
                                    ("leader", JsonValue::from(r.leader.index())),
                                ])
                            })),
                        ),
                    ]),
                ),
                ("observed_through", JsonValue::from(cur.observed_through)),
            ]),
        ));
        JsonValue::object(fields)
    }

    /// Parses a `bfw/engine-snapshot` document, building the spec's
    /// graph once as the base its topology edits apply to.
    ///
    /// # Errors
    ///
    /// A [`SchemaError`] naming the first offending path: a version-1
    /// document (with a hint to re-create it), a topology that does not
    /// fit the spec's graph (node count, base edge count or digest, an
    /// edit the base cannot take), cross-field inconsistencies
    /// (state/RNG/crash arrays must all be node-sized; the engine's
    /// step counter must equal the round) and values a resume could not
    /// restore (an RNG position outside its ChaCha8 block, a noise
    /// probability outside `[0, 1)`).
    pub fn from_json(text: &str) -> Result<EngineSnapshot, SchemaError> {
        let value = JsonValue::parse(text).map_err(|e| SchemaError::root(e.to_string()))?;
        let doc = Doc::root(&value);
        check_envelope(&doc)?;

        let spec_doc = doc.field("spec")?;
        let spec = spec_from_doc(&spec_doc)?;
        let round = doc.field("round")?.u64()?;
        let graph_key = spec_doc.field("config")?.field("graph")?;
        let (base, graph) = topology_from_doc(&spec, &graph_key, &doc.field("graph")?)?;
        let nodes = graph.node_count();

        let states_doc = doc.field("states")?;
        let mut states = Vec::new();
        for item in states_doc.items()? {
            let idx = item.u64()? as usize;
            states.push(
                BfwState::ALL
                    .get(idx)
                    .copied()
                    .ok_or_else(|| item.error(format!("state index {idx} out of range (0..6)")))?,
            );
        }
        if states.len() != nodes {
            return Err(states_doc.error(format!(
                "expected {nodes} states (one per node), got {}",
                states.len()
            )));
        }

        let engine = doc.field("engine")?;
        let steps = engine.field("steps")?.u64()?;
        if steps != round {
            return Err(engine.error(format!(
                "engine steps {steps} disagree with snapshot round {round}"
            )));
        }
        let mut crashed = vec![false; nodes];
        for item in engine.field("crashed")?.items()? {
            let i = item.u64()? as usize;
            if i >= nodes {
                return Err(item.error(format!("crashed node {i} out of range ({nodes} nodes)")));
            }
            crashed[i] = true;
        }
        let noise = engine.field("noise")?;
        let probability = |key: &str| -> Result<f64, SchemaError> {
            let field = noise.field(key)?;
            let x = field.f64()?;
            if (0.0..1.0).contains(&x) {
                Ok(x)
            } else {
                Err(field.error(format!("noise probability {x} out of range [0, 1)")))
            }
        };
        let false_negative = probability("fn")?;
        let false_positive = probability("fp")?;
        let rng_doc = engine.field("rng")?;
        let mut rng_positions = Vec::new();
        for item in rng_doc.items()? {
            rng_positions.push(position_from_doc(&item)?);
        }
        if rng_positions.len() != nodes {
            return Err(rng_doc.error(format!(
                "expected {nodes} RNG positions (one per node), got {}",
                rng_positions.len()
            )));
        }
        let scheduler = match engine.opt_field("scheduler")? {
            None => None,
            Some(s) => Some(SchedulerCheckpoint {
                rng_position: position_from_doc(&s.field("rng")?)?,
                replay_cursor: s.field("replay_cursor")?.u64()? as usize,
            }),
        };
        if (spec.runtime == RuntimeKind::Async) != scheduler.is_some() {
            return Err(engine.error(
                "scheduler state must be present exactly for runtime = \"async\" snapshots",
            ));
        }
        let checkpoint = EngineCheckpoint {
            steps,
            crashed,
            false_negative,
            false_positive,
            rng_positions,
            scheduler,
        };

        let cur = doc.field("cursor")?;
        let mut partition_backlog = Vec::new();
        for item in cur.field("partition_backlog")?.items()? {
            partition_backlog.push(io::edge_from_json(&item, nodes)?);
        }
        let noise_off_at = match cur.opt_field("noise_off_at")? {
            None => None,
            Some(f) => Some(f.u64()?),
        };
        let mut log = Vec::new();
        for item in cur.field("log")?.items()? {
            log.push(item.str()?.to_owned());
        }
        let mon = cur.field("monitor")?;
        let opt_node = |key: &str| -> Result<Option<NodeId>, SchemaError> {
            match mon.opt_field(key)? {
                None => Ok(None),
                Some(f) => node_from_doc(&f).map(Some),
            }
        };
        let mut open_disruptions = Vec::new();
        for item in mon.field("open_disruptions")?.items()? {
            open_disruptions.push(item.u64()?);
        }
        let mut recoveries = Vec::new();
        for item in mon.field("recoveries")?.items()? {
            recoveries.push(Recovery {
                disrupted_at: item.field("disrupted_at")?.u64()?,
                recovered_at: item.field("recovered_at")?.u64()?,
                leader: node_from_doc(&item.field("leader")?)?,
            });
        }
        let monitor = MonitorState {
            stability_window: mon.field("stability_window")?.u64()?,
            open_disruptions,
            streak_leader: opt_node("streak_leader")?,
            streak_len: mon.field("streak_len")?.u64()?,
            last_unique: opt_node("last_unique")?,
            flaps: mon.field("flaps")?.u64()?,
            recoveries,
        };
        let observed_through = match cur.opt_field("observed_through")? {
            None => None,
            Some(f) => Some(f.u64()?),
        };
        let cursor = EngineCursor {
            next_event: cur.field("next_event")?.u64()? as usize,
            partition_backlog,
            noise_off_at,
            rng_position: position_from_doc(&cur.field("rng")?)?,
            log,
            monitor,
            observed_through,
        };

        let seed = spec.seed;
        Ok(EngineSnapshot {
            spec,
            seed,
            round,
            graph,
            base,
            states,
            checkpoint,
            cursor,
        })
    }
}

/// Validates a `bfw/engine-snapshot` document (the `bfw report
/// validate` entry point for this kind): a full decode, so the spec's
/// graph is built and every topology edit, state index, RNG position
/// and monitor field is checked.
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn validate_engine_snapshot(text: &str) -> Result<SnapshotSummary, SchemaError> {
    Ok(EngineSnapshot::from_json(text)?.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_bfw_scenario;
    use bfw_graph::generators;

    const CHURN: &str = r#"
[scenario]
name = "lifecycle churn"
graph = "cycle:12"
rounds = 6000
stability = 20
seed = 42

[[event]]
at = 1500
kind = "crash-leader"

[[event]]
at = 1700
kind = "recover-all"

[[event]]
at = 2000
kind = "partition"
cut = [0, 1, 2]

[[event]]
at = 2400
kind = "heal"

[[event]]
rate = 0.001
kind = "crash-random"

[[event]]
rate = 0.002
kind = "recover-random"
"#;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::parse(CHURN).unwrap()
    }

    #[test]
    fn step_then_resume_equals_straight_run() {
        let spec = spec();
        let g = generators::cycle(12);
        for seed in [7u64, 42] {
            let straight = run_bfw_scenario(&spec, &g, seed).unwrap();
            let snap = step_bfw_scenario(&spec, &g, seed, 1_800, None, None).unwrap();
            assert_eq!(snap.round, 1_800);
            let resumed = resume_run_bfw_scenario(&snap, None, None).unwrap();
            assert_eq!(straight, resumed, "seed {seed}");
            assert_eq!(straight.to_text(), resumed.to_text(), "seed {seed}");
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let spec = spec();
        let g = generators::cycle(12);
        let snap = step_bfw_scenario(&spec, &g, 42, 2_100, None, None).unwrap();
        let rendered = snap.to_json_value().render_pretty();
        let summary = validate_engine_snapshot(&rendered).unwrap();
        assert_eq!(summary.name, "lifecycle churn");
        assert_eq!(summary.round, 2_100);
        assert_eq!(summary.nodes, 12);

        let back = EngineSnapshot::from_json(&rendered).unwrap();
        assert_eq!(back.to_json_value().render_pretty(), rendered);
        // A deserialized snapshot resumes to the same outcome.
        assert_eq!(
            resume_run_bfw_scenario(&back, None, None).unwrap(),
            resume_run_bfw_scenario(&snap, None, None).unwrap()
        );
    }

    #[test]
    fn snapshots_are_kernel_and_thread_invariant() {
        let spec = spec();
        let g = generators::cycle(12);
        let generic = step_bfw_scenario(&spec, &g, 42, 2_100, Some(KernelKind::Generic), None)
            .unwrap()
            .to_json_value()
            .render_pretty();
        for threads in [1usize, 4] {
            let bit = step_bfw_scenario(&spec, &g, 42, 2_100, Some(KernelKind::Bit), Some(threads))
                .unwrap()
                .to_json_value()
                .render_pretty();
            assert_eq!(generic, bit, "threads {threads}");
        }
    }

    #[test]
    fn cross_kernel_resume_is_byte_identical() {
        let spec = spec();
        let g = generators::cycle(12);
        let straight = run_bfw_scenario(&spec, &g, 42).unwrap();
        let snap =
            step_bfw_scenario(&spec, &g, 42, 2_100, Some(KernelKind::Generic), None).unwrap();
        // Resume the generic snapshot on the bit kernel, sharded.
        let resumed = resume_run_bfw_scenario(&snap, Some(KernelKind::Bit), Some(4)).unwrap();
        assert_eq!(straight, resumed);
    }

    #[test]
    fn chained_steps_compose() {
        let spec = spec();
        let g = generators::cycle(12);
        let one = step_bfw_scenario(&spec, &g, 42, 3_000, None, None).unwrap();
        let a = step_bfw_scenario(&spec, &g, 42, 1_000, None, None).unwrap();
        let b = resume_step_bfw_scenario(&a, 1_000, None, None).unwrap();
        let c = resume_step_bfw_scenario(&b, 1_000, None, None).unwrap();
        assert_eq!(c.round, 3_000);
        assert_eq!(
            one.to_json_value().render_pretty(),
            c.to_json_value().render_pretty()
        );
    }

    #[test]
    fn async_snapshots_carry_the_scheduler_half_and_resume() {
        let text = CHURN.replace(
            "seed = 42",
            "seed = 42\nruntime = \"async\"\nscheduler = \"uniform\"",
        );
        let spec = ScenarioSpec::parse(&text).unwrap();
        let g = generators::cycle(12);
        let straight = run_bfw_scenario(&spec, &g, 42).unwrap();
        let snap = step_bfw_scenario(&spec, &g, 42, 2_500, None, None).unwrap();
        assert!(snap.checkpoint.scheduler.is_some());
        let rendered = snap.to_json_value().render_pretty();
        let back = EngineSnapshot::from_json(&rendered).unwrap();
        let resumed = resume_run_bfw_scenario(&back, None, None).unwrap();
        assert_eq!(straight, resumed);
    }

    #[test]
    fn step_past_horizon_clamps() {
        let spec = spec();
        let g = generators::cycle(12);
        let snap = step_bfw_scenario(&spec, &g, 42, 1_000_000, None, None).unwrap();
        assert_eq!(snap.round, 6_000);
        // Resuming a horizon snapshot produces the straight outcome.
        let outcome = resume_run_bfw_scenario(&snap, None, None).unwrap();
        assert_eq!(outcome, run_bfw_scenario(&spec, &g, 42).unwrap());
    }

    #[test]
    fn recovery_protocol_is_rejected() {
        let text = CHURN.replace("seed = 42", "seed = 42\nprotocol = \"bfw+recovery\"");
        let spec = ScenarioSpec::parse(&text).unwrap();
        let err =
            step_bfw_scenario(&spec, &generators::cycle(12), 42, 100, None, None).unwrap_err();
        assert!(err.to_string().contains("no snapshot encoding"), "{err}");
    }

    #[test]
    fn corrupt_documents_are_rejected_with_pointers() {
        let spec = spec();
        let g = generators::cycle(12);
        let snap = step_bfw_scenario(&spec, &g, 42, 500, None, None).unwrap();
        let good = snap.to_json_value().render_pretty();

        let wrong_kind = good.replace("engine-snapshot", "snapshot");
        assert!(validate_engine_snapshot(&wrong_kind).is_err());

        let bad_round = good.replace("\"round\": 500", "\"round\": 501");
        let err = validate_engine_snapshot(&bad_round).unwrap_err();
        assert!(err.to_string().contains("disagree"), "{err}");

        let err = validate_engine_snapshot("{}").unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");

        let bad_graph = good.replace("\"cycle:12\"", "\"cylce:12\"");
        assert_ne!(bad_graph, good);
        let err = EngineSnapshot::from_json(&bad_graph).unwrap_err();
        assert_eq!(err.pointer(), "/spec/config/graph", "{err}");
        assert!(validate_engine_snapshot(&bad_graph).is_err());
    }
}
