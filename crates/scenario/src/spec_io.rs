//! The `bfw/scenario-spec` document: a compiled scenario as data.
//!
//! `bfw scenario export <file>` turns a TOML scenario into a versioned
//! JSON document whose timeline is the **compiled** event list — every
//! `every`/`rate` schedule expanded into concrete `at` rounds at the
//! effective seed — so a spec document names exactly the perturbations
//! one run will apply, with no schedule semantics left to interpret:
//!
//! ```json
//! {
//!   "format": "bfw/scenario-spec",
//!   "version": 1,
//!   "config": { "name": "ring churn", "graph": "cycle:32", ... },
//!   "events": [ { "at": 2000, "kind": "crash-leader" }, ... ]
//! }
//! ```
//!
//! Event objects mirror the TOML field names (`node`, `u`/`v`, `cut`,
//! `fn`/`fp`/`rounds`, `waves`), so a document reads like the file it
//! came from. Re-importing ([`spec_from_json`]) yields a spec whose
//! all-`at` timeline recompiles to the identical event list — compiled
//! specs are fixpoints, which is what makes them exchangeable: the
//! shrinker emits its minimal reproducers in this format, and an
//! engine snapshot embeds one as its run configuration.

use crate::spec::{canonical_graph, parse_name, Named};
use crate::{InjectKind, ScenarioEvent, ScenarioSpec, ScheduledEvent, Timeline};
use bfw_graph::NodeId;
use bfw_stats::{Doc, Envelope, JsonValue, SchemaError};

/// Renders a spec as a `bfw/scenario-spec` document, compiling the
/// timeline against the spec's horizon at `seed` (the run's effective
/// seed — a CLI `--seed` override, or the spec's own `seed` key). The
/// emitted config carries `seed` so the document pins the exact run.
/// Deterministic rendering: same `(spec, seed)` ⇒ byte-identical text.
pub fn spec_to_json(spec: &ScenarioSpec, seed: u64) -> JsonValue {
    let mut fields: Vec<(String, JsonValue)> = Envelope::entries("scenario-spec").into();
    fields.extend(spec_body(spec, seed));
    JsonValue::object(fields)
}

/// The `config` and `events` fields of a spec document: what
/// [`spec_from_doc`] decodes, and what an engine snapshot embeds.
pub(crate) fn spec_body(spec: &ScenarioSpec, seed: u64) -> [(String, JsonValue); 2] {
    let events = spec.timeline.compile(spec.rounds, seed);
    [
        ("config".to_owned(), config_to_json(spec, seed)),
        (
            "events".to_owned(),
            JsonValue::array(events.iter().map(event_to_json)),
        ),
    ]
}

/// Parses a `bfw/scenario-spec` document back into a [`ScenarioSpec`]
/// whose timeline is the document's `at`-event list (compiled specs are
/// fixpoints: recompiling that list reproduces it exactly). The spec's
/// `trace` is `None` — trace requests are a property of a run, not of
/// the interchange form.
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn spec_from_json(text: &str) -> Result<ScenarioSpec, SchemaError> {
    let value = JsonValue::parse(text).map_err(|e| SchemaError::root(e.to_string()))?;
    let doc = Doc::root(&value);
    Envelope::expect(&doc, "scenario-spec")?;
    spec_from_doc(&doc)
}

/// What [`validate_scenario_spec`] reports about a well-formed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecSummary {
    /// Scenario name from the config block.
    pub name: String,
    /// Workload spec string.
    pub graph: String,
    /// Round horizon.
    pub rounds: u64,
    /// Compiled events in the document.
    pub events: usize,
}

impl std::fmt::Display for SpecSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bfw/scenario-spec, \"{}\" ({} rounds, {} events)",
            self.name, self.rounds, self.events
        )
    }
}

/// Validates a `bfw/scenario-spec` document (the `bfw report validate`
/// entry point for this kind): full decode, so every enum value and
/// event field is checked, not just the envelope.
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn validate_scenario_spec(text: &str) -> Result<SpecSummary, SchemaError> {
    let spec = spec_from_json(text)?;
    Ok(SpecSummary {
        name: spec.name.clone(),
        graph: spec.graph.clone(),
        rounds: spec.rounds,
        events: spec.timeline.entries().len(),
    })
}

/// A spec with its timeline replaced by the compiled `at`-list at
/// `seed`, its `seed` pinned, and its `trace` dropped — the
/// normalization shared by spec export and engine snapshots. The
/// normalized spec runs byte-identically to the original at `seed`:
/// compilation is deterministic and stable-sorted, so the all-`at`
/// timeline recompiles to the identical [`ScheduledEvent`] list.
pub(crate) fn normalized_spec(spec: &ScenarioSpec, seed: u64) -> ScenarioSpec {
    let mut timeline = Timeline::new();
    for ev in spec.timeline.compile(spec.rounds, seed) {
        timeline = timeline.at(ev.round, ev.event);
    }
    ScenarioSpec {
        seed,
        timeline,
        trace: None,
        ..spec.clone()
    }
}

/// The `config` object of a spec document. Every [`ScenarioSpec`] field
/// except the timeline and the trace request, unset optionals rendered
/// as `null`.
fn config_to_json(spec: &ScenarioSpec, seed: u64) -> JsonValue {
    JsonValue::object([
        ("name", JsonValue::from(spec.name.as_str())),
        ("graph", JsonValue::from(spec.graph.as_str())),
        ("p", JsonValue::from(spec.p)),
        ("rounds", JsonValue::from(spec.rounds)),
        ("stability", JsonValue::from(spec.stability)),
        ("seed", JsonValue::from(seed)),
        ("protocol", JsonValue::from(spec.protocol.to_string())),
        ("runtime", JsonValue::from(spec.runtime.to_string())),
        (
            "scheduler",
            JsonValue::from(spec.scheduler.map(|s| s.to_string())),
        ),
        ("kernel", JsonValue::from(spec.kernel.to_string())),
        ("threads", JsonValue::from(spec.threads.map(|t| t as u64))),
        ("heartbeat", JsonValue::from(spec.heartbeat)),
        ("timeout", JsonValue::from(spec.timeout)),
        ("grace", JsonValue::from(spec.grace)),
    ])
}

/// One compiled event as a JSON object: `at`, `kind`, and the kind's
/// TOML field names.
fn event_to_json(ev: &ScheduledEvent) -> JsonValue {
    let mut fields: Vec<(&str, JsonValue)> = vec![("at", JsonValue::from(ev.round))];
    let kind = match &ev.event {
        ScenarioEvent::CrashNode(u) => {
            fields.push(("node", JsonValue::from(u.index())));
            "crash"
        }
        ScenarioEvent::CrashRandom => "crash-random",
        ScenarioEvent::CrashLeader => "crash-leader",
        ScenarioEvent::RecoverNode(u) => {
            fields.push(("node", JsonValue::from(u.index())));
            "recover"
        }
        ScenarioEvent::RecoverRandom => "recover-random",
        ScenarioEvent::RecoverAll => "recover-all",
        ScenarioEvent::AddEdge(u, v) => {
            fields.push(("u", JsonValue::from(u.index())));
            fields.push(("v", JsonValue::from(v.index())));
            "add-edge"
        }
        ScenarioEvent::RemoveEdge(u, v) => {
            fields.push(("u", JsonValue::from(u.index())));
            fields.push(("v", JsonValue::from(v.index())));
            "remove-edge"
        }
        ScenarioEvent::Partition { side } => {
            fields.push((
                "cut",
                JsonValue::array(side.iter().map(|u| JsonValue::from(u.index()))),
            ));
            "partition"
        }
        ScenarioEvent::Heal => "heal",
        ScenarioEvent::NoiseBurst {
            fn_rate,
            fp_rate,
            rounds,
        } => {
            fields.push(("fn", JsonValue::from(*fn_rate)));
            fields.push(("fp", JsonValue::from(*fp_rate)));
            fields.push(("rounds", JsonValue::from(*rounds)));
            "noise-burst"
        }
        ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves }) => {
            fields.push(("waves", JsonValue::from(*waves as u64)));
            "inject-phantom"
        }
        ScenarioEvent::InjectState(InjectKind::Dead) => "inject-dead",
    };
    fields.push(("kind", JsonValue::from(kind)));
    JsonValue::object(fields)
}

fn node_field(doc: &Doc<'_>, key: &str) -> Result<NodeId, SchemaError> {
    let field = doc.field(key)?;
    let id = field.u64()?;
    u32::try_from(id)
        .map(NodeId::from_u32)
        .map_err(|_| field.error(format!("node id {id} exceeds u32::MAX")))
}

/// Reads a noise-channel probability, refusing (with the TOML parser's
/// message) what `FaultLayer::set_noise` would assert on.
fn prob_field(doc: &Doc<'_>, key: &str) -> Result<f64, SchemaError> {
    let field = doc.field(key)?;
    let p = field.f64()?;
    if !(0.0..1.0).contains(&p) {
        return Err(field.error(format!("{key} must be in [0, 1), got {p}")));
    }
    Ok(p)
}

/// Reads a [`Named`] value (`protocol`, `runtime`, `scheduler`,
/// `kernel`) with the TOML parser's message and hint.
fn name_from_doc<T: Named>(field: &Doc<'_>) -> Result<T, SchemaError> {
    parse_name(field.str()?).map_err(|e| field.error(e))
}

/// Decodes one event object back into a [`ScheduledEvent`].
pub(crate) fn event_from_doc(doc: &Doc<'_>) -> Result<ScheduledEvent, SchemaError> {
    let round = doc.field("at")?.u64()?;
    let kind_field = doc.field("kind")?;
    let kind = kind_field.str()?;
    let event = match kind {
        "crash" => ScenarioEvent::CrashNode(node_field(doc, "node")?),
        "crash-random" => ScenarioEvent::CrashRandom,
        "crash-leader" => ScenarioEvent::CrashLeader,
        "recover" => ScenarioEvent::RecoverNode(node_field(doc, "node")?),
        "recover-random" => ScenarioEvent::RecoverRandom,
        "recover-all" => ScenarioEvent::RecoverAll,
        "add-edge" => ScenarioEvent::AddEdge(node_field(doc, "u")?, node_field(doc, "v")?),
        "remove-edge" => ScenarioEvent::RemoveEdge(node_field(doc, "u")?, node_field(doc, "v")?),
        "partition" => {
            let mut side = Vec::new();
            for item in doc.field("cut")?.items()? {
                let id = item.u64()?;
                side.push(
                    u32::try_from(id)
                        .map(NodeId::from_u32)
                        .map_err(|_| item.error(format!("node id {id} exceeds u32::MAX")))?,
                );
            }
            ScenarioEvent::Partition { side }
        }
        "heal" => ScenarioEvent::Heal,
        "noise-burst" => ScenarioEvent::NoiseBurst {
            fn_rate: prob_field(doc, "fn")?,
            fp_rate: prob_field(doc, "fp")?,
            rounds: doc.field("rounds")?.u64()?,
        },
        "inject-phantom" => ScenarioEvent::InjectState(InjectKind::PhantomWaves {
            waves: doc.field("waves")?.u64()? as usize,
        }),
        "inject-dead" => ScenarioEvent::InjectState(InjectKind::Dead),
        other => return Err(kind_field.error(format!("unknown event kind '{other}'"))),
    };
    Ok(ScheduledEvent { round, event })
}

/// Decodes a spec body (`config` + `events` fields on `doc`) into a
/// [`ScenarioSpec`] with an all-`at` timeline. `p`, `threads`, the
/// noise-burst rates and the stack rules get the TOML parser's checks
/// and messages, so a decoded spec never reaches an engine assert or a
/// runner refusal; a stack rule is reported at the `config` object.
pub(crate) fn spec_from_doc(doc: &Doc<'_>) -> Result<ScenarioSpec, SchemaError> {
    let config = doc.field("config")?;
    let protocol = name_from_doc(&config.field("protocol")?)?;
    let runtime = name_from_doc(&config.field("runtime")?)?;
    let scheduler = match config.opt_field("scheduler")? {
        None => None,
        Some(field) => Some(name_from_doc(&field)?),
    };
    let kernel = name_from_doc(&config.field("kernel")?)?;
    let threads = match config.opt_field("threads")? {
        None => None,
        Some(field) => match field.u64()? {
            0 => return Err(field.error("threads must be at least 1")),
            threads => Some(threads as usize),
        },
    };
    let u32_opt = |key: &str| -> Result<Option<u32>, SchemaError> {
        match config.opt_field(key)? {
            None => Ok(None),
            Some(field) => {
                let v = field.u64()?;
                u32::try_from(v)
                    .map(Some)
                    .map_err(|_| field.error(format!("{key} {v} exceeds u32::MAX")))
            }
        }
    };
    let heartbeat = u32_opt("heartbeat")?;
    let timeout = u32_opt("timeout")?;
    let grace = u32_opt("grace")?;

    let mut timeline = Timeline::new();
    for item in doc.field("events")?.items()? {
        let ev = event_from_doc(&item)?;
        timeline = timeline.at(ev.round, ev.event);
    }
    let name = config.field("name")?.str()?.to_owned();
    let graph_field = config.field("graph")?;
    let graph =
        canonical_graph(graph_field.str()?).map_err(|e| graph_field.error(e.to_string()))?;
    let p_field = config.field("p")?;
    let p = p_field.f64()?;
    if !(p > 0.0 && p < 1.0) {
        return Err(p_field.error(format!("p must be in (0, 1), got {p}")));
    }
    let spec = ScenarioSpec {
        name,
        graph,
        p,
        rounds: config.field("rounds")?.u64()?,
        stability: config.field("stability")?.u64()?,
        seed: config.field("seed")?.u64()?,
        protocol,
        heartbeat,
        timeout,
        grace,
        runtime,
        scheduler,
        kernel,
        threads,
        timeline,
        trace: None,
    };
    spec.check_stack().map_err(|e| config.error(e.message()))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_bfw_scenario;
    use bfw_graph::generators;

    const MIXED: &str = r#"
[scenario]
name = "mixed schedules"
graph = "cycle:12"
rounds = 4000
stability = 20
seed = 9

[[event]]
at = 500
kind = "crash-leader"

[[event]]
every = 800
start = 1000
count = 2
kind = "crash-random"

[[event]]
rate = 0.002
kind = "recover-random"

[[event]]
at = 2000
kind = "partition"
cut = [0, 1, 2]

[[event]]
at = 2200
kind = "heal"

[[event]]
at = 2500
kind = "noise-burst"
fn = 0.1
fp = 0.01
rounds = 50
"#;

    #[test]
    fn misspelled_graph_is_refused_at_its_pointer() {
        let spec = ScenarioSpec::parse(MIXED).unwrap();
        let rendered = spec_to_json(&spec, spec.seed).render_pretty();
        let bad = rendered.replace("\"cycle:12\"", "\"cylce:12\"");
        let err = spec_from_json(&bad).unwrap_err();
        assert_eq!(err.pointer(), "/config/graph", "{err}");
        assert!(err.message().contains("did you mean 'cycle'?"), "{err}");
        assert!(validate_scenario_spec(&bad).is_err());
    }

    #[test]
    fn export_compiles_and_round_trips() {
        let spec = ScenarioSpec::parse(MIXED).unwrap();
        let rendered = spec_to_json(&spec, spec.seed).render_pretty();
        let summary = validate_scenario_spec(&rendered).unwrap();
        assert_eq!(summary.name, "mixed schedules");
        assert_eq!(summary.graph, "cycle:12");
        assert_eq!(summary.rounds, 4_000);
        // Every/rate schedules expanded into concrete events.
        assert_eq!(
            summary.events,
            spec.timeline.compile(spec.rounds, spec.seed).len()
        );

        let back = spec_from_json(&rendered).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.p, spec.p);
        assert_eq!(back.seed, spec.seed);
        // The imported all-at timeline compiles to the identical list.
        assert_eq!(
            back.timeline.compile(back.rounds, back.seed),
            spec.timeline.compile(spec.rounds, spec.seed)
        );
    }

    #[test]
    fn exported_spec_is_a_fixpoint() {
        // Export → import → export must be byte-identical: the compiled
        // form has no schedule semantics left to expand.
        let spec = ScenarioSpec::parse(MIXED).unwrap();
        let first = spec_to_json(&spec, spec.seed).render_pretty();
        let back = spec_from_json(&first).unwrap();
        let second = spec_to_json(&back, back.seed).render_pretty();
        assert_eq!(first, second);
    }

    #[test]
    fn imported_spec_runs_identically_to_the_original() {
        let spec = ScenarioSpec::parse(MIXED).unwrap();
        let g = generators::cycle(12);
        let original = run_bfw_scenario(&spec, &g, spec.seed).unwrap();
        let rendered = spec_to_json(&spec, spec.seed).render_pretty();
        let back = spec_from_json(&rendered).unwrap();
        let reran = run_bfw_scenario(&back, &g, back.seed).unwrap();
        assert_eq!(original, reran);
        assert_eq!(original.to_text(), reran.to_text());
    }

    #[test]
    fn every_event_kind_round_trips() {
        use bfw_graph::NodeId;
        let n = |i: usize| NodeId::new(i);
        let events = [
            ScenarioEvent::CrashNode(n(3)),
            ScenarioEvent::CrashRandom,
            ScenarioEvent::CrashLeader,
            ScenarioEvent::RecoverNode(n(4)),
            ScenarioEvent::RecoverRandom,
            ScenarioEvent::RecoverAll,
            ScenarioEvent::AddEdge(n(0), n(5)),
            ScenarioEvent::RemoveEdge(n(1), n(2)),
            ScenarioEvent::Partition {
                side: vec![n(0), n(1)],
            },
            ScenarioEvent::Heal,
            ScenarioEvent::NoiseBurst {
                fn_rate: 0.25,
                fp_rate: 0.0,
                rounds: 10,
            },
            ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves: 2 }),
            ScenarioEvent::InjectState(InjectKind::Dead),
        ];
        for (i, event) in events.into_iter().enumerate() {
            let ev = ScheduledEvent {
                round: (i as u64 + 1) * 10,
                event,
            };
            let rendered = event_to_json(&ev).render();
            let value = JsonValue::parse(&rendered).unwrap();
            let back = event_from_doc(&Doc::root(&value)).unwrap();
            assert_eq!(back, ev, "{rendered}");
        }
    }

    #[test]
    fn validation_rejects_with_pointers() {
        let spec = ScenarioSpec::parse(MIXED).unwrap();
        let good = spec_to_json(&spec, spec.seed);

        let wrong_kind = good.render_pretty().replace("scenario-spec", "spec");
        let err = validate_scenario_spec(&wrong_kind).unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");

        let bad_event = good.render_pretty().replace("crash-leader", "explode");
        let err = validate_scenario_spec(&bad_event).unwrap_err();
        assert!(err.to_string().contains("unknown event kind"), "{err}");
        assert!(err.pointer().contains("/events/"), "{}", err.pointer());

        // Unknown names get the TOML parser's message and hint.
        let bad_kernel = good.render_pretty().replace("\"auto\"", "\"aut\"");
        let err = validate_scenario_spec(&bad_kernel).unwrap_err();
        assert_eq!(err.pointer(), "/config/kernel");
        assert!(
            err.message()
                .contains("unknown kernel 'aut' (did you mean 'auto'?)"),
            "{err}"
        );

        let err = validate_scenario_spec("{}").unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");
    }

    #[test]
    fn normalized_spec_runs_identically() {
        let spec = ScenarioSpec::parse(MIXED).unwrap();
        let g = generators::cycle(12);
        for seed in [9u64, 42] {
            let norm = normalized_spec(&spec, seed);
            assert_eq!(norm.seed, seed);
            assert_eq!(norm.trace, None);
            assert_eq!(
                run_bfw_scenario(&spec, &g, seed).unwrap(),
                run_bfw_scenario(&norm, &g, seed).unwrap()
            );
            // Normalization is idempotent.
            let again = normalized_spec(&norm, seed);
            assert_eq!(
                again.timeline.compile(again.rounds, seed),
                norm.timeline.compile(norm.rounds, seed)
            );
        }
    }
}
