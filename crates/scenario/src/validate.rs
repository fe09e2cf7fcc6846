//! `bfw scenario validate`: static analysis of a spec against its
//! graph, without executing a single round.
//!
//! The runner's philosophy is "a scenario typo must not panic a run" —
//! out-of-range node ids and impossible injections are skipped and
//! logged at apply time. That is the right behavior mid-run, but it
//! means a broken spec only announces itself thousands of rounds in,
//! as a `skipped (...)` line nobody reads. `validate` front-loads every
//! check the engine would eventually make:
//!
//! * **stack rules** — [`ScenarioSpec`]'s one check of the
//!   kernel/threads/runtime/scheduler/recovery-key rules, the same the
//!   parser, the JSON decoder and the runners call;
//! * **recovery timing** — the relay-window-vs-eccentricity bound of
//!   [`crate::scenario_recovery_config`], resolved against the actual
//!   graph;
//! * **event targets** — node ids in range for `crash`/`recover`/
//!   edge events/`partition` cuts, phantom-wave preconditions
//!   (`waves | n`, `n ≥ 3·waves`) that the injector would silently
//!   skip;
//! * **timeline/horizon consistency** — events scheduled past the
//!   horizon (compiled away, so they silently never fire) and a
//!   stability window no recovery could ever complete inside.
//!
//! Hard misconfigurations are [`SpecError`]s; conditions that are legal
//! but almost certainly unintended come back as warning strings.

use crate::{
    scenario_recovery_config, InjectKind, ProtocolKind, ScenarioEvent, ScenarioSpec, Schedule,
    SpecError,
};
use bfw_graph::{algo, Graph, NodeId};

/// Statically validates `spec` against `graph`.
///
/// Returns the (possibly empty) list of warnings for a valid spec.
///
/// # Errors
///
/// A [`SpecError`] for anything the runner would reject (stack
/// rules, recovery timing) or silently skip on every single
/// firing (out-of-range node ids, impossible injections) — if an event
/// can never do anything, scheduling it is a bug worth stopping on.
pub fn validate_scenario(spec: &ScenarioSpec, graph: &Graph) -> Result<Vec<String>, SpecError> {
    spec.check_stack()?;
    if spec.protocol == ProtocolKind::BfwRecovery {
        scenario_recovery_config(spec, graph)?;
    }

    let n = graph.node_count();
    let in_range = |u: NodeId| u.index() < n;
    for (i, entry) in spec.timeline.entries().iter().enumerate() {
        let bad = |what: String| -> SpecError {
            SpecError::new(format!(
                "event {i} ({}): {what} (graph has {n} nodes)",
                entry.event
            ))
        };
        match &entry.event {
            ScenarioEvent::CrashNode(u) | ScenarioEvent::RecoverNode(u) if !in_range(*u) => {
                return Err(bad(format!("node {u} out of range")));
            }
            ScenarioEvent::AddEdge(u, v) | ScenarioEvent::RemoveEdge(u, v) => {
                for w in [u, v] {
                    if !in_range(*w) {
                        return Err(bad(format!("node {w} out of range")));
                    }
                }
                if u == v {
                    return Err(bad(format!("self-loop on node {u}")));
                }
            }
            ScenarioEvent::Partition { side } => {
                if let Some(w) = side.iter().find(|&&w| !in_range(w)) {
                    return Err(bad(format!("cut node {w} out of range")));
                }
                if side.is_empty() || side.len() >= n {
                    return Err(bad("cut side must be a proper nonempty subset".to_owned()));
                }
            }
            ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves }) => {
                let w = *waves;
                if w == 0 || n < 3 * w || !n.is_multiple_of(w) {
                    return Err(bad(format!(
                        "phantom-waves needs waves ≥ 1, n ≥ 3·waves and waves | n \
                         (waves = {w}); the injector would skip every firing"
                    )));
                }
            }
            _ => {}
        }
    }

    let mut warnings = Vec::new();
    for (i, entry) in spec.timeline.entries().iter().enumerate() {
        let first = match entry.schedule {
            Schedule::At(round) => round,
            Schedule::Every { start, .. } | Schedule::Rate { start, .. } => start,
        };
        if first > spec.rounds {
            warnings.push(format!(
                "event {i} ({}) first fires at round {first}, past the horizon {} — it is \
                 compiled away and never applies",
                entry.event, spec.rounds
            ));
        }
        if let ScenarioEvent::NoiseBurst { rounds, .. } = entry.event {
            if first.saturating_add(rounds) > spec.rounds {
                warnings.push(format!(
                    "event {i} (noise-burst at {first} for {rounds} rounds) outlives the \
                     horizon {} — the burst never switches off inside the run",
                    spec.rounds
                ));
            }
        }
    }
    if spec.stability >= spec.rounds {
        warnings.push(format!(
            "stability window {} is not below the horizon {} — no recovery can ever be \
             recorded",
            spec.stability, spec.rounds
        ));
    }
    if n > 0 && !algo::is_connected(graph) {
        warnings.push(
            "graph is disconnected — BFW's eventual-election guarantee assumes a connected \
             graph (Theorem 1); components elect independently"
                .to_owned(),
        );
    }
    Ok(warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::generators;

    fn parse(extra: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!("[scenario]\ngraph = \"cycle:12\"\n{extra}")).unwrap()
    }

    #[test]
    fn clean_spec_validates_without_warnings() {
        let spec = parse("[[event]]\nat = 100\nkind = \"crash-leader\"");
        let warnings = validate_scenario(&spec, &generators::cycle(12)).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn out_of_range_targets_are_hard_errors() {
        let spec = parse("[[event]]\nat = 1\nkind = \"crash\"\nnode = 99");
        let err = validate_scenario(&spec, &generators::cycle(12)).unwrap_err();
        assert!(err.to_string().contains("node 99 out of range"), "{err}");
        assert!(err.to_string().contains("12 nodes"), "{err}");

        let spec = parse("[[event]]\nat = 1\nkind = \"add-edge\"\nu = 0\nv = 50");
        let err = validate_scenario(&spec, &generators::cycle(12)).unwrap_err();
        assert!(err.to_string().contains("node 50 out of range"), "{err}");

        let spec = parse("[[event]]\nat = 1\nkind = \"partition\"\ncut = [0, 40]");
        let err = validate_scenario(&spec, &generators::cycle(12)).unwrap_err();
        assert!(err.to_string().contains("cut node 40"), "{err}");

        let spec = parse("[[event]]\nat = 1\nkind = \"remove-edge\"\nu = 3\nv = 3");
        let err = validate_scenario(&spec, &generators::cycle(12)).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
    }

    #[test]
    fn impossible_phantom_injection_is_an_error() {
        // 12 is not a multiple of 5: the injector would skip every
        // firing, so the event can never do anything.
        let spec = parse("[[event]]\nat = 1\nkind = \"inject-phantom\"\nwaves = 5");
        let err = validate_scenario(&spec, &generators::cycle(12)).unwrap_err();
        assert!(err.to_string().contains("phantom-waves"), "{err}");

        // waves = 4 divides 12 and 12 ≥ 3·4: fine.
        let spec = parse("[[event]]\nat = 1\nkind = \"inject-phantom\"\nwaves = 4");
        assert!(validate_scenario(&spec, &generators::cycle(12)).is_ok());
    }

    #[test]
    fn recovery_timing_is_checked_against_the_graph() {
        let spec = parse("protocol = \"bfw+recovery\"\nheartbeat = 6\ntimeout = 20");
        let err = validate_scenario(&spec, &generators::cycle(32)).unwrap_err();
        assert!(err.to_string().contains("cannot cover"), "{err}");
    }

    #[test]
    fn past_horizon_events_warn() {
        let spec = parse("rounds = 1000\n[[event]]\nat = 5000\nkind = \"crash-leader\"");
        let warnings = validate_scenario(&spec, &generators::cycle(12)).unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("never applies"), "{warnings:?}");

        let spec =
            parse("rounds = 1000\n[[event]]\nevery = 100\nstart = 2000\nkind = \"crash-random\"");
        let warnings = validate_scenario(&spec, &generators::cycle(12)).unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn runaway_noise_and_oversized_stability_warn() {
        let spec = parse(
            "rounds = 1000\n[[event]]\nat = 990\nkind = \"noise-burst\"\nfn = 0.1\nrounds = 100",
        );
        let warnings = validate_scenario(&spec, &generators::cycle(12)).unwrap();
        assert!(
            warnings.iter().any(|w| w.contains("never switches off")),
            "{warnings:?}"
        );

        let spec = parse("rounds = 100\nstability = 100");
        let warnings = validate_scenario(&spec, &generators::cycle(12)).unwrap();
        assert!(
            warnings.iter().any(|w| w.contains("stability window")),
            "{warnings:?}"
        );
    }

    #[test]
    fn disconnected_graph_warns() {
        let graph = Graph::from_edges(4, [(0, 1)]).unwrap();
        let spec = parse("");
        let warnings = validate_scenario(&spec, &graph).unwrap();
        assert!(
            warnings.iter().any(|w| w.contains("disconnected")),
            "{warnings:?}"
        );
    }
}
