//! **E18 (extension) — asynchronous activation under the full fault
//! vocabulary: does asynchrony compound the wipeout modes?**
//!
//! E16 mapped the boundary of the paper's synchrony qualifier on
//! fault-free runs; E17 measured the wipeout scenario classes (leader
//! crash, partition-heal duels, noise) under synchronous rounds. The
//! asynchronous runtime steps on the same engine as the synchronous
//! ones, one activation per tick, so it speaks the same fault
//! vocabulary — crashes, recovery, perception noise, delta-applied
//! topology — and this experiment runs the *same* scenario
//! classes on both runtimes and tabulates, per `(graph, scenario,
//! runtime)`: runs ending leaderless, runs ending with the elected
//! unique leader, recoveries per trial and the re-election latency
//! (rounds for the synchronous runtime; activations normalized by `n`
//! for the asynchronous one, so the columns are comparable).
//!
//! Expected shape (and what the numbers confirm): asynchrony *adds* a
//! wipeout mode of its own — a lone leader is eventually activated
//! against the smeared echo of its own wave — so even scenario classes
//! that synchronous BFW survives deterministically (crash + rejoin) end
//! leaderless under activation scheduling. Faults compound the effect
//! rather than cause it.

use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_core::Bfw;
use bfw_graph::NodeId;
use bfw_scenario::{
    run_bfw_scenario, KernelKind, ProtocolKind, Recovery, RuntimeKind, ScenarioEvent, ScenarioSpec,
    Timeline,
};
use bfw_sim::stone_age::{AsyncStoneAgeNetwork, BeepingAsStoneAge};
use bfw_sim::{run_trials, Network};
use bfw_stats::{Summary, Table};

/// The scenario classes, with positions as fractions of the horizon
/// (scaled to rounds or activations by the caller).
fn timeline_for(class: &str, n: usize, horizon: u64) -> Timeline {
    let half: Vec<NodeId> = (0..n / 2).map(NodeId::new).collect();
    match class {
        // Control: no fault at all. Synchronous BFW elects and keeps a
        // leader (Lemma 9); any asynchronous wipeout here is the
        // scheduler's doing alone.
        "no faults (control)" => Timeline::new(),
        "crash-leader + rejoin" => Timeline::new()
            .at(horizon * 3 / 10, ScenarioEvent::CrashLeader)
            .at(horizon * 4 / 10, ScenarioEvent::RecoverAll),
        "partition then heal" => Timeline::new()
            .at(horizon / 20, ScenarioEvent::Partition { side: half })
            .at(horizon * 4 / 10, ScenarioEvent::Heal),
        "noise burst" => Timeline::new().at(
            horizon * 3 / 10,
            ScenarioEvent::NoiseBurst {
                fn_rate: 0.05,
                fp_rate: 0.01,
                rounds: horizon / 20,
            },
        ),
        other => panic!("unknown scenario class {other}"),
    }
}

fn spec_for(
    graph_label: &str,
    class: &str,
    runtime: RuntimeKind,
    n: usize,
    horizon: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("{class} on {graph_label} ({runtime})"),
        graph: graph_label.to_owned(),
        p: 0.5,
        rounds: horizon,
        stability: match runtime {
            RuntimeKind::Sync => 50,
            RuntimeKind::Async => 50 * n as u64,
        },
        seed: 0,
        protocol: ProtocolKind::Bfw,
        heartbeat: None,
        timeout: None,
        grace: None,
        runtime,
        // The sweep itself uses the uniform scheduler; the weighted and
        // replay schedulers are exercised by the workspace tests.
        scheduler: None,
        kernel: KernelKind::default(),
        threads: None,
        timeline: timeline_for(class, n, horizon),
        trace: None,
    }
}

/// The three workloads: cycle, torus and a 4-regular random graph
/// (diameter-diverse; the random-regular expander is the topology where
/// synchronous BFW is fastest, so asynchrony has the most to break).
fn workloads(quick: bool) -> [GraphSpec; 3] {
    let (cyc, rows, cols, rr_n) = if quick {
        (12, 3, 4, 12)
    } else {
        (24, 5, 5, 24)
    };
    [
        GraphSpec::Cycle(cyc),
        GraphSpec::Torus(rows, cols),
        GraphSpec::RandomRegular(rr_n, 4, 0xE18),
    ]
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let trials = cfg.trials.max(8);
    let sync_horizon: u64 = if cfg.quick { 20_000 } else { 60_000 };
    let classes = [
        "no faults (control)",
        "crash-leader + rejoin",
        "partition then heal",
        "noise burst",
    ];

    let mut table = Table::with_columns(&[
        "graph",
        "scenario",
        "runtime",
        "ended leaderless",
        "ended single leader",
        "recoveries / trial",
        "latency mean (rounds | activations/n)",
    ]);
    let mut notes = Vec::new();
    let mut sync_wipeouts_total = 0usize;
    let mut async_wipeouts_total = 0usize;

    for workload in workloads(cfg.quick) {
        let (label, graph) = (workload.to_string(), workload.build());
        let n = graph.node_count();
        for class in classes {
            for runtime in [RuntimeKind::Sync, RuntimeKind::Async] {
                let horizon = match runtime {
                    RuntimeKind::Sync => sync_horizon,
                    RuntimeKind::Async => sync_horizon * n as u64,
                };
                let spec = spec_for(&label, class, runtime, n, horizon);
                let outcomes = run_trials(trials, cfg.threads, cfg.seed ^ 0xE18, |seed| {
                    let outcome =
                        run_bfw_scenario(&spec, &graph, seed).expect("E18 specs are always valid");
                    let latencies: Vec<u64> =
                        outcome.recoveries.iter().map(Recovery::latency).collect();
                    (latencies, outcome.final_leaders.len())
                });
                let mut latencies = Vec::new();
                let mut recoveries = 0usize;
                let mut leaderless = 0usize;
                let mut single = 0usize;
                for (lats, final_leaders) in &outcomes {
                    recoveries += lats.len();
                    let scale = match runtime {
                        RuntimeKind::Sync => 1.0,
                        RuntimeKind::Async => n as f64,
                    };
                    latencies.extend(lats.iter().map(|&l| l as f64 / scale));
                    leaderless += usize::from(*final_leaders == 0);
                    single += usize::from(*final_leaders == 1);
                }
                match runtime {
                    RuntimeKind::Sync => sync_wipeouts_total += leaderless,
                    RuntimeKind::Async => async_wipeouts_total += leaderless,
                }
                let latency = Summary::from_values(latencies);
                table.push_row(vec![
                    label.clone(),
                    class.to_owned(),
                    runtime.to_string(),
                    format!("{leaderless}/{trials}"),
                    format!("{single}/{trials}"),
                    format!("{:.1}", recoveries as f64 / trials as f64),
                    if latency.is_empty() {
                        "—".into()
                    } else {
                        format!("{:.0}", latency.mean())
                    },
                ]);
            }
        }
    }

    // Second table: election progress on raw fault-free hosts — how
    // many steps until the leader set first shrinks to one, and whether
    // that ever happens (asynchronously a unique leader can appear and
    // later self-eliminate; "reached" counts the first arrival).
    let mut election = Table::with_columns(&[
        "graph",
        "runtime",
        "reached unique leader",
        "steps to unique (mean; rounds | activations/n)",
    ]);
    for workload in workloads(cfg.quick) {
        let (label, graph) = (workload.to_string(), workload.build());
        let n = graph.node_count();
        for runtime in [RuntimeKind::Sync, RuntimeKind::Async] {
            let outcomes = run_trials(
                trials,
                cfg.threads,
                cfg.seed ^ 0x1E18,
                |seed| match runtime {
                    RuntimeKind::Sync => {
                        let mut net = Network::new(Bfw::new(0.5), graph.clone().into(), seed);
                        net.run_until(sync_horizon, |v| v.leader_count() == 1)
                            .map(|r| r as f64)
                    }
                    RuntimeKind::Async => {
                        let horizon = sync_horizon * n as u64;
                        let mut net = AsyncStoneAgeNetwork::new(
                            BeepingAsStoneAge::new(Bfw::new(0.5)),
                            graph.clone().into(),
                            seed,
                        );
                        while net.round() < horizon && net.leader_count() != 1 {
                            net.step();
                        }
                        (net.leader_count() == 1).then(|| net.round() as f64 / n as f64)
                    }
                },
            );
            let reached: Vec<f64> = outcomes.iter().flatten().copied().collect();
            let summary = Summary::from_values(reached.clone());
            election.push_row(vec![
                label.clone(),
                runtime.to_string(),
                format!("{}/{trials}", reached.len()),
                if summary.is_empty() {
                    "—".into()
                } else {
                    format!("{:.0}", summary.mean())
                },
            ]);
        }
    }

    let cells = 3 * classes.len() * trials;
    notes.push(format!(
        "asynchrony compounds the wipeout modes: {async_wipeouts_total}/{cells} runs end \
         leaderless under activation scheduling vs {sync_wipeouts_total}/{cells} under \
         synchronous rounds, across the same scenario classes and graphs"
    ));
    notes.push(
        "the asynchronous wipeout needs no fault at all — a displayed beep persists until \
         its emitter's next activation, so a lone leader is eventually struck by the \
         smeared echo of its own wave (cf. E16); crashes, partitions and noise only \
         determine *when*. The paper's restriction to synchronous models is load-bearing."
            .to_owned(),
    );
    notes.push(
        "both runtimes are driven through the same scenario engine and fault layer \
         (timeline positions in rounds vs activations, latencies normalized by n), so \
         the columns are directly comparable"
            .to_owned(),
    );

    ExperimentResult {
        id: "E18-async-faults",
        reproduces: "extension beyond the paper: the E17 wipeout scenario classes under \
                     asynchronous activation vs synchronous rounds",
        tables: vec![
            ("async fault sweep".to_owned(), table),
            ("steps to first unique leader".to_owned(), election),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_contrasts_the_runtimes() {
        let mut cfg = ExpConfig::quick();
        cfg.trials = 8;
        let result = run(&cfg);
        let table = &result.tables[0].1;
        assert_eq!(
            table.row_count(),
            24,
            "3 graphs × 4 scenarios × 2 runtimes: {}",
            table.to_markdown()
        );
        let mut sync_wipeouts = 0usize;
        let mut async_wipeouts = 0usize;
        for row in table.rows() {
            let leaderless: usize = row[3].split('/').next().unwrap().parse().unwrap();
            let single: usize = row[4].split('/').next().unwrap().parse().unwrap();
            assert!(leaderless + single <= 8, "{row:?}");
            match row[2].as_str() {
                "sync" => sync_wipeouts += leaderless,
                "async" => async_wipeouts += leaderless,
                other => panic!("unknown runtime column {other}"),
            }
        }
        // The headline must hold: asynchrony strictly compounds the
        // wipeout modes at these sizes (deterministic for the fixed
        // default seed).
        assert!(
            async_wipeouts > sync_wipeouts,
            "async {async_wipeouts} vs sync {sync_wipeouts}\n{}",
            table.to_markdown()
        );
        assert_eq!(result.notes.len(), 3);
        // Control rows: synchronous BFW never ends leaderless without a
        // fault (Lemma 9); the asynchronous scheduler alone wipes runs
        // out.
        let control_sync: Vec<_> = table
            .rows()
            .iter()
            .filter(|r| r[1] == "no faults (control)" && r[2] == "sync")
            .collect();
        assert_eq!(control_sync.len(), 3);
        assert!(
            control_sync.iter().all(|r| r[3] == "0/8"),
            "{}",
            table.to_markdown()
        );
        let election = &result.tables[1].1;
        assert_eq!(election.row_count(), 6, "3 graphs × 2 runtimes");
        for row in election.rows() {
            if row[1] == "sync" {
                assert_eq!(row[2], "8/8", "sync elections complete: {row:?}");
            }
        }
    }
}
