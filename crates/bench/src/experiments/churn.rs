//! **E15 (extension) — churn tolerance and re-election latency.**
//!
//! The paper's guarantees are for a static world: a fixed connected
//! graph and the Eq. (2) initialization. This experiment measures how
//! BFW behaves when the world moves, using the `bfw-scenario` engine:
//! on each topology the elected leader is crashed and later rejoins
//! (in fresh `W•`), and a partition is opened and healed. Each
//! disruption is answered (or not) by a **re-election**: the scenario
//! monitor records the latency from the disruption to the next
//! unique leader that stays stable for the configured window.
//!
//! Expected shape: after a crash + rejoin the recovered `W•` node is the
//! only leader candidate and wins in `O(D)`-ish rounds (its first
//! beep wave sweeps unopposed); partitions that isolate the leader
//! recover only after healing. The table quantifies both across
//! cycle / star / random topologies.

use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_scenario::{run_bfw_scenario, KernelKind, ScenarioSpec, Timeline};
use bfw_scenario::{Recovery, ScenarioEvent};
use bfw_sim::run_trials;
use bfw_stats::{Summary, Table};

/// The crash + heal schedule every topology is subjected to.
///
/// The rejoin is **contested**: two random nodes crash before the
/// leader does, so `RecoverAll` reintroduces three fresh `W•`
/// candidates at once and the re-election is a real multi-leader duel
/// whose length depends on the topology (not just on the schedule).
fn churn_timeline(n: usize, horizon: u64) -> Timeline {
    let half: Vec<bfw_graph::NodeId> = (0..n / 2).map(bfw_graph::NodeId::new).collect();
    Timeline::new()
        .at(horizon * 2 / 10, ScenarioEvent::CrashRandom)
        .at(horizon * 2 / 10 + 50, ScenarioEvent::CrashRandom)
        // Crash the elected leader, let the network sit leaderless,
        // then every crashed node rejoins as a fresh W• and they duel.
        .at(horizon * 3 / 10, ScenarioEvent::CrashLeader)
        .at(horizon * 3 / 10 + 200, ScenarioEvent::RecoverAll)
        // Open a half/half partition, then heal it.
        .at(horizon * 6 / 10, ScenarioEvent::Partition { side: half })
        .at(horizon * 6 / 10 + 300, ScenarioEvent::Heal)
}

fn scenario_for(spec: &GraphSpec, horizon: u64, n: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("churn on {spec}"),
        graph: spec.to_string(),
        p: 0.5,
        rounds: horizon,
        stability: 50,
        seed: 0,
        protocol: bfw_scenario::ProtocolKind::Bfw,
        heartbeat: None,
        timeout: None,
        grace: None,
        runtime: Default::default(),
        scheduler: None,
        kernel: KernelKind::default(),
        threads: None,
        timeline: churn_timeline(n, horizon),
        trace: None,
    }
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let trials = cfg.trials.max(8);
    let (size, horizon): (usize, u64) = if cfg.quick {
        (12, 30_000)
    } else {
        (24, 120_000)
    };
    let workloads = vec![
        GraphSpec::Cycle(size),
        GraphSpec::Star(size),
        GraphSpec::ErdosRenyi(size, 250, 7),
        GraphSpec::Grid(size / 4, 4),
    ];
    // Note: every disruption opens its own recovery window (same-round
    // bursts share one); a stable leader answers all open windows at
    // once, so a burst of events yields one recovery per distinct
    // disruption round, each with its own latency.
    let mut table = Table::with_columns(&[
        "graph",
        "disruption events",
        "recoveries (total / per trial)",
        "re-election latency (mean ± ci95)",
        "latency p95",
        "leader flaps (mean)",
        "unrecovered runs",
        "ended leaderless",
    ]);
    let mut notes = Vec::new();

    for spec in &workloads {
        let graph = spec.build();
        let scenario = scenario_for(spec, horizon, graph.node_count());
        let disruptions = scenario.timeline.entries().len();
        let outcomes = run_trials(trials, cfg.threads, cfg.seed ^ 0xC1124, |seed| {
            let outcome = run_bfw_scenario(&scenario, &graph, seed)
                .expect("churn scenario timing is always valid");
            let latencies: Vec<u64> = outcome.recoveries.iter().map(Recovery::latency).collect();
            (
                latencies,
                outcome.leader_flaps,
                outcome.pending_disruption.is_some(),
                outcome.final_leaders.is_empty(),
            )
        });
        let mut latencies = Vec::new();
        let mut flaps = Vec::new();
        let mut recoveries = 0usize;
        let mut unrecovered = 0usize;
        let mut wipeouts = 0usize;
        for (lats, flap_count, pending, leaderless) in &outcomes {
            recoveries += lats.len();
            latencies.extend(lats.iter().map(|&l| l as f64));
            flaps.push(*flap_count as f64);
            unrecovered += usize::from(*pending);
            wipeouts += usize::from(*leaderless);
        }
        let latency = Summary::from_values(latencies);
        let flaps = Summary::from_values(flaps);
        table.push_row(vec![
            spec.to_string(),
            disruptions.to_string(),
            format!("{recoveries} / {:.1}", recoveries as f64 / trials as f64),
            if latency.is_empty() {
                "—".into()
            } else {
                format!("{:.0} ± {:.0}", latency.mean(), latency.ci95_half_width())
            },
            if latency.is_empty() {
                "—".into()
            } else {
                format!("{:.0}", latency.quantile(0.95))
            },
            format!("{:.1}", flaps.mean()),
            format!("{unrecovered}/{trials}"),
            format!("{wipeouts}/{trials}"),
        ]);
        if unrecovered == 0 {
            notes.push(format!(
                "{spec}: every disruption re-elected a stable leader \
                 (mean latency {:.0} rounds over {recoveries} recoveries)",
                latency.mean()
            ));
        } else if wipeouts == unrecovered {
            notes.push(format!(
                "{spec}: {wipeouts}/{trials} runs lost every leader — a duel or heal-merge \
                 wipeout, the dynamic-graph face of Section 5's non-self-stabilization"
            ));
        } else {
            notes.push(format!(
                "{spec}: {unrecovered}/{trials} runs ended with an unanswered disruption \
                 ({wipeouts} of them leaderless; the rest were still electing at the horizon)"
            ));
        }
    }
    notes.push(
        "recovery exists only because crashed nodes rejoin in fresh W• (the scenario's \
         RecoverAll); BFW alone cannot re-elect after losing its last leader — Section 5's \
         non-self-stabilization, now measured"
            .to_owned(),
    );

    ExperimentResult {
        id: "E15-churn",
        reproduces: "extension beyond the paper: re-election latency under crash/rejoin and \
                     partition/heal churn (bfw-scenario engine)",
        tables: vec![("churn recovery".to_owned(), table)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_full_table() {
        let mut cfg = ExpConfig::quick();
        cfg.trials = 4;
        let result = run(&cfg);
        let table = &result.tables[0].1;
        assert_eq!(table.row_count(), 4, "{}", table.to_markdown());
        let cycle_row = &table.rows()[0];
        assert_eq!(cycle_row[0], "cycle:12");
        // Some recoveries must complete on the cycle at this horizon.
        assert!(
            !cycle_row[2].starts_with("0 /"),
            "cycle should record recoveries, got {cycle_row:?}"
        );
        assert!(!result.notes.is_empty());
    }

    #[test]
    fn timeline_has_crash_and_heal() {
        let t = churn_timeline(12, 10_000);
        let events: Vec<String> = t.entries().iter().map(|e| e.event.to_string()).collect();
        assert!(events.contains(&"crash-leader".to_owned()));
        assert!(events.contains(&"heal".to_owned()));
    }
}
