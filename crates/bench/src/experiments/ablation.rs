//! **Ablation — why the frozen state exists.**
//!
//! The one-round freeze is the design choice that
//! makes Section 3 work: it renders beep waves directional, which is
//! what Lemma 7's case analysis (and hence Ohm's law and Lemma 9)
//! relies on. Removing it ([`bfw_core::BfwNoFreeze`])
//! lets waves reflect, so a leader can be hit by an echo of its *own*
//! wave and self-eliminate — with positive probability the network
//! ends up with **zero** leaders, an unrecoverable failure. This
//! experiment measures that failure rate side by side with real BFW
//! (whose failure rate is exactly 0, by Lemma 9).

use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_core::{Bfw, BfwNoFreeze};
use bfw_sim::{run_trials, LeaderElection, Network};
use bfw_stats::Table;

fn count_leader_wipeouts<P>(
    make: impl Fn() -> P + Sync,
    spec: &GraphSpec,
    trials: usize,
    threads: usize,
    seed: u64,
    horizon: u64,
) -> (usize, usize)
where
    P: LeaderElection,
    P::State: Send,
{
    let outcomes = run_trials(trials, threads, seed, |s| {
        let mut net = Network::new(make(), spec.topology(), s);
        for _ in 0..horizon {
            net.step();
            if net.leader_count() == 0 {
                return (true, false);
            }
        }
        (false, net.leader_count() == 1)
    });
    let wipeouts = outcomes.iter().filter(|o| o.0).count();
    let converged = outcomes.iter().filter(|o| o.1).count();
    (wipeouts, converged)
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let horizon: u64 = if cfg.quick { 2_000 } else { 20_000 };
    let trials = cfg.trials.max(20); // failure rates need samples
    let mut table = Table::with_columns(&[
        "graph",
        "protocol",
        "states",
        "zero-leader runs",
        "single-leader runs",
        "trials",
    ]);

    let workloads = if cfg.quick {
        vec![GraphSpec::Cycle(6), GraphSpec::Cycle(12)]
    } else {
        vec![
            GraphSpec::Cycle(6),
            GraphSpec::Cycle(12),
            GraphSpec::Grid(4, 4),
        ]
    };

    let mut ablation_wipeouts = 0usize;
    for spec in &workloads {
        let (w, c) = count_leader_wipeouts(
            || Bfw::new(0.5),
            spec,
            trials,
            cfg.threads,
            cfg.seed,
            horizon,
        );
        assert_eq!(w, 0, "real BFW lost all leaders — Lemma 9 violated");
        table.push_row(vec![
            spec.to_string(),
            "BFW".to_owned(),
            "6".to_owned(),
            w.to_string(),
            c.to_string(),
            trials.to_string(),
        ]);
        let (w, c) = count_leader_wipeouts(
            || BfwNoFreeze::new(0.5),
            spec,
            trials,
            cfg.threads,
            cfg.seed,
            horizon,
        );
        ablation_wipeouts += w;
        table.push_row(vec![
            spec.to_string(),
            "BFW-no-freeze (4 states)".to_owned(),
            "4".to_owned(),
            w.to_string(),
            c.to_string(),
            trials.to_string(),
        ]);
    }

    ExperimentResult {
        id: "EA-ablation-freeze",
        reproduces: "the necessity of the frozen state (DESIGN.md ablation #2)",
        tables: vec![("freeze ablation".to_owned(), table)],
        notes: vec![
            "BFW never reaches zero leaders (Lemma 9, checked every round).".to_owned(),
            format!(
                "the 4-state ablation reached zero leaders in {ablation_wipeouts} run(s): \
                 without the freeze, waves reflect and leaders eliminate themselves — the \
                 sixth state is load-bearing."
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ablation_contrasts_protocols() {
        let mut cfg = ExpConfig::quick();
        cfg.trials = 30;
        let result = run(&cfg);
        let table = &result.tables[0].1;
        // BFW rows report zero wipeouts.
        for row in table.rows().iter().filter(|r| r[1] == "BFW") {
            assert_eq!(row[3], "0");
        }
        // The ablation must produce at least one wipeout somewhere.
        let total: usize = table
            .rows()
            .iter()
            .filter(|r| r[1].contains("no-freeze"))
            .map(|r| r[3].parse::<usize>().unwrap())
            .sum();
        assert!(total > 0, "ablation should lose all leaders sometimes");
    }
}
