//! **E16 (exploratory) — BFW under asynchronous activation.**
//!
//! The paper claims BFW for the beeping model and for a *synchronous*
//! version of the stone-age model (§1) — the qualifier matters, since
//! the original stone-age model is asynchronous. This experiment runs
//! BFW under a uniformly random sequential scheduler and records what
//! actually happens. Mechanically, asynchrony breaks the freeze
//! discipline: a displayed beep persists until its emitter is next
//! activated, so a leader can be activated against the *smeared*
//! remnant of its own wave and eliminate itself; conversely, stretches
//! where a node is never activated stall the waves entirely.
//!
//! We report, per topology: wipeouts (zero leaders — impossible
//! synchronously), single-leader outcomes and their stability, and
//! undecided runs. No claim of the paper is tested here; this maps the
//! territory beyond the claim's boundary.

use crate::{ExpConfig, ExperimentResult, GraphSpec};
use bfw_core::Bfw;
use bfw_sim::run_trials;
use bfw_sim::stone_age::{AsyncStoneAgeNetwork, BeepingAsStoneAge};
use bfw_stats::{Summary, Table};

enum AsyncOutcome {
    /// Zero leaders before ever reaching a unique one.
    EarlyWipeout,
    /// A unique leader was reached, but it later eliminated itself
    /// (leader count is monotone, so "the single-leader configuration
    /// changed" can only mean it dropped to zero): a delayed wipeout.
    LateWipeout,
    /// Exactly one leader, stable for an extra `n²` activations.
    StableSingle(u64),
    /// Still more than one leader at the horizon.
    Undecided,
}

fn one_async_run(spec: &GraphSpec, seed: u64, horizon: u64) -> AsyncOutcome {
    let n = spec.topology().node_count() as u64;
    let mut net =
        AsyncStoneAgeNetwork::new(BeepingAsStoneAge::new(Bfw::new(0.5)), spec.topology(), seed);
    let mut reached_single = None;
    while net.round() < horizon {
        net.step();
        match net.leader_count() {
            0 => return AsyncOutcome::EarlyWipeout,
            1 => {
                reached_single = Some(net.round());
                break;
            }
            _ => {}
        }
    }
    let Some(at) = reached_single else {
        return AsyncOutcome::Undecided;
    };
    for _ in 0..(n * n) {
        net.step();
        if net.leader_count() == 0 {
            return AsyncOutcome::LateWipeout;
        }
    }
    AsyncOutcome::StableSingle(at)
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> ExperimentResult {
    let trials = (4 * cfg.trials).max(40);
    let workloads = if cfg.quick {
        vec![GraphSpec::Cycle(12), GraphSpec::Clique(12)]
    } else {
        vec![
            GraphSpec::Cycle(24),
            GraphSpec::Clique(32),
            GraphSpec::Grid(5, 5),
            GraphSpec::Path(24),
        ]
    };
    let mut table = Table::with_columns(&[
        "graph",
        "n",
        "early wipeouts",
        "late wipeouts (lone leader self-eliminates)",
        "stable single leader",
        "undecided",
        "activations/n to single (mean)",
    ]);
    let mut notes = Vec::new();
    let mut any_wipeout = false;

    for spec in &workloads {
        let n = spec.topology().node_count() as u64;
        let horizon = 50_000 * n; // generous: ~50k "round equivalents"
        let outcomes = run_trials(
            trials,
            cfg.threads,
            cfg.seed ^ 0xA5C,
            |seed| match one_async_run(spec, seed, horizon) {
                AsyncOutcome::EarlyWipeout => (0u8, 0),
                AsyncOutcome::LateWipeout => (1u8, 0),
                AsyncOutcome::StableSingle(a) => (2u8, a),
                AsyncOutcome::Undecided => (3u8, 0),
            },
        );
        let early = outcomes.iter().filter(|o| o.0 == 0).count();
        let late = outcomes.iter().filter(|o| o.0 == 1).count();
        let stable: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.0 == 2)
            .map(|o| o.1 as f64 / n as f64)
            .collect();
        let undecided = outcomes.iter().filter(|o| o.0 == 3).count();
        any_wipeout |= early + late > 0;
        let mean = Summary::from_values(stable.clone());
        table.push_row(vec![
            spec.to_string(),
            n.to_string(),
            format!("{early}/{trials}"),
            format!("{late}/{trials}"),
            format!("{}/{trials}", stable.len()),
            undecided.to_string(),
            if mean.is_empty() {
                "—".into()
            } else {
                format!("{:.0}", mean.mean())
            },
        ]);
    }

    if any_wipeout {
        notes.push(
            "wipeouts occur under asynchrony — impossible in the synchronous model \
             (Lemma 9). A displayed beep persists until its emitter's next activation, \
             so a lone leader is eventually activated against the smeared echo of its \
             own wave and eliminates itself. The paper's restriction to a *synchronous* \
             stone-age model is necessary, not stylistic."
                .to_owned(),
        );
    } else {
        notes.push(
            "no wipeout observed at these sizes/horizons; asynchrony mainly slows or \
             stalls elimination here — larger instances or adversarial schedules may \
             still break Lemma 9."
                .to_owned(),
        );
    }
    notes.push(
        "exploratory: the paper makes no claim about asynchronous execution; this \
         experiment maps the boundary of the synchrony assumption."
            .to_owned(),
    );

    ExperimentResult {
        id: "E16-async",
        reproduces: "exploration beyond §1's synchrony qualifier (async stone-age scheduler)",
        tables: vec![("asynchronous BFW outcomes".to_owned(), table)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_outcome_table() {
        let mut cfg = ExpConfig::quick();
        cfg.trials = 5;
        let result = run(&cfg);
        let table = &result.tables[0].1;
        assert_eq!(table.row_count(), 2);
        // Outcome counts add up to the trial count
        // ((4 * cfg.trials).max(40) = 40 for cfg.trials = 5).
        for row in table.rows() {
            let early: usize = row[2].split('/').next().unwrap().parse().unwrap();
            let late: usize = row[3].split('/').next().unwrap().parse().unwrap();
            let stable: usize = row[4].split('/').next().unwrap().parse().unwrap();
            let undecided: usize = row[5].parse().unwrap();
            assert_eq!(early + late + stable + undecided, 40, "{row:?}");
        }
        assert_eq!(result.notes.len(), 2);
    }
}
