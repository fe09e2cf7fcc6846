//! One module per experiment, E2–E21 (E1 lives in
//! `bfw-core`'s exhaustive state-machine tests; E10 lives in the
//! workspace `model_equivalence` integration test — both are pure test
//! artifacts. Everything that produces a table or series is here).

pub mod ablation;
pub mod async_faults;
pub mod async_stone_age;
pub mod chain;
pub mod churn;
pub mod churn_scale;
pub mod complexity;
pub mod convergence;
pub mod decay;
pub mod flow_audit;
pub mod noise;
pub mod p_sweep;
pub mod parallel_scale;
pub mod recovery;
pub mod sec5_walk;
pub mod table1;
pub mod termination;
pub mod thm2_d;
pub mod thm2_n;
pub mod thm3;
pub mod tick_scale;

use crate::{ExpConfig, ExperimentResult};

/// An experiment entry point, as stored in the registry.
pub type ExperimentFn = fn(&ExpConfig) -> ExperimentResult;

/// Registry of all runnable experiments: `(cli-name, runner)`.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("table1", table1::run as ExperimentFn),
        ("thm2-n", thm2_n::run),
        ("thm2-d", thm2_d::run),
        ("thm3", thm3::run),
        ("convergence", convergence::run),
        ("sec5", sec5_walk::run),
        ("p-sweep", p_sweep::run),
        ("chain", chain::run),
        ("flow", flow_audit::run),
        ("ablation", ablation::run),
        ("termination", termination::run),
        ("noise", noise::run),
        ("decay", decay::run),
        ("async", async_stone_age::run),
        ("churn", churn::run),
        ("churn-scale", churn_scale::run),
        ("recovery", recovery::run),
        ("async-faults", async_faults::run),
        ("complexity", complexity::run),
        ("tick-scale", tick_scale::run),
        ("parallel-scale", parallel_scale::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = all().iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names.len(), 21);
    }
}
