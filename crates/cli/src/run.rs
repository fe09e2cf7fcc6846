//! `bfw run`: one leader election and its outcome.

use crate::args::Flags;
use bfw_core::Bfw;
use bfw_graph::WorkloadError;
use bfw_sim::{run_election, ElectionConfig};
use std::fmt::Write as _;

const FLAGS: Flags = Flags {
    verb: "run",
    values: &["--graph", "--p", "--seed", "--max-rounds", "--stability"],
    switches: &["--known-d"],
};

pub(crate) fn run(args: &[String]) -> Result<String, String> {
    let args = FLAGS.read(args)?;
    args.no_positionals()?;
    let spec = args.graph()?;
    let p = args.p()?;
    // `--p` and `--known-d` override each other: the last one wins.
    let known_d = args.last_of(&["--p", "--known-d"]) == Some("--known-d");
    let seed = args.int("--seed")?.unwrap_or(0);
    let max_rounds = args.int("--max-rounds")?.unwrap_or(10_000_000);
    let stability = args.int("--stability")?.unwrap_or(1_000);

    let needs_diameter = |e: WorkloadError| format!("{e}; --known-d needs it, pass --p P instead");
    // A diameter past the all-pairs BFS limit is refused before the
    // graph it would run on is built; the build's own errors come next.
    if known_d {
        spec.check_diameter_work().map_err(needs_diameter)?;
    }
    let topology = spec.try_topology().map_err(|e| e.to_string())?;
    let protocol = if known_d {
        let d = spec
            .try_diameter()
            .map_err(needs_diameter)?
            .expect("workload graphs are connected");
        Bfw::with_known_diameter(d)
    } else {
        crate::check_p(p)?;
        Bfw::new(p)
    };
    let p = protocol.p();
    let outcome = run_election(
        protocol,
        topology,
        seed,
        ElectionConfig::new(max_rounds).with_stability_check(stability),
    )
    .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "graph:            {spec}");
    let _ = writeln!(out, "p:                {p}");
    let _ = writeln!(out, "seed:             {seed}");
    let _ = writeln!(out, "leader:           node {}", outcome.leader);
    let _ = writeln!(out, "converged round:  {}", outcome.converged_round);
    let _ = writeln!(out, "total beeps:      {}", outcome.total_beeps);
    let _ = writeln!(
        out,
        "stability:        {}",
        if stability == 0 {
            "not checked".to_owned()
        } else if outcome.stable {
            format!("leader unchanged for {stability} extra rounds")
        } else {
            "VIOLATED".to_owned()
        }
    );
    Ok(out)
}
