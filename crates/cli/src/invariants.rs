//! `bfw invariants`: one execution audited against Section 3.

use crate::args::Flags;
use bfw_bench::experiments::flow_audit;
use std::fmt::Write as _;

const FLAGS: Flags = Flags {
    verb: "invariants",
    values: &["--graph", "--p", "--seed", "--rounds"],
    switches: &[],
};

pub(crate) fn run(args: &[String]) -> Result<String, String> {
    let args = FLAGS.read(args)?;
    args.no_positionals()?;
    let spec = args.graph()?;
    let p = args.p()?;
    let seed = args.int("--seed")?.unwrap_or(0);
    let rounds = args.int("--rounds")?.unwrap_or(1_000);

    crate::check_p(p)?;
    let graph = spec.try_build().map_err(|e| e.to_string())?;
    if graph.node_count() == 0 {
        return Err("cannot audit an empty graph".to_owned());
    }
    let (flow, invariants) = flow_audit::audit(graph, p, seed, seed ^ 0xA0D1, rounds);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "audited {spec} for {rounds} rounds (p = {p}, seed = {seed}):"
    );
    let _ = writeln!(
        out,
        "  flow theory (Ohm's law / Lemma 7 / Lemma 11): {} checks, {} violation(s)",
        flow.checks_performed(),
        flow.violations().len()
    );
    let _ = writeln!(
        out,
        "  invariants (Claim 6 / Lemma 9 / monotonicity): {} rounds, {} violation(s)",
        invariants.rounds_checked(),
        invariants.violations().len()
    );
    for v in flow.violations().iter().chain(invariants.violations()) {
        let _ = writeln!(out, "  !! {v}");
    }
    if flow.violations().is_empty() && invariants.is_clean() {
        let _ = writeln!(out, "  all clean — Section 3 holds on this execution.");
    }
    Ok(out)
}
