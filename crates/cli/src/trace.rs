//! `bfw trace`: the ASCII beep-wave trace of one execution.

use crate::args::Flags;
use bfw_core::{viz, Bfw, InitialConfig};
use bfw_graph::NodeId;
use bfw_sim::Network;
use std::fmt::Write as _;

const FLAGS: Flags = Flags {
    verb: "trace",
    values: &["--graph", "--p", "--seed", "--rounds"],
    switches: &["--duel"],
};

pub(crate) fn run(args: &[String]) -> Result<String, String> {
    let args = FLAGS.read(args)?;
    args.no_positionals()?;
    let spec = args.graph()?;
    let p = args.p()?;
    let seed = args.int("--seed")?.unwrap_or(0);
    let rounds = args.int("--rounds")?.unwrap_or(40);

    crate::check_p(p)?;
    let topology = spec.try_topology().map_err(|e| e.to_string())?;
    let n = topology.node_count();
    if n == 0 {
        return Err("cannot trace an empty graph".to_owned());
    }
    let mut protocol = Bfw::new(p);
    // The §5 duel: leaders only at the path ends.
    if args.switch("--duel") {
        protocol = protocol.with_initial_config(InitialConfig::Nodes(vec![
            NodeId::new(0),
            NodeId::new(n - 1),
        ]));
    }
    let mut net = Network::new(protocol, topology, seed);
    let mut trace = Vec::new();
    net.run_until(rounds, |v| {
        trace.push(v.states.to_vec());
        false
    });
    let mut out = String::new();
    let _ = writeln!(out, "{spec}, p = {p}, seed = {seed} (legend below)\n");
    out.push_str(&viz::render_trace(&trace));
    let _ = writeln!(out, "\n{}", viz::legend());
    let _ = writeln!(
        out,
        "\nleaders remaining after round {}: {}",
        net.round(),
        net.leader_count()
    );
    Ok(out)
}
