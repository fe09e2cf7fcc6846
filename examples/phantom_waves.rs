//! The Section 5 robustness obstacle: phantom beep waves with no
//! leader behind them.
//!
//! The paper explains why BFW is not self-stabilizing: an *arbitrary*
//! initial configuration can contain "persistent and deterministic
//! beep waves traveling along cycles of the graph, while no leader
//! would be present", indistinguishable — from any node's local view —
//! from waves a real leader emits. This example constructs that
//! configuration, runs it, renders it, and contrasts it with a
//! legitimate start.
//!
//! Run with: `cargo run --release --example phantom_waves`

use bfw_core::{adversarial, viz, Bfw};
use bfw_graph::generators;
use bfw_sim::Network;

fn main() {
    let n = 12;
    let graph = generators::cycle(n);

    // A phantom wave: F◦ B◦ W◦ W◦ ... — no leader anywhere.
    let config = adversarial::leaderless_wave_cycle(n, 1);
    let mut net = Network::with_states(Bfw::new(0.5), graph.clone().into(), 0, config);
    let mut trace = Vec::new();
    net.run_until(2 * n as u64, |v| {
        trace.push(v.states.to_vec());
        false
    });

    println!("a leaderless phantom wave on a cycle of {n} (two full laps):\n");
    println!("{}", viz::render_trace(&trace));
    println!("{}\n", viz::legend());
    println!(
        "after {} rounds: {} leaders, {} beeping node(s) — the wave circulates forever.",
        net.round(),
        net.leader_count(),
        net.beeping_node_count()
    );

    // Long-horizon check: it really never dies and never creates a
    // leader.
    net.run(100_000);
    println!(
        "after {} rounds: {} leaders, {} beeping node(s).",
        net.round(),
        net.leader_count(),
        net.beeping_node_count()
    );

    // Contrast with a legitimate Eq. (2) start on the same cycle.
    let mut legit = Network::new(Bfw::new(0.5), graph.into(), 0);
    let converged = legit
        .run_until(1_000_000, |v| v.leader_count() == 1)
        .expect("legitimate starts converge");
    println!(
        "\nfrom the paper's initial configuration (everyone W•), the same cycle elects \
         node {} in {} rounds.",
        legit.unique_leader().expect("converged"),
        converged
    );
    println!(
        "\nEq. (2) is a real assumption: relaxing it is the open problem the paper \
         leaves for future work (Section 5)."
    );
}
