//! The Section 5 duel: two leaders at the ends of a path, beep waves
//! crashing in the middle, rendered round by round.
//!
//! The paper conjectures (Section 5) that the point where the waves
//! meet performs a ±1 random walk, so the duel lasts Θ(D²) rounds —
//! this example makes the waves visible and then measures the duel
//! length over many seeds.
//!
//! Run with: `cargo run --release --example two_leader_duel`

use bfw_core::{viz, Bfw, InitialConfig};
use bfw_graph::{generators, NodeId};
use bfw_sim::{run_election, ElectionConfig, Network};
use bfw_stats::Summary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 21;
    let d = n - 1;
    let duel_init = InitialConfig::Nodes(vec![NodeId::new(0), NodeId::new(n - 1)]);

    // Part 1: render one duel.
    let protocol = Bfw::new(0.5).with_initial_config(duel_init.clone());
    let mut net = Network::new(protocol, generators::path(n).into(), 7);
    let mut trace = Vec::new();
    let converged = net.run_until(5_000, |v| {
        trace.push(v.states.to_vec());
        v.leader_count() == 1
    });
    println!("one duel on a path of diameter {d} (seed 7):\n");
    // Print the first 40 rounds — enough to watch waves crash.
    let shown = trace.len().min(41);
    for (t, states) in trace[..shown].iter().enumerate() {
        println!("{t:>4} | {}", viz::render_round(states));
    }
    if shown < trace.len() {
        println!("     | ... ({} more rounds)", trace.len() - shown);
    }
    println!("\n{}\n", viz::legend());
    println!(
        "winner: node {} after {} rounds\n",
        net.unique_leader().expect("duel resolved"),
        converged.expect("duel resolved within budget"),
    );

    // Part 2: measure the Θ(D²) claim over many seeds.
    let trials = 100;
    let rounds: Vec<f64> = (0..trials)
        .map(|seed| {
            let protocol = Bfw::new(0.5).with_initial_config(duel_init.clone());
            let out = run_election(
                protocol,
                generators::path(n).into(),
                seed,
                ElectionConfig::new(10_000_000),
            )
            .expect("duels resolve");
            out.converged_round as f64
        })
        .collect();
    let s = Summary::from_values(rounds);
    println!("{trials} duels on D = {d}:");
    println!(
        "  mean elimination round: {:.0} ± {:.0}",
        s.mean(),
        s.ci95_half_width()
    );
    println!(
        "  median / p95:           {:.0} / {:.0}",
        s.median(),
        s.quantile(0.95)
    );
    println!(
        "  mean / D²:              {:.2}  (Θ(D²) ⇒ roughly constant across D)",
        s.mean() / (d * d) as f64
    );
    Ok(())
}
