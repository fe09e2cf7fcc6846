//! Drives the `bfw` CLI end to end through its library entry point
//! (`bfw_cli::run`, one command line in, the printed text out),
//! covering the user-facing workflows.

fn run_cli(line: &str) -> Result<String, String> {
    let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    bfw_cli::run(&argv)
}

#[test]
fn run_workflow_on_cycle() {
    let out = run_cli("run --graph cycle:12 --seed 5 --stability 500").expect("run succeeds");
    assert!(out.contains("graph:            cycle:12"), "{out}");
    assert!(out.contains("leader:"), "{out}");
    assert!(out.contains("unchanged for 500 extra rounds"), "{out}");
}

#[test]
fn run_workflow_known_d_on_path() {
    let out = run_cli("run --graph path:17 --known-d --seed 2").expect("run succeeds");
    // D = 16 ⇒ p = 1/17 ≈ 0.0588...
    assert!(out.contains("p:                0.058"), "{out}");
}

#[test]
fn run_workflow_known_d_on_one_node() {
    // D = 0 ⇒ Bfw::with_known_diameter's p = 1/2; a lone node leads at once.
    let out = run_cli("run --graph path:1 --known-d").expect("run succeeds");
    assert!(out.contains("p:                0.5\n"), "{out}");
    assert!(out.contains("converged round:  0\n"), "{out}");
}

#[test]
fn trace_workflow_renders_waves() {
    let out = run_cli("trace --graph path:12 --rounds 25 --seed 1").expect("trace succeeds");
    // All nodes start as leaders.
    assert!(out.contains("LLLLLLLLLLLL"), "{out}");
    // Legend present.
    assert!(out.contains("W•"), "{out}");
    assert!(out.contains("leaders remaining"), "{out}");
}

#[test]
fn duel_trace_starts_with_two_leaders() {
    let out = run_cli("trace --graph path:8 --duel --rounds 5").expect("trace succeeds");
    assert!(out.contains("L......L"), "{out}");
}

#[test]
fn graph_workflow_reports_diameter() {
    let out = run_cli("graph torus:4x4").expect("graph succeeds");
    assert!(out.contains("nodes:     16"), "{out}");
    assert!(out.contains("diameter:  4"), "{out}");
    assert!(out.contains("degrees:"), "{out}");
}

#[test]
fn experiment_workflow_runs_single_experiment() {
    let out = run_cli("experiment flow --quick --trials 2").expect("experiment runs");
    assert!(out.contains("E12-flow-audit"), "{out}");
    assert!(out.contains("| graph"), "{out}");
}

#[test]
fn error_paths_are_user_friendly() {
    assert!(run_cli("run").unwrap_err().contains("--graph"));
    assert!(run_cli("run --graph bogus:1")
        .unwrap_err()
        .contains("unknown graph kind"));
    assert!(run_cli("experiment not-an-experiment --quick")
        .unwrap_err()
        .contains("unknown experiment"));
    assert!(run_cli("run --graph cycle:8 --p 1.5")
        .unwrap_err()
        .contains("(0, 1)"));
}

#[test]
fn help_covers_all_subcommands() {
    let help = run_cli("help").expect("help renders");
    for cmd in [
        "bfw run",
        "bfw trace",
        "bfw graph",
        "bfw invariants",
        "bfw experiment",
        "bfw scenario",
        "bfw report",
    ] {
        assert!(help.contains(cmd), "missing {cmd}");
    }
}
