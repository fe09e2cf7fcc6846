//! Implementation of the `bfw` command-line tool. [`run`] hands each
//! verb to its own module, which reads its flags through one argument
//! reader and calls the libraries directly.
//!
//! Verbs:
//!
//! * `bfw run --graph <spec>` — run one leader election and report the
//!   outcome;
//! * `bfw trace --graph <spec>` — print the ASCII beep-wave trace of an
//!   execution (see [`bfw_core::viz`]);
//! * `bfw invariants --graph <spec>` — audit one execution against
//!   Section 3 (flow theory and invariants, round by round);
//! * `bfw graph <spec>` — print topology facts (n, m, diameter, degree
//!   stats);
//! * `bfw graph export|import|validate` — move graphs through the
//!   versioned `bfw/graph` interchange document (see [`bfw_graph::io`]);
//! * `bfw experiment <name> ...` — run one of the paper-reproduction
//!   experiments, optionally writing one CSV per table;
//! * `bfw scenario run <file>` — run a TOML fault-injection scenario
//!   (crashes, churn, partitions, noise bursts; see [`bfw_scenario`]),
//!   or resume a paused one with `--resume-from`;
//! * `bfw scenario validate|step|export|shrink <file>` — check a
//!   scenario without running it, advance it into a
//!   `bfw/engine-snapshot`, export its compiled timeline as a
//!   `bfw/scenario-spec`, or minimize a wipeout timeline;
//! * `bfw report validate|diff|history` — check any `bfw/*` document,
//!   compare two structurally, or fold bench reports into a
//!   `bfw/bench-history`.
//!
//! Graph specs use the compact [`GraphSpec`] syntax, e.g. `path:64`,
//! `grid:8x8`, `er:100:120:7`, `ba:1000:3:7`, `rr:1000:4:7`.
//!
//! [`GraphSpec`]: bfw_bench::GraphSpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod experiment;
mod graph;
mod invariants;
mod report;
mod run;
mod scenario;
mod trace;

use bfw_bench::experiments;

/// Runs one command line (without the program name) and returns the
/// text to print.
///
/// # Errors
///
/// Returns a one-line message for unknown verbs, flags or malformed
/// values (reported before any file is read or graph is built), and
/// for failures of the verb itself.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some((verb, rest)) = args.split_first() else {
        return Ok(usage());
    };
    match verb.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        "run" => run::run(rest),
        "trace" => trace::run(rest),
        "graph" => graph::run(rest),
        "invariants" => invariants::run(rest),
        "experiment" => experiment::run(rest),
        "scenario" => scenario::run(rest),
        "report" => report::run(rest),
        other => Err(format!("unknown command '{other}'; try 'bfw help'")),
    }
}

/// Reads a file, naming it on failure.
fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Writes a file, naming it on failure.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Checks a beep probability.
fn check_p(p: f64) -> Result<(), String> {
    if p > 0.0 && p < 1.0 {
        Ok(())
    } else {
        Err(format!("p must be in (0, 1), got {p}"))
    }
}

/// Usage text.
fn usage() -> String {
    let names: Vec<&str> = experiments::all().iter().map(|(n, _)| *n).collect();
    let kinds: Vec<&str> = report::KINDS
        .iter()
        .map(|(format, _)| format.trim_start_matches("bfw/"))
        .collect();
    let kinds: Vec<String> = kinds.chunks(4).map(|line| line.join(", ")).collect();
    format!(
        "bfw — Minimalist Leader Election Under Weak Communication (PODC 2025) reproduction

usage:
  bfw run --graph SPEC [--p P | --known-d] [--seed S] [--max-rounds N] [--stability N]
  bfw trace --graph SPEC [--p P] [--seed S] [--rounds N] [--duel]
  bfw graph SPEC
  bfw graph export SPEC [--out FILE]
  bfw graph import FILE [--out FILE]
  bfw graph validate [FILE]
  bfw invariants --graph SPEC [--p P] [--seed S] [--rounds N]
  bfw experiment [NAME ...] [--quick] [--noise] [--trials N] [--seed S] [--out DIR]
  bfw scenario run FILE [--seed S] [--rounds N] [--trace FILE] [--trace-last N]
                        [--kernel auto|generic|bit] [--threads N]
  bfw scenario run --resume-from SNAP [--rounds N] [--kernel K] [--threads N]
  bfw scenario validate FILE
  bfw scenario step (FILE | --resume-from SNAP) --rounds N [--out SNAP]
                        [--seed S] [--kernel K] [--threads N]
  bfw scenario export FILE [--seed S] [--out FILE]
  bfw scenario shrink FILE [--seed S] [--quick] [--out FILE]
  bfw report validate FILE [FILE ...]
  bfw report diff LEFT RIGHT
  bfw report history FILE [FILE ...] [--out FILE]
  bfw help

experiment flags:
  --quick      reduced sizes/trials for every experiment
  --trials N   trials per data point (overrides the quick/full default)
  --seed S     base seed for the experiment's trial streams
  --noise      adds the optional perception-noise sweeps; only the
               'recovery' experiment reads it, the others ignore it
  --out DIR    also writes each table as DIR/<id>_<table>.csv
  the 'complexity' experiment (E19) emits a Table-1-style faceoff
  (rounds/beeps/bits/messages/state across protocols and topologies)
  and writes the versioned BENCH_complexity.json next to the table

scenario run flags:
  --seed S        overrides the spec's seed      --rounds N  overrides the horizon
  --trace FILE    writes the complexity + flight-recorder JSON report to FILE
  --trace-last N  keeps the last N trace events (default 256)
  --kernel K      execution kernel: auto (default; bitplane fast path for plain
                  sync BFW at n >= 4096), generic, or bit — never changes outcomes
  --threads N     worker threads for the bit kernel's word-sharded step (default:
                  spec's `threads`, else host parallelism capped at 8) — the
                  sharded step is byte-identical at every thread count
  (a [trace] section in the spec enables the same; CLI flags win)

scenario lifecycle (plain synchronous/async bfw):
  validate  static analysis against the graph — spec lint, recovery timing,
            event targets, horizon consistency — without executing a round
  step      advance N rounds, dump the paused run as a versioned
            bfw/engine-snapshot document; snapshots are kernel- and
            thread-invariant, and `step N; step M` is byte-identical to one
            N+M-round run at the same seed
  export    the compiled all-`at` timeline as a bfw/scenario-spec document
  shrink    minimize a wipeout timeline (drop events, trim the horizon,
            retime survivors) while the permanently-leaderless outcome still
            reproduces; --quick settles for one drop pass

graph specs: path:N cycle:N clique:N star:N grid:RxC torus:RxC hypercube:DIM
             tree:ARITY:DEPTH randtree:N:SEED er:N:P_MILLI:SEED barbell:K:BRIDGE
             ba:N:M:SEED plaw:N:GAMMA_MILLI:SEED geo:N:RADIUS_MILLI:SEED
             rr:N:D:SEED scrambled-cycle:N:SEED
             (scenario TOML `graph = \"...\"` and every bench row's `graph` use
             the same syntax; graphs past 2^26 nodes, 2^27 edges or 2^32
             generator steps are refused before they are built)
interchange: every artifact is one versioned JSON envelope, format bfw/KIND
             ({});
             `bfw graph export` emits canonical bfw/graph documents with
             generator provenance, `bfw report validate` checks any of them,
             `bfw report diff` prints a structured bfw/report-diff with
             JSON-pointer paths, `bfw report history` folds successive bench
             reports of one experiment into a bfw/bench-history trajectory
scenarios:   TOML spec; `protocol = \"bfw+recovery\"` runs the self-healing stack,
             `runtime = \"async\"` runs activation-based scheduling (scheduler:
             uniform | weighted | replay; timeline positions in activations)
experiments: {}",
        kinds.join(",\n              "),
        names.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one command line given as separate arguments.
    fn cli(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|&a| a.to_owned()).collect::<Vec<_>>())
    }

    /// Writes a scenario spec into a fresh directory under the system
    /// temp dir and returns its path.
    fn spec_file(dir: &str, name: &str, toml: &str) -> String {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, toml).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// Drops the execution-stack header lines, which name the kernel
    /// and thread count a run used.
    fn strip_stack(s: &str) -> String {
        s.lines()
            .filter(|l| !l.starts_with("kernel:") && !l.starts_with("threads:"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn parse_help_variants() {
        for args in [&[][..], &["help"], &["--help"], &["-h"]] {
            assert_eq!(cli(args).unwrap(), usage(), "{args:?}");
        }
    }

    #[test]
    fn parse_run_defaults_and_flags() {
        let out = cli(&["run", "--graph", "cycle:8"]).unwrap();
        assert!(out.contains("graph:            cycle:8\n"), "{out}");
        assert!(out.contains("p:                0.5\n"), "{out}");
        assert!(out.contains("seed:             0\n"), "{out}");
        assert!(out.contains("unchanged for 1000 extra rounds"), "{out}");
        let out = cli(&["run", "--graph", "path:9", "--known-d", "--seed", "7"]).unwrap();
        assert!(out.contains("p:                0.1111"), "{out}");
        assert!(out.contains("seed:             7\n"), "{out}");
        let err = cli(&["run", "--graph", "path:9", "--max-rounds", "1"]).unwrap_err();
        assert_eq!(err, "no convergence within 1 rounds (9 leaders remaining)");
        // `--p` and `--known-d` override each other: the last one wins.
        let out = cli(&["run", "--graph", "path:9", "--p", "0.3", "--known-d"]).unwrap();
        assert!(out.contains("p:                0.1111"), "{out}");
        let out = cli(&["run", "--graph", "path:9", "--known-d", "--p", "0.3"]).unwrap();
        assert!(out.contains("p:                0.3\n"), "{out}");
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!(cli(&["run"]).unwrap_err().contains("--graph"));
        assert!(cli(&["run", "--graph", "nope:1"])
            .unwrap_err()
            .contains("unknown graph kind"));
        assert!(cli(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(cli(&["run", "--p"]).unwrap_err().contains("needs a value"));
        assert_eq!(
            cli(&["run", "--graph", "cycle:8", "--seed", "x"]).unwrap_err(),
            "--seed needs an integer, got 'x'"
        );
        assert_eq!(
            cli(&["run", "--graph", "cycle:8", "cycle:9"]).unwrap_err(),
            "run: unknown flag cycle:9"
        );
        assert!(cli(&["graph", "a", "b"])
            .unwrap_err()
            .contains("unknown graph subcommand"));
        assert!(cli(&["graph", "export", "a", "b"])
            .unwrap_err()
            .contains("exactly one"));
        assert!(cli(&["experiment", "--bogus"])
            .unwrap_err()
            .contains("unknown flag"));
        // Zero trials would leave every summary empty.
        assert_eq!(
            cli(&["experiment", "thm2-n", "--quick", "--trials", "0"]).unwrap_err(),
            "--trials must be at least 1"
        );
    }

    #[test]
    fn execute_run_on_small_cycle() {
        let out = cli(&[
            "run",
            "--graph",
            "cycle:8",
            "--p",
            "0.5",
            "--seed",
            "1",
            "--max-rounds",
            "100000",
            "--stability",
            "100",
        ])
        .unwrap();
        assert!(out.contains("leader:"), "{out}");
        assert!(out.contains("converged round:"), "{out}");
        assert!(out.contains("unchanged for 100 extra rounds"), "{out}");
    }

    #[test]
    fn execute_run_known_d() {
        let out = cli(&[
            "run",
            "--graph",
            "path:9",
            "--known-d",
            "--seed",
            "1",
            "--stability",
            "0",
        ])
        .unwrap();
        assert!(out.contains("p:                0.1111"), "{out}");
        assert!(out.contains("stability:        not checked"), "{out}");
    }

    #[test]
    fn execute_trace_duel() {
        let out = cli(&[
            "trace", "--graph", "path:9", "--p", "0.5", "--seed", "3", "--rounds", "10", "--duel",
        ])
        .unwrap();
        assert!(out.contains("L.......L"), "{out}"); // 9 nodes: ends + 7 waiting
        assert!(out.contains("W•"), "{out}");
        assert!(out.contains("leaders remaining after round 10"), "{out}");
    }

    #[test]
    fn execute_graph_describes_topology() {
        let out = cli(&["graph", "grid:3x4"]).unwrap();
        assert!(out.contains("nodes:     12"), "{out}");
        assert!(out.contains("diameter:  5"), "{out}");
    }

    #[test]
    fn execute_unknown_experiment_fails() {
        let err = cli(&["experiment", "nope", "--quick", "--trials", "1"]).unwrap_err();
        assert!(err.contains("unknown experiment"));
    }

    #[test]
    fn usage_lists_experiments() {
        let u = usage();
        assert!(u.contains("table1"));
        assert!(u.contains("bfw run"));
        assert!(u.contains("bfw invariants"));
    }

    #[test]
    fn parse_and_execute_invariants() {
        let out = cli(&[
            "invariants",
            "--graph",
            "cycle:10",
            "--rounds",
            "200",
            "--seed",
            "4",
        ])
        .unwrap();
        assert!(
            out.starts_with("audited cycle:10 for 200 rounds (p = 0.5, seed = 4):\n"),
            "{out}"
        );
        assert!(out.contains("all clean"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
    }

    #[test]
    fn invariants_requires_graph() {
        assert!(cli(&["invariants"]).unwrap_err().contains("--graph"));
    }

    #[test]
    fn parse_scenario_run() {
        // Flags are read before the (missing) file is.
        let err = cli(&[
            "scenario",
            "run",
            "/nonexistent/churn.toml",
            "--seed",
            "9",
            "--rounds",
            "500",
        ])
        .unwrap_err();
        assert!(
            err.starts_with("cannot read /nonexistent/churn.toml"),
            "{err}"
        );
        assert!(cli(&["scenario"]).unwrap_err().contains("run FILE"));
        assert!(cli(&["scenario", "list"])
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(cli(&["scenario", "run"])
            .unwrap_err()
            .contains("FILE is required"));
        assert!(cli(&["scenario", "run", "a.toml", "b.toml"])
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(cli(&["scenario", "run", "a.toml", "--bogus"])
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn parse_scenario_kernel_flag() {
        for name in ["auto", "generic", "bit"] {
            let err = cli(&["scenario", "run", "/nonexistent/a.toml", "--kernel", name]);
            assert!(err.unwrap_err().starts_with("cannot read"), "{name}");
        }
        // The spec parser's name helper: the same hint as `kernel = "bitt"`.
        assert!(cli(&["scenario", "run", "a.toml", "--kernel", "bitt"])
            .unwrap_err()
            .contains("--kernel: unknown kernel 'bitt' (did you mean 'bit'?)"));
        assert!(cli(&["scenario", "run", "a.toml", "--kernel"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn parse_scenario_threads_flag() {
        let err = cli(&["scenario", "run", "/nonexistent/a.toml", "--threads", "4"]);
        assert!(err.unwrap_err().starts_with("cannot read"));
        assert!(cli(&["scenario", "run", "a.toml", "--threads", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(cli(&["scenario", "run", "a.toml", "--threads"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(cli(&["scenario", "run", "a.toml", "--threads", "four"])
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn execute_scenario_kernels_agree_byte_for_byte() {
        // The acceptance-criteria property at CLI level: apart from the
        // kernel header line, the two kernels' outputs are identical.
        let path = spec_file(
            "bfw_cli_kernel_test",
            "kernels.toml",
            "[scenario]\nname = \"kernels\"\ngraph = \"cycle:64\"\nrounds = 4000\n\
             stability = 20\n\n[[event]]\nat = 1500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 1600\nkind = \"recover-all\"\n",
        );
        let run =
            |kernel| cli(&["scenario", "run", &path, "--seed", "42", "--kernel", kernel]).unwrap();
        let generic = run("generic");
        let bit = run("bit");
        assert!(generic.contains("kernel:            generic"), "{generic}");
        assert!(bit.contains("kernel:            bit"), "{bit}");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("kernel:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&generic), strip(&bit));
        // Auto resolves to generic at this size and says so.
        let auto = run("auto");
        assert!(auto.contains("kernel:            generic"), "{auto}");
        assert_eq!(strip(&auto), strip(&bit));
    }

    #[test]
    fn execute_scenario_thread_counts_agree_byte_for_byte() {
        // The tentpole property at CLI level: apart from the threads
        // header line, `--threads N` never changes a byte of output.
        let path = spec_file(
            "bfw_cli_threads_test",
            "threads.toml",
            "[scenario]\nname = \"threads\"\ngraph = \"cycle:96\"\nrounds = 4000\n\
             stability = 20\nkernel = \"bit\"\n\n\
             [[event]]\nat = 1000\nkind = \"noise-burst\"\nfn = 0.01\nfp = 0.01\nrounds = 200\n\n\
             [[event]]\nat = 1500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 1600\nkind = \"recover-all\"\n",
        );
        let serial = cli(&["scenario", "run", &path, "--seed", "42"]).unwrap();
        assert!(!serial.contains("threads:"), "{serial}");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("threads:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for t in ["1", "2", "7"] {
            let sharded = cli(&["scenario", "run", &path, "--seed", "42", "--threads", t]).unwrap();
            assert!(
                sharded.contains(&format!("threads:           {t}")),
                "{sharded}"
            );
            assert_eq!(strip(&serial), strip(&sharded), "threads={t}");
        }
    }

    #[test]
    fn execute_scenario_end_to_end() {
        let path = spec_file(
            "bfw_cli_scenario_test",
            "mini.toml",
            "[scenario]\nname = \"mini\"\ngraph = \"cycle:8\"\nrounds = 6000\nstability = 20\n\n\
             [[event]]\nat = 2500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 2600\nkind = \"recover-all\"\n",
        );
        let run = || cli(&["scenario", "run", &path, "--seed", "42"]).unwrap();
        let out = run();
        assert!(out.contains("scenario:          mini"), "{out}");
        assert!(out.contains("protocol:          bfw"), "{out}");
        assert!(out.contains("rounds run:        6000"), "{out}");
        assert!(out.contains("crash-leader"), "{out}");
        assert!(out.contains("mean re-election latency:"), "{out}");
        // Byte-identical on repeat (the acceptance-criteria property).
        assert_eq!(out, run());
        // --rounds truncates the horizon.
        let out = cli(&["scenario", "run", &path, "--seed", "42", "--rounds", "500"]).unwrap();
        assert!(out.contains("rounds run:        500"), "{out}");
    }

    #[test]
    fn relative_trace_file_lands_next_to_the_spec() {
        // A relative `[trace] file` resolves against the spec's
        // directory, not the one `bfw` runs in; an absolute one is kept.
        let dir = std::env::temp_dir().join(format!("bfw_cli_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let relative = "relative_trace_report.json";
        let absolute = dir.join("elsewhere").join("report.json");
        std::fs::create_dir_all(absolute.parent().unwrap()).unwrap();
        let path = dir.join("traced.toml");
        for (file, report) in [
            (relative.to_owned(), dir.join(relative)),
            (absolute.display().to_string(), absolute.clone()),
        ] {
            let spec = "[scenario]\ngraph = \"cycle:8\"\nrounds = 500\n[trace]\n";
            std::fs::write(&path, format!("{spec}file = \"{file}\"\n")).unwrap();
            let out = cli(&["scenario", "run", &path.to_string_lossy()]).unwrap();
            let wrote = format!("wrote trace report to {}\n", report.display());
            assert!(out.ends_with(&wrote), "{out}");
            let text = std::fs::read_to_string(&report).expect("the report is written");
            bfw_scenario::validate_run_report(&text).unwrap();
        }
        assert!(
            !std::path::Path::new(relative).exists(),
            "nothing lands in the CWD"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn execute_recovery_scenario_survives_leader_crash() {
        // The self-healing stack through the whole CLI pipeline: crash
        // the only leader, never recover it — plain BFW would end
        // leaderless (see the engine tests); bfw+recovery must re-elect.
        let path = spec_file(
            "bfw_cli_scenario_test",
            "self_heal.toml",
            "[scenario]\nname = \"self-heal\"\ngraph = \"cycle:8\"\nrounds = 30000\n\
             stability = 20\nprotocol = \"bfw+recovery\"\n\n\
             [[event]]\nat = 9000\nkind = \"crash-leader\"\n",
        );
        let out = cli(&["scenario", "run", &path, "--seed", "5"]).unwrap();
        assert!(out.contains("protocol:          bfw+recovery"), "{out}");
        assert!(out.contains("pending disruption: none"), "{out}");
        assert!(!out.contains("final leaders:     []"), "{out}");
    }

    #[test]
    fn execute_scenario_reports_file_and_spec_errors() {
        let err = cli(&["scenario", "run", "/nonexistent/nope.toml"]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");

        let path = spec_file(
            "bfw_cli_scenario_test",
            "broken.toml",
            "[scenario]\nname = \"no graph\"\n",
        );
        let err = cli(&["scenario", "run", &path]).unwrap_err();
        assert!(err.contains("graph"), "{err}");
    }

    #[test]
    fn parse_scenario_lifecycle_verbs() {
        // Each accepted line reaches its (missing) file.
        for args in [
            &["scenario", "validate", "/nonexistent/a.toml"][..],
            &[
                "scenario",
                "step",
                "/nonexistent/a.toml",
                "--rounds",
                "500",
                "--out",
                "s.json",
            ],
            &[
                "scenario",
                "step",
                "--resume-from",
                "/nonexistent/s.json",
                "--rounds",
                "500",
            ],
            &[
                "scenario",
                "run",
                "--resume-from",
                "/nonexistent/s.json",
                "--rounds",
                "900",
                "--kernel",
                "bit",
            ],
            &[
                "scenario",
                "export",
                "/nonexistent/a.toml",
                "--seed",
                "9",
                "--out",
                "spec.json",
            ],
            &["scenario", "shrink", "/nonexistent/a.toml", "--quick"],
        ] {
            let err = cli(args).unwrap_err();
            assert!(
                err.starts_with("cannot read /nonexistent/"),
                "{args:?}: {err}"
            );
        }
        assert!(cli(&["scenario", "validate"])
            .unwrap_err()
            .contains("exactly one FILE"));
        assert!(cli(&["scenario", "step", "a.toml"])
            .unwrap_err()
            .contains("--rounds N is required"));
        assert!(cli(&["scenario", "step", "--rounds", "5"])
            .unwrap_err()
            .contains("exactly one of FILE or --resume-from"));
        assert!(cli(&[
            "scenario",
            "step",
            "a.toml",
            "--resume-from",
            "s.json",
            "--rounds",
            "5"
        ])
        .unwrap_err()
        .contains("exactly one of FILE or --resume-from"));
        assert!(cli(&[
            "scenario",
            "step",
            "--resume-from",
            "s.json",
            "--rounds",
            "5",
            "--seed",
            "3"
        ])
        .unwrap_err()
        .contains("pins its seed"));
        assert!(
            cli(&["scenario", "run", "a.toml", "--resume-from", "s.json"])
                .unwrap_err()
                .contains("mutually exclusive")
        );
        assert!(
            cli(&["scenario", "run", "--resume-from", "s.json", "--seed", "4"])
                .unwrap_err()
                .contains("pins its seed")
        );
        assert!(cli(&[
            "scenario",
            "run",
            "--resume-from",
            "s.json",
            "--trace",
            "t.json"
        ])
        .unwrap_err()
        .contains("--trace"));
        // A misspelled verb gets a did-you-mean hint.
        let err = cli(&["scenario", "vaildate", "a.toml"]).unwrap_err();
        assert!(err.contains("did you mean 'validate'"), "{err}");
    }

    /// Satellite regression for the resolved-kernel fix at the CLI
    /// seam: `--threads N` on an auto-kernel spec below the size
    /// threshold must engage the bit kernel (it used to resolve generic
    /// and silently ignore the flag).
    #[test]
    fn threads_flag_engages_bit_kernel_below_auto_threshold() {
        let path = spec_file(
            "bfw_cli_auto_threads_test",
            "auto.toml",
            "[scenario]\nname = \"auto\"\ngraph = \"cycle:64\"\nrounds = 3000\nstability = 20\n\n\
             [[event]]\nat = 1000\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 1100\nkind = \"recover-all\"\n",
        );
        let serial = cli(&["scenario", "run", &path, "--seed", "42"]).unwrap();
        assert!(serial.contains("kernel:            generic"), "{serial}");
        let sharded = cli(&["scenario", "run", &path, "--seed", "42", "--threads", "4"]).unwrap();
        assert!(sharded.contains("kernel:            bit"), "{sharded}");
        assert!(sharded.contains("threads:           4"), "{sharded}");
        // And the thread count still never changes the outcome.
        assert_eq!(strip_stack(&serial), strip_stack(&sharded));
    }

    #[test]
    fn execute_scenario_step_resume_matches_straight_run() {
        // The acceptance-criteria property end to end: step 500, resume
        // 500, and the final report is byte-identical to one straight
        // 1000-round run — across kernels and thread counts.
        let file = spec_file(
            "bfw_cli_lifecycle_test",
            "steps.toml",
            "[scenario]\nname = \"steps\"\ngraph = \"cycle:32\"\nrounds = 1000\nstability = 20\n\
             seed = 42\n\n\
             [[event]]\nat = 300\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 400\nkind = \"recover-all\"\n\n\
             [[event]]\nrate = 0.002\nkind = \"crash-random\"\n\n\
             [[event]]\nrate = 0.004\nkind = \"recover-random\"\n",
        );
        let straight = cli(&["scenario", "run", &file]).unwrap();
        let dir = std::env::temp_dir().join("bfw_cli_lifecycle_test");
        let snap_a = dir.join("a.json").to_string_lossy().into_owned();
        let snap_b = dir.join("b.json").to_string_lossy().into_owned();
        for stack in [
            &[][..],
            &["--kernel", "generic"],
            &["--kernel", "bit", "--threads", "1"],
            &["--kernel", "bit", "--threads", "4"],
        ] {
            let step = |source: &[&str], rounds: &str, out: &str| {
                let mut args = vec!["scenario", "step"];
                args.extend_from_slice(source);
                args.extend_from_slice(&["--rounds", rounds, "--out", out]);
                args.extend_from_slice(stack);
                cli(&args).unwrap()
            };
            let wrote = step(&[&file], "500", &snap_a);
            assert!(wrote.contains("at round 500/1000"), "{wrote}");
            // The kernel picks the resumed run's engine; the threads
            // only shard the stepping.
            let mut resume = vec!["scenario", "run", "--resume-from", &snap_a];
            resume.extend_from_slice(&stack[..stack.len().min(2)]);
            let resumed = cli(&resume).unwrap();
            // Stepping in two halves writes the same snapshot as one
            // step of the full distance...
            step(&["--resume-from", &snap_a], "500", &snap_b);
            let two_step = std::fs::read_to_string(&snap_b).unwrap();
            cli(&[
                "scenario", "step", &file, "--rounds", "1000", "--out", &snap_b,
            ])
            .unwrap();
            let one_step = std::fs::read_to_string(&snap_b).unwrap();
            assert_eq!(two_step, one_step, "{stack:?}");
            // ... and resuming reproduces the straight run's report,
            // byte for byte (modulo the execution-stack header lines,
            // which reflect the chosen kernel).
            assert_eq!(strip_stack(&straight), strip_stack(&resumed), "{stack:?}");
        }

        // The emitted snapshot validates through `bfw report validate`.
        cli(&[
            "scenario", "step", &file, "--rounds", "500", "--out", &snap_a,
        ])
        .unwrap();
        let out = cli(&["report", "validate", &snap_a]).unwrap();
        assert!(out.contains("ok — bfw/engine-snapshot"), "{out}");
        assert!(out.contains("\"steps\" at round 500/1000"), "{out}");

        // --rounds before the snapshot round is refused.
        let err = cli(&[
            "scenario",
            "run",
            "--resume-from",
            &snap_a,
            "--rounds",
            "100",
        ])
        .unwrap_err();
        assert!(err.contains("before the snapshot round"), "{err}");
    }

    #[test]
    fn execute_scenario_validate_reports_errors_and_warnings() {
        let good = spec_file(
            "bfw_cli_validate_test",
            "good.toml",
            "[scenario]\nname = \"good\"\ngraph = \"cycle:12\"\nrounds = 1000\nstability = 20\n\n\
             [[event]]\nat = 100\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 5000\nkind = \"recover-all\"\n",
        );
        let out = cli(&["scenario", "validate", &good]).unwrap();
        assert!(out.contains("ok — \"good\", 12 nodes"), "{out}");
        assert!(out.contains("warning:"), "{out}");
        assert!(out.contains("never applies"), "{out}");

        let broken = spec_file(
            "bfw_cli_validate_test",
            "broken.toml",
            "[scenario]\nname = \"broken\"\ngraph = \"cycle:12\"\nrounds = 1000\n\n\
             [[event]]\nat = 100\nkind = \"crash\"\nnode = 99\n",
        );
        let err = cli(&["scenario", "validate", &broken]).unwrap_err();
        assert!(err.contains("node 99 out of range"), "{err}");
    }

    #[test]
    fn execute_scenario_export_and_report_validate() {
        let path = spec_file(
            "bfw_cli_export_test",
            "exp.toml",
            "[scenario]\nname = \"exp\"\ngraph = \"cycle:8\"\nrounds = 500\nstability = 20\n\n\
             [[event]]\nevery = 100\nkind = \"crash-random\"\n",
        );
        let out_path = std::env::temp_dir()
            .join("bfw_cli_export_test")
            .join("exp.json")
            .to_string_lossy()
            .into_owned();
        let out = cli(&[
            "scenario", "export", &path, "--seed", "7", "--out", &out_path,
        ])
        .unwrap();
        // The periodic schedule compiled to five concrete firings.
        assert_eq!(
            out,
            format!("wrote {out_path} — bfw/scenario-spec, \"exp\" (500 rounds, 5 events)")
        );
        let validated = cli(&["report", "validate", &out_path]).unwrap();
        assert_eq!(
            validated,
            format!("{out_path}: ok — bfw/scenario-spec, \"exp\" (500 rounds, 5 events)")
        );
    }

    #[test]
    fn execute_scenario_shrink_minimizes_a_wipeout() {
        let path = spec_file(
            "bfw_cli_shrink_test",
            "wipe.toml",
            "[scenario]\nname = \"wipe\"\ngraph = \"cycle:12\"\nrounds = 4000\nstability = 20\n\
             seed = 7\n\n\
             [[event]]\nat = 150\nkind = \"crash-random\"\n\n\
             [[event]]\nat = 250\nkind = \"recover-all\"\n\n\
             [[event]]\nat = 800\nkind = \"inject-phantom\"\nwaves = 1\n",
        );
        let out_path = std::env::temp_dir()
            .join("bfw_cli_shrink_test")
            .join("min.json")
            .to_string_lossy()
            .into_owned();
        let out = cli(&["scenario", "shrink", &path, "--quick", "--out", &out_path]).unwrap();
        assert!(
            out.contains("wipeout reproduced with 1 of 3 events"),
            "{out}"
        );
        assert!(out.contains("inject("), "{out}");
        let validated = cli(&["report", "validate", &out_path]).unwrap();
        assert!(validated.contains("ok — bfw/scenario-spec"), "{validated}");

        // A scenario that elects and stays stable has nothing to shrink.
        let stable = spec_file(
            "bfw_cli_shrink_test",
            "stable.toml",
            "[scenario]\nname = \"stable\"\ngraph = \"cycle:8\"\nrounds = 5000\nseed = 1\n",
        );
        let err = cli(&["scenario", "shrink", &stable, "--quick"]).unwrap_err();
        assert!(err.contains("does not wipe out"), "{err}");
    }

    #[test]
    fn parse_experiment_noise_flag() {
        // Only the recovery experiment (E17) reads --noise: it adds the
        // noise-on-heartbeat sweep table.
        let noisy = cli(&["experiment", "recovery", "--quick", "--noise"]).unwrap();
        assert!(noisy.contains("noise-on-heartbeat sweep"), "{noisy}");
        let quiet = cli(&["experiment", "recovery", "--quick"]).unwrap();
        assert!(!quiet.contains("noise-on-heartbeat sweep"), "{quiet}");
    }

    #[test]
    fn experiment_out_writes_one_csv_per_table() {
        let dir =
            std::env::temp_dir().join(format!("bfw_cli_experiment_out_{}", std::process::id()));
        let dir_text = dir.to_string_lossy();
        let out = cli(&[
            "experiment",
            "chain",
            "--quick",
            "--trials",
            "2",
            "--out",
            &dir_text,
        ])
        .unwrap();
        let written: Vec<&str> = out.lines().filter(|l| l.starts_with("wrote ")).collect();
        assert!(!written.is_empty(), "{out}");
        for line in written {
            let path = std::path::Path::new(&line["wrote ".len()..]);
            assert!(path.starts_with(&dir), "{line}");
            let name = path.file_name().unwrap().to_string_lossy();
            assert!(name.starts_with("E") && name.ends_with(".csv"), "{name}");
            let csv = std::fs::read_to_string(path).unwrap();
            assert!(csv.lines().count() >= 2, "header and rows: {csv}");
        }
        assert!(cli(&["experiment", "chain", "--out"])
            .unwrap_err()
            .contains("--out"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execute_async_scenario_prints_runtime_line() {
        let path = spec_file(
            "bfw_cli_scenario_test",
            "async_mini.toml",
            "[scenario]\nname = \"async mini\"\ngraph = \"cycle:8\"\nrounds = 20000\n\
             stability = 200\nruntime = \"async\"\nscheduler = \"replay\"\n\n\
             [[event]]\nat = 400\nkind = \"crash-random\"\n\n\
             [[event]]\nat = 2000\nkind = \"recover-all\"\n",
        );
        let run = || cli(&["scenario", "run", &path, "--seed", "9"]).unwrap();
        let out = run();
        assert!(
            out.contains(
                "runtime:           async (scheduler: replay; timeline positions in activations)"
            ),
            "{out}"
        );
        assert!(out.contains("rounds run:        20000"), "{out}");
        assert!(out.contains("crashed node"), "{out}");
        // Byte-identical on repeat (the acceptance-criteria property).
        assert_eq!(out, run());
        // The synchronous line stays minimal.
        let sync = spec_file(
            "bfw_cli_scenario_test",
            "sync_mini.toml",
            "[scenario]\nname = \"sync mini\"\ngraph = \"cycle:8\"\nrounds = 500\n",
        );
        let out = cli(&["scenario", "run", &sync]).unwrap();
        assert!(out.contains("runtime:           sync\n"), "{out}");
    }

    #[test]
    fn usage_mentions_scenario() {
        assert!(usage().contains("bfw scenario run"));
    }

    #[test]
    fn usage_documents_all_flags() {
        let u = usage();
        assert!(u.contains("--trace FILE"), "{u}");
        assert!(u.contains("--trace-last N"), "{u}");
        assert!(u.contains("'recovery' experiment reads it"), "{u}");
        assert!(u.contains("complexity"), "{u}");
        assert!(u.contains("BENCH_complexity.json"), "{u}");
        // The interchange line lists every kind `report validate` takes.
        assert!(
            u.contains(
                "(graph, bench-report, scenario-report, bench-history,\n              \
                 engine-snapshot, scenario-spec, report-diff);"
            ),
            "{u}"
        );
    }

    #[test]
    fn parse_scenario_trace_flags() {
        let err = cli(&[
            "scenario",
            "run",
            "/nonexistent/churn.toml",
            "--trace",
            "out.json",
            "--trace-last",
            "64",
        ])
        .unwrap_err();
        assert!(
            err.starts_with("cannot read /nonexistent/churn.toml"),
            "{err}"
        );
        assert!(cli(&["scenario", "run", "a.toml", "--trace"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(cli(&["scenario", "run", "a.toml", "--trace-last", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn unknown_experiment_names_get_hints() {
        let err = cli(&["experiment", "tabel1", "--quick", "--trials", "1"]).unwrap_err();
        assert_eq!(err, "unknown experiment 'tabel1' (did you mean 'table1'?)");
        // Nothing close: no hint.
        let err = cli(&["experiment", "zzzzzzzzzz", "--quick", "--trials", "1"]).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn traced_scenario_appends_to_pinned_output_and_writes_json() {
        let path = spec_file(
            "bfw_cli_scenario_test",
            "traced.toml",
            "[scenario]\nname = \"traced\"\ngraph = \"cycle:8\"\nrounds = 6000\nstability = 20\n\n\
             [[event]]\nat = 2500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 2600\nkind = \"recover-all\"\n",
        );
        let json_path = std::env::temp_dir()
            .join("bfw_cli_scenario_test")
            .join("traced.json")
            .to_string_lossy()
            .into_owned();
        let untraced = cli(&["scenario", "run", &path, "--seed", "42"]).unwrap();
        let traced = cli(&[
            "scenario", "run", &path, "--seed", "42", "--trace", &json_path,
        ])
        .unwrap();
        // The pinned result block is untouched: the traced output
        // starts with the untraced output, byte for byte.
        assert!(traced.starts_with(&untraced), "{traced}");
        assert!(traced.contains("complexity: steps=6000"), "{traced}");
        assert!(traced.contains("recoveries (channel cost):"), "{traced}");
        assert!(traced.contains("wrote trace report to"), "{traced}");
        // The report on disk is the full versioned scenario-report
        // document — config + result + trace, one envelope.
        let json = std::fs::read_to_string(&json_path).unwrap();
        let summary = bfw_scenario::validate_run_report(&json).unwrap();
        assert_eq!(summary.scenario, "traced");
        assert!(summary.traced);
        let value = bfw_stats::JsonValue::parse(&json).unwrap();
        assert_eq!(
            value.get("format").and_then(bfw_stats::JsonValue::as_str),
            Some("bfw/scenario-report")
        );
        assert_eq!(
            value
                .get("version")
                .and_then(bfw_stats::JsonValue::as_number),
            Some(1.0)
        );
        assert!(value
            .get("trace")
            .and_then(|t| t.get("flight_recorder"))
            .and_then(|r| r.get("events"))
            .is_some());
        // --trace-last sizes the flight recorder.
        cli(&[
            "scenario",
            "run",
            &path,
            "--seed",
            "42",
            "--trace",
            &json_path,
            "--trace-last",
            "3",
        ])
        .unwrap();
        let value =
            bfw_stats::JsonValue::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        let events = value
            .get("trace")
            .and_then(|t| t.get("flight_recorder"))
            .and_then(|r| r.get("events"))
            .and_then(bfw_stats::JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn parse_graph_and_report_verbs() {
        let dir = std::env::temp_dir().join(format!("bfw_cli_verbs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.json").to_string_lossy().into_owned();
        assert_eq!(
            cli(&["graph", "export", "cycle:8", "--out", &g]).unwrap(),
            format!("wrote {g} (8 nodes, 8 edges)")
        );
        // Each accepted line reaches its (missing) file.
        for args in [
            &["graph", "import", "/nonexistent/g.json"][..],
            &["graph", "validate", "/nonexistent/g.json"],
            &["report", "validate", "/nonexistent/a.json", "b.json"],
            &["report", "diff", "/nonexistent/a.json", "b.json"],
            &[
                "report",
                "history",
                "/nonexistent/a.json",
                "b.json",
                "--out",
                "h.json",
            ],
            &["report", "history", "/nonexistent/a.json"],
        ] {
            let err = cli(args).unwrap_err();
            assert!(
                err.starts_with("cannot read /nonexistent/a.json")
                    || err.starts_with("cannot read /nonexistent/g.json"),
                "{args:?}: {err}"
            );
        }
        // The one-SPEC describe form.
        assert!(cli(&["graph", "cycle:8"])
            .unwrap()
            .starts_with("spec:      cycle:8\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn graph_and_report_verbs_get_hints() {
        let err = cli(&["graph", "exprot", "cycle:8"]).unwrap_err();
        assert!(err.contains("did you mean 'export'?"), "{err}");
        let err = cli(&["report", "vaildate", "a.json"]).unwrap_err();
        assert!(err.contains("did you mean 'validate'?"), "{err}");
        assert!(cli(&["report"]).unwrap_err().contains("subcommand"));
        assert!(cli(&["report", "diff", "a.json"])
            .unwrap_err()
            .contains("exactly two"));
        assert!(cli(&["report", "validate"])
            .unwrap_err()
            .contains("at least one"));
        assert!(cli(&["report", "history"])
            .unwrap_err()
            .contains("at least one"));
        assert!(cli(&["report", "history", "a.json", "--bogus"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(cli(&["graph", "export", "cycle:8", "--bogus", "x"])
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn graph_export_import_validate_round_trip() {
        let dir = std::env::temp_dir().join("bfw_cli_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let exported = dir.join("ba.json").to_string_lossy().into_owned();
        let reexported = dir.join("ba2.json").to_string_lossy().into_owned();
        let out = cli(&["graph", "export", "ba:64:2:7", "--out", &exported]).unwrap();
        assert!(out.contains("64 nodes"), "{out}");

        // Validate reports the provenance family, through either verb.
        for verb in ["graph", "report"] {
            let out = cli(&[verb, "validate", &exported]).unwrap();
            assert!(out.contains("ok — bfw/graph, 64 nodes"), "{out}");
            assert!(out.ends_with(", family ba"), "{out}");
        }

        // Import → re-export is the identity on canonical documents.
        let out = cli(&["graph", "import", &exported, "--out", &reexported]).unwrap();
        assert!(out.contains("imported"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&exported).unwrap(),
            std::fs::read_to_string(&reexported).unwrap()
        );

        // Stdout export + the binary's newline would equal the --out
        // file: the export text itself has no trailing newline.
        let text = cli(&["graph", "export", "ba:64:2:7"]).unwrap();
        assert_eq!(
            format!("{text}\n"),
            std::fs::read_to_string(&exported).unwrap()
        );

        // Validation failures carry JSON-pointer paths.
        let broken = dir.join("broken.json");
        std::fs::write(
            &broken,
            r#"{"format": "bfw/graph", "version": 1, "nodes": 2, "edges": [[0, 5]]}"#,
        )
        .unwrap();
        let err = cli(&["graph", "validate", &broken.to_string_lossy()]).unwrap_err();
        assert!(err.contains("/edges/0"), "{err}");
    }

    #[test]
    fn report_validate_dispatches_on_format() {
        let toml = spec_file(
            "bfw_cli_report_test",
            "mini.toml",
            "[scenario]\nname = \"mini\"\ngraph = \"cycle:8\"\nrounds = 2000\nstability = 20\n\n\
             [[event]]\nat = 500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 600\nkind = \"recover-all\"\n",
        );
        let dir = std::env::temp_dir().join("bfw_cli_report_test");
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

        // A scenario report, produced through the CLI pipeline.
        let scenario_report = path("run.json");
        cli(&[
            "scenario",
            "run",
            &toml,
            "--seed",
            "42",
            "--trace",
            &scenario_report,
        ])
        .unwrap();

        // A graph document and a bench report.
        let graph_doc = path("graph.json");
        cli(&["graph", "export", "cycle:8", "--out", &graph_doc]).unwrap();
        let bench = path("bench.json");
        let report = bfw_bench::report::bench_report(
            "E99-test",
            true,
            7,
            [],
            [bfw_stats::JsonValue::object([(
                "graph",
                bfw_stats::JsonValue::from("cycle:8"),
            )])],
        );
        std::fs::write(&bench, report.render_pretty()).unwrap();

        let out = cli(&["report", "validate", &scenario_report, &graph_doc, &bench]).unwrap();
        assert!(out.contains("bfw/scenario-report, \"mini\""), "{out}");
        assert!(out.contains("bfw/graph, 8 nodes"), "{out}");
        assert!(out.contains("bfw/bench-report, E99-test (1 rows)"), "{out}");

        // Unknown formats are rejected with a hint and the full list.
        let alien = path("alien.json");
        std::fs::write(&alien, r#"{"format": "bfw/grpah", "version": 1}"#).unwrap();
        let err = cli(&["report", "validate", &alien]).unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
        assert!(err.contains("did you mean 'bfw/graph'?"), "{err}");
        assert!(
            err.ends_with(
                "valid: bfw/graph, bfw/bench-report, bfw/scenario-report, bfw/bench-history, \
                 bfw/engine-snapshot, bfw/scenario-spec, bfw/report-diff"
            ),
            "{err}"
        );
    }

    #[test]
    fn report_diff_is_structured_and_empty_on_identity() {
        let toml = spec_file(
            "bfw_cli_diff_test",
            "mini.toml",
            "[scenario]\nname = \"mini\"\ngraph = \"cycle:8\"\nrounds = 2000\nstability = 20\n\n\
             [[event]]\nat = 500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 600\nkind = \"recover-all\"\n",
        );
        let dir = std::env::temp_dir().join("bfw_cli_diff_test");
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let (a, b, c) = (path("a.json"), path("b.json"), path("c.json"));
        for (seed, file) in [("42", &a), ("43", &b), ("42", &c)] {
            cli(&["scenario", "run", &toml, "--seed", seed, "--trace", file]).unwrap();
        }

        // Different seeds: a structured, non-empty diff naming the
        // config seed among its JSON-pointer paths.
        let out = cli(&["report", "diff", &a, &b]).unwrap();
        let value = bfw_stats::JsonValue::parse(&out).unwrap();
        assert_eq!(
            value.get("format").and_then(bfw_stats::JsonValue::as_str),
            Some("bfw/report-diff")
        );
        let entries = value
            .get("entries")
            .and_then(bfw_stats::JsonValue::as_array)
            .unwrap();
        assert!(!entries.is_empty(), "{out}");
        assert!(entries.iter().any(|e| {
            e.get("pointer").and_then(bfw_stats::JsonValue::as_str) == Some("/config/seed")
        }));
        // The diff is itself a document `report validate` takes.
        let diff = path("diff.json");
        std::fs::write(&diff, &out).unwrap();
        assert_eq!(
            cli(&["report", "validate", &diff]).unwrap(),
            format!("{diff}: ok — bfw/report-diff, {} entries", entries.len())
        );

        // Same seed: byte-identical reports, zero entries.
        let out = cli(&["report", "diff", &a, &c]).unwrap();
        let value = bfw_stats::JsonValue::parse(&out).unwrap();
        assert_eq!(
            value
                .get("entries")
                .and_then(bfw_stats::JsonValue::as_array)
                .map(<[bfw_stats::JsonValue]>::len),
            Some(0)
        );
    }

    #[test]
    fn report_history_folds_reports_and_validates_back() {
        use bfw_stats::JsonValue;
        let dir = std::env::temp_dir().join("bfw_cli_history_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let mk = |seed: u64, rps: f64| {
            bfw_bench::report::bench_report(
                "E-demo",
                true,
                seed,
                [],
                [JsonValue::object([
                    ("graph", JsonValue::from("cycle:8")),
                    ("rps", JsonValue::from(rps)),
                ])],
            )
            .render_pretty()
        };
        let (a, b) = (path("a.json"), path("b.json"));
        std::fs::write(&a, mk(1, 100.0)).unwrap();
        std::fs::write(&b, mk(1, 150.0)).unwrap();

        // Without --out: the folded document prints to stdout.
        let out = cli(&["report", "history", &a, &b]).unwrap();
        let value = JsonValue::parse(&out).unwrap();
        assert_eq!(
            value.get("format").and_then(JsonValue::as_str),
            Some("bfw/bench-history")
        );
        assert_eq!(
            value.get("experiment").and_then(JsonValue::as_str),
            Some("E-demo")
        );
        assert_eq!(
            value
                .get("points")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(2)
        );

        // With --out: the file lands on disk, its summary matches what
        // `report validate` prints when it dispatches on the envelope.
        let h = path("history.json");
        let wrote = cli(&["report", "history", &a, &b, "--out", &h]).unwrap();
        assert!(wrote.contains("2 points"), "{wrote}");
        let validated = cli(&["report", "validate", &h]).unwrap();
        assert_eq!(
            wrote,
            format!("wrote {}", validated.replacen(": ok — ", " — ", 1))
        );
        assert!(validated.contains("bfw/bench-history"), "{validated}");
        assert!(validated.contains("E-demo"), "{validated}");

        // Mixed experiments refuse to fold.
        let c = path("c.json");
        std::fs::write(
            &c,
            bfw_bench::report::bench_report("E-other", true, 1, [], []).render_pretty(),
        )
        .unwrap();
        let err = cli(&["report", "history", &a, &c]).unwrap_err();
        assert!(err.contains("different experiments"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_toml_accepts_generator_families() {
        // The scenario `graph` key resolves through GraphSpec, so the
        // provenance-tagged generator families (ba, plaw) work in TOML.
        let path = spec_file(
            "bfw_cli_scenario_test",
            "ba_mini.toml",
            "[scenario]\nname = \"ba mini\"\ngraph = \"ba:32:2:7\"\nrounds = 2000\n\
             stability = 20\n",
        );
        let out = cli(&["scenario", "run", &path, "--seed", "3"]).unwrap();
        assert!(out.contains("graph:             ba:32:2:7"), "{out}");
        assert!(out.contains("rounds run:        2000"), "{out}");
    }

    #[test]
    fn spec_trace_section_enables_tracing_without_flags() {
        let path = spec_file(
            "bfw_cli_scenario_test",
            "spec_traced.toml",
            "[scenario]\nname = \"spec traced\"\ngraph = \"cycle:8\"\nrounds = 500\n\n\
             [trace]\nlast = 16\n",
        );
        let out = cli(&["scenario", "run", &path, "--seed", "1"]).unwrap();
        assert!(out.contains("complexity: steps=500"), "{out}");
        // No file destination anywhere: nothing written, no wrote line.
        assert!(!out.contains("wrote trace report"), "{out}");
    }
}
