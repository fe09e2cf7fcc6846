//! Implementation of the `bfw` command-line tool.
//!
//! Subcommands:
//!
//! * `bfw run --graph <spec>` — run one leader election and report the
//!   outcome;
//! * `bfw trace --graph <spec>` — print the ASCII beep-wave trace of an
//!   execution (see [`bfw_core::viz`]);
//! * `bfw graph <spec>` — print topology facts (n, m, diameter, degree
//!   stats);
//! * `bfw graph export|import|validate` — move graphs through the
//!   versioned `bfw/graph` interchange document (see [`bfw_graph::io`]);
//! * `bfw experiment <name> ...` — run one of the paper-reproduction
//!   experiments, optionally writing one CSV per table;
//! * `bfw scenario run <file>` — run a TOML fault-injection scenario
//!   (crashes, churn, partitions, noise bursts; see [`bfw_scenario`]);
//! * `bfw report validate|diff` — check or structurally compare any
//!   `bfw/*` report document (bench reports, scenario reports, graphs).
//!
//! Graph specs use the compact [`GraphSpec`] syntax, e.g. `path:64`,
//! `grid:8x8`, `er:100:120:7`, `ba:1000:3:7`, `rr:1000:4:7`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bfw_bench::{experiments, ExpConfig, GraphSpec};
use bfw_core::{theory, viz, Bfw, InitialConfig};
use bfw_graph::{algo, Graph, NodeId};
use bfw_sim::{run_election, ElectionConfig, Network};
use bfw_stats::did_you_mean;
use std::fmt::Write as _;
use std::path::Path;

/// A parsed command, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bfw run`
    Run {
        /// Workload.
        spec: GraphSpec,
        /// Beep probability; `None` means "use 1/(D+1)" (Theorem 3).
        p: Option<f64>,
        /// RNG seed.
        seed: u64,
        /// Round budget.
        max_rounds: u64,
        /// Post-convergence stability rounds.
        stability: u64,
    },
    /// `bfw trace`
    Trace {
        /// Workload (paths/cycles render best).
        spec: GraphSpec,
        /// Beep probability.
        p: f64,
        /// RNG seed.
        seed: u64,
        /// Rounds to render.
        rounds: u64,
        /// Start with leaders only at the path ends (§5 duel).
        duel: bool,
    },
    /// `bfw graph`
    Graph {
        /// Workload to describe.
        spec: GraphSpec,
    },
    /// `bfw graph export`
    GraphExport {
        /// Workload to export.
        spec: GraphSpec,
        /// Write the document here instead of stdout.
        out: Option<String>,
    },
    /// `bfw graph import`
    GraphImport {
        /// `bfw/graph` JSON file to read.
        file: String,
        /// Re-export the canonical document here.
        out: Option<String>,
    },
    /// `bfw graph validate`
    GraphValidate {
        /// `bfw/graph` JSON file to check (`None` = stdin).
        file: Option<String>,
    },
    /// `bfw report validate`
    ReportValidate {
        /// Report files to check (dispatched by their `format` field).
        files: Vec<String>,
    },
    /// `bfw report diff`
    ReportDiff {
        /// Left document.
        left: String,
        /// Right document.
        right: String,
    },
    /// `bfw report history`
    ReportHistory {
        /// `bfw/bench-report` files to fold, oldest first.
        files: Vec<String>,
        /// Write the `bfw/bench-history` document here instead of
        /// stdout.
        out: Option<String>,
    },
    /// `bfw invariants`
    Invariants {
        /// Workload to audit.
        spec: GraphSpec,
        /// Beep probability.
        p: f64,
        /// RNG seed.
        seed: u64,
        /// Rounds to audit.
        rounds: u64,
    },
    /// `bfw experiment`
    Experiment {
        /// Experiment names (empty = all).
        names: Vec<String>,
        /// Reduced sizes.
        quick: bool,
        /// Enable the optional perception-noise sweeps (E17).
        noise: bool,
        /// Trials per point.
        trials: Option<usize>,
        /// Base seed.
        seed: Option<u64>,
        /// Write one CSV per table into this directory.
        out: Option<String>,
    },
    /// `bfw scenario run`
    Scenario {
        /// Path of the TOML scenario file.
        file: String,
        /// Seed override (`None` = the spec's seed).
        seed: Option<u64>,
        /// Horizon override (`None` = the spec's rounds).
        rounds: Option<u64>,
        /// Destination for the complexity/flight-recorder JSON report
        /// (`--trace FILE`; overrides the spec's `[trace] file`).
        /// Tracing is enabled when this, `--trace-last`, or the spec's
        /// `[trace]` section is present.
        trace: Option<String>,
        /// Flight-recorder capacity (`--trace-last N`; overrides the
        /// spec's `[trace] last`, default 256).
        trace_last: Option<usize>,
        /// Execution-kernel override (`--kernel auto|generic|bit`;
        /// overrides the spec's `kernel` key).
        kernel: Option<bfw_scenario::KernelKind>,
        /// Worker-thread override for the bit kernel's word-sharded
        /// step (`--threads N`; overrides the spec's `threads` key;
        /// `None` = the spec's value, else available parallelism
        /// capped). Never changes outcomes.
        threads: Option<usize>,
    },
    /// `bfw scenario run --resume-from` — continue a paused run from a
    /// `bfw/engine-snapshot` document to its horizon.
    ScenarioResume {
        /// Path of the snapshot document.
        snapshot: String,
        /// Horizon override (`None` = the snapshot's embedded horizon;
        /// must not be before the snapshot round).
        rounds: Option<u64>,
        /// Execution-kernel override (snapshots are kernel-invariant,
        /// so any kernel resumes any snapshot).
        kernel: Option<bfw_scenario::KernelKind>,
        /// Worker-thread override for the bit kernel.
        threads: Option<usize>,
    },
    /// `bfw scenario validate` — static analysis, no execution.
    ScenarioValidate {
        /// Path of the TOML scenario file.
        file: String,
    },
    /// `bfw scenario step` — advance N rounds and emit a
    /// `bfw/engine-snapshot` document.
    ScenarioStep {
        /// Path of the TOML scenario file (start fresh); exclusive with
        /// `resume_from`.
        file: Option<String>,
        /// Path of a snapshot document to continue from.
        resume_from: Option<String>,
        /// Rounds to advance (clamped to the horizon).
        rounds: u64,
        /// Write the snapshot here instead of stdout.
        out: Option<String>,
        /// Seed override (file form only; the snapshot pins its seed).
        seed: Option<u64>,
        /// Execution-kernel override (never embedded in the snapshot).
        kernel: Option<bfw_scenario::KernelKind>,
        /// Worker-thread override (never embedded in the snapshot).
        threads: Option<usize>,
    },
    /// `bfw scenario export` — compiled timeline as a
    /// `bfw/scenario-spec` document.
    ScenarioExport {
        /// Path of the TOML scenario file.
        file: String,
        /// Seed override (`None` = the spec's seed).
        seed: Option<u64>,
        /// Write the document here instead of stdout.
        out: Option<String>,
    },
    /// `bfw scenario shrink` — minimize a wipeout timeline.
    ScenarioShrink {
        /// Path of the TOML scenario file.
        file: String,
        /// Seed override (`None` = the spec's seed).
        seed: Option<u64>,
        /// One drop pass, no retiming — a few replays instead of a few
        /// dozen.
        quick: bool,
        /// Write the minimized `bfw/scenario-spec` document here.
        out: Option<String>,
    },
    /// `bfw help`
    Help,
}

/// Usage text.
pub fn usage() -> String {
    let names: Vec<&str> = experiments::all().iter().map(|(n, _)| *n).collect();
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
             (graph, scenario-report, bench-report, bench-history); `bfw graph
             export` emits canonical bfw/graph documents with generator
             provenance, `bfw report validate` checks any of them, `bfw report
             diff` prints a structured bfw/report-diff with JSON-pointer paths,
             `bfw report history` folds successive bench reports of one
             experiment into a bfw/bench-history trajectory
scenarios:   TOML spec; `protocol = \"bfw+recovery\"` runs the self-healing stack,
             `runtime = \"async\"` runs activation-based scheduling (scheduler:
             uniform | weighted | replay; timeline positions in activations)
experiments: {}",
        names.join(", ")
    )
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, flags or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => parse_run(rest),
        "trace" => parse_trace(rest),
        "graph" => parse_graph(rest),
        "invariants" => parse_invariants(rest),
        "experiment" => parse_experiment(rest),
        "scenario" => parse_scenario(rest),
        "report" => parse_report(rest),
        other => Err(format!("unknown command '{other}'; try 'bfw help'")),
    }
}

fn take_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn take_spec(it: &mut std::slice::Iter<'_, String>) -> Result<GraphSpec, String> {
    let text = take_value("--graph", it)?;
    text.parse()
        .map_err(|e: bfw_bench::WorkloadError| e.to_string())
}

fn parse_run(args: &[String]) -> Result<Command, String> {
    let mut spec = None;
    let mut p = Some(0.5);
    let mut seed = 0;
    let mut max_rounds = 10_000_000;
    let mut stability = 1_000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--graph" => spec = Some(take_spec(&mut it)?),
            "--p" => {
                p = Some(
                    take_value("--p", &mut it)?
                        .parse()
                        .map_err(|_| "--p needs a number in (0, 1)".to_owned())?,
                )
            }
            "--known-d" => p = None,
            "--seed" => seed = parse_int(take_value("--seed", &mut it)?, "--seed")?,
            "--max-rounds" => {
                max_rounds = parse_int(take_value("--max-rounds", &mut it)?, "--max-rounds")?
            }
            "--stability" => {
                stability = parse_int(take_value("--stability", &mut it)?, "--stability")?
            }
            other => return Err(format!("run: unknown flag {other}")),
        }
    }
    let spec = spec.ok_or("run: --graph SPEC is required")?;
    Ok(Command::Run {
        spec,
        p,
        seed,
        max_rounds,
        stability,
    })
}

fn parse_trace(args: &[String]) -> Result<Command, String> {
    let mut spec = None;
    let mut p = 0.5;
    let mut seed = 0;
    let mut rounds = 40;
    let mut duel = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--graph" => spec = Some(take_spec(&mut it)?),
            "--p" => {
                p = take_value("--p", &mut it)?
                    .parse()
                    .map_err(|_| "--p needs a number in (0, 1)".to_owned())?
            }
            "--seed" => seed = parse_int(take_value("--seed", &mut it)?, "--seed")?,
            "--rounds" => rounds = parse_int(take_value("--rounds", &mut it)?, "--rounds")?,
            "--duel" => duel = true,
            other => return Err(format!("trace: unknown flag {other}")),
        }
    }
    let spec = spec.ok_or("trace: --graph SPEC is required")?;
    Ok(Command::Trace {
        spec,
        p,
        seed,
        rounds,
        duel,
    })
}

fn parse_invariants(args: &[String]) -> Result<Command, String> {
    let mut spec = None;
    let mut p = 0.5;
    let mut seed = 0;
    let mut rounds = 1_000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--graph" => spec = Some(take_spec(&mut it)?),
            "--p" => {
                p = take_value("--p", &mut it)?
                    .parse()
                    .map_err(|_| "--p needs a number in (0, 1)".to_owned())?
            }
            "--seed" => seed = parse_int(take_value("--seed", &mut it)?, "--seed")?,
            "--rounds" => rounds = parse_int(take_value("--rounds", &mut it)?, "--rounds")?,
            other => return Err(format!("invariants: unknown flag {other}")),
        }
    }
    let spec = spec.ok_or("invariants: --graph SPEC is required")?;
    Ok(Command::Invariants {
        spec,
        p,
        seed,
        rounds,
    })
}

fn parse_experiment(args: &[String]) -> Result<Command, String> {
    let mut names = Vec::new();
    let mut quick = false;
    let mut noise = false;
    let mut trials = None;
    let mut seed = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--noise" => noise = true,
            "--out" => out = Some(take_value("--out", &mut it)?.to_owned()),
            "--trials" => {
                trials = Some(parse_int(take_value("--trials", &mut it)?, "--trials")? as usize)
            }
            "--seed" => seed = Some(parse_int(take_value("--seed", &mut it)?, "--seed")?),
            flag if flag.starts_with('-') => {
                return Err(format!("experiment: unknown flag {flag}"))
            }
            name => names.push(name.to_owned()),
        }
    }
    Ok(Command::Experiment {
        names,
        quick,
        noise,
        trials,
        seed,
        out,
    })
}

/// The `bfw scenario` verbs.
const SCENARIO_VERBS: &[&str] = &["run", "validate", "step", "export", "shrink"];

fn parse_scenario(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(
            "scenario: expected a subcommand — run FILE | validate FILE | step | export | shrink"
                .to_owned(),
        );
    };
    match sub.as_str() {
        "run" => parse_scenario_run(rest),
        "validate" => match rest {
            [file] => Ok(Command::ScenarioValidate { file: file.clone() }),
            _ => Err("scenario validate takes exactly one FILE argument".to_owned()),
        },
        "step" => parse_scenario_step(rest),
        "export" => parse_scenario_export(rest),
        "shrink" => parse_scenario_shrink(rest),
        other => Err(format!(
            "scenario: unknown subcommand '{other}'{}; valid: run, validate, step, export, shrink",
            did_you_mean(other, SCENARIO_VERBS)
        )),
    }
}

fn parse_kernel_value(
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bfw_scenario::KernelKind, String> {
    take_value("--kernel", it)?
        .parse()
        .map_err(|e| format!("--kernel: {e}"))
}

fn parse_threads_value(it: &mut std::slice::Iter<'_, String>) -> Result<usize, String> {
    let t = parse_int(take_value("--threads", it)?, "--threads")?;
    if t == 0 {
        return Err("--threads must be at least 1".to_owned());
    }
    Ok(t as usize)
}

fn parse_scenario_run(rest: &[String]) -> Result<Command, String> {
    let mut file = None;
    let mut resume_from = None;
    let mut seed = None;
    let mut rounds = None;
    let mut trace = None;
    let mut trace_last = None;
    let mut kernel = None;
    let mut threads = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => seed = Some(parse_int(take_value("--seed", &mut it)?, "--seed")?),
            "--threads" => threads = Some(parse_threads_value(&mut it)?),
            "--rounds" => rounds = Some(parse_int(take_value("--rounds", &mut it)?, "--rounds")?),
            "--trace" => trace = Some(take_value("--trace", &mut it)?.to_owned()),
            "--trace-last" => {
                let last = parse_int(take_value("--trace-last", &mut it)?, "--trace-last")?;
                if last == 0 {
                    return Err("--trace-last must be at least 1".to_owned());
                }
                trace_last = Some(last as usize);
            }
            "--kernel" => kernel = Some(parse_kernel_value(&mut it)?),
            "--resume-from" => {
                resume_from = Some(take_value("--resume-from", &mut it)?.to_owned());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("scenario run: unknown flag {flag}"))
            }
            path if file.is_none() => file = Some(path.to_owned()),
            extra => return Err(format!("scenario run: unexpected argument '{extra}'")),
        }
    }
    if let Some(snapshot) = resume_from {
        if file.is_some() {
            return Err(
                "scenario run: FILE and --resume-from are mutually exclusive (the snapshot \
                 embeds the spec)"
                    .to_owned(),
            );
        }
        if seed.is_some() {
            return Err(
                "scenario run: --seed cannot be combined with --resume-from (the snapshot \
                 pins its seed)"
                    .to_owned(),
            );
        }
        if trace.is_some() || trace_last.is_some() {
            return Err(
                "scenario run: --trace/--trace-last cannot be combined with --resume-from"
                    .to_owned(),
            );
        }
        return Ok(Command::ScenarioResume {
            snapshot,
            rounds,
            kernel,
            threads,
        });
    }
    let file = file.ok_or("scenario run: FILE is required")?;
    Ok(Command::Scenario {
        file,
        seed,
        rounds,
        trace,
        trace_last,
        kernel,
        threads,
    })
}

fn parse_scenario_step(rest: &[String]) -> Result<Command, String> {
    let mut file = None;
    let mut resume_from = None;
    let mut rounds = None;
    let mut out = None;
    let mut seed = None;
    let mut kernel = None;
    let mut threads = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rounds" => rounds = Some(parse_int(take_value("--rounds", &mut it)?, "--rounds")?),
            "--out" => out = Some(take_value("--out", &mut it)?.to_owned()),
            "--seed" => seed = Some(parse_int(take_value("--seed", &mut it)?, "--seed")?),
            "--kernel" => kernel = Some(parse_kernel_value(&mut it)?),
            "--threads" => threads = Some(parse_threads_value(&mut it)?),
            "--resume-from" => {
                resume_from = Some(take_value("--resume-from", &mut it)?.to_owned());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("scenario step: unknown flag {flag}"))
            }
            path if file.is_none() => file = Some(path.to_owned()),
            extra => return Err(format!("scenario step: unexpected argument '{extra}'")),
        }
    }
    if file.is_some() == resume_from.is_some() {
        return Err(
            "scenario step: exactly one of FILE or --resume-from SNAP is required".to_owned(),
        );
    }
    if seed.is_some() && resume_from.is_some() {
        return Err(
            "scenario step: --seed cannot be combined with --resume-from (the snapshot pins \
             its seed)"
                .to_owned(),
        );
    }
    let rounds = rounds.ok_or("scenario step: --rounds N is required")?;
    Ok(Command::ScenarioStep {
        file,
        resume_from,
        rounds,
        out,
        seed,
        kernel,
        threads,
    })
}

fn parse_scenario_export(rest: &[String]) -> Result<Command, String> {
    let mut file = None;
    let mut seed = None;
    let mut out = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => seed = Some(parse_int(take_value("--seed", &mut it)?, "--seed")?),
            "--out" => out = Some(take_value("--out", &mut it)?.to_owned()),
            flag if flag.starts_with('-') => {
                return Err(format!("scenario export: unknown flag {flag}"))
            }
            path if file.is_none() => file = Some(path.to_owned()),
            extra => return Err(format!("scenario export: unexpected argument '{extra}'")),
        }
    }
    let file = file.ok_or("scenario export: FILE is required")?;
    Ok(Command::ScenarioExport { file, seed, out })
}

fn parse_scenario_shrink(rest: &[String]) -> Result<Command, String> {
    let mut file = None;
    let mut seed = None;
    let mut quick = false;
    let mut out = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => seed = Some(parse_int(take_value("--seed", &mut it)?, "--seed")?),
            "--quick" => quick = true,
            "--out" => out = Some(take_value("--out", &mut it)?.to_owned()),
            flag if flag.starts_with('-') => {
                return Err(format!("scenario shrink: unknown flag {flag}"))
            }
            path if file.is_none() => file = Some(path.to_owned()),
            extra => return Err(format!("scenario shrink: unexpected argument '{extra}'")),
        }
    }
    let file = file.ok_or("scenario shrink: FILE is required")?;
    Ok(Command::ScenarioShrink {
        file,
        seed,
        quick,
        out,
    })
}

/// The `bfw graph` verbs (beyond the legacy one-SPEC describe form).
const GRAPH_VERBS: &[&str] = &["export", "import", "validate"];

fn parse_graph(args: &[String]) -> Result<Command, String> {
    let Some((first, rest)) = args.split_first() else {
        return Err("graph needs a SPEC or a subcommand (export | import | validate)".to_owned());
    };
    match first.as_str() {
        "export" => {
            let (positional, out) = parse_out_flag("graph export", rest)?;
            let [spec] = positional.as_slice() else {
                return Err("graph export takes exactly one SPEC argument".to_owned());
            };
            Ok(Command::GraphExport {
                spec: spec.parse().map_err(|e| format!("{e}"))?,
                out,
            })
        }
        "import" => {
            let (positional, out) = parse_out_flag("graph import", rest)?;
            let [file] = positional.as_slice() else {
                return Err("graph import takes exactly one FILE argument".to_owned());
            };
            Ok(Command::GraphImport {
                file: (*file).clone(),
                out,
            })
        }
        "validate" => match rest {
            [] => Ok(Command::GraphValidate { file: None }),
            [file] if file.as_str() == "-" => Ok(Command::GraphValidate { file: None }),
            [file] => Ok(Command::GraphValidate {
                file: Some(file.clone()),
            }),
            _ => Err("graph validate takes at most one FILE argument (default: stdin)".to_owned()),
        },
        spec if rest.is_empty() => Ok(Command::Graph {
            spec: spec.parse().map_err(|e| {
                // A misspelled verb lands here as a bogus graph spec:
                // hint at the verbs alongside the spec error.
                format!("{e}{}", did_you_mean(spec, GRAPH_VERBS))
            })?,
        }),
        other => Err(format!(
            "unknown graph subcommand '{other}'{}; valid: export, import, validate (or one SPEC)",
            did_you_mean(other, GRAPH_VERBS)
        )),
    }
}

/// Splits `--out FILE` from the positional arguments of a graph verb.
fn parse_out_flag(ctx: &str, args: &[String]) -> Result<(Vec<String>, Option<String>), String> {
    let mut positional = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(take_value("--out", &mut it)?.to_owned()),
            flag if flag.starts_with("--") => return Err(format!("{ctx}: unknown flag {flag}")),
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, out))
}

/// The `bfw report` verbs.
const REPORT_VERBS: &[&str] = &["validate", "diff", "history"];

fn parse_report(args: &[String]) -> Result<Command, String> {
    let Some((verb, rest)) = args.split_first() else {
        return Err("report needs a subcommand (validate | diff | history)".to_owned());
    };
    match verb.as_str() {
        "validate" => {
            if rest.is_empty() {
                return Err("report validate needs at least one FILE".to_owned());
            }
            Ok(Command::ReportValidate {
                files: rest.to_vec(),
            })
        }
        "diff" => {
            let [left, right] = rest else {
                return Err("report diff takes exactly two FILE arguments".to_owned());
            };
            Ok(Command::ReportDiff {
                left: left.clone(),
                right: right.clone(),
            })
        }
        "history" => {
            let (files, out) = parse_out_flag("report history", rest)?;
            if files.is_empty() {
                return Err(
                    "report history needs at least one bfw/bench-report FILE (oldest first)"
                        .to_owned(),
                );
            }
            Ok(Command::ReportHistory { files, out })
        }
        other => Err(format!(
            "unknown report subcommand '{other}'{}; valid: validate, diff, history",
            did_you_mean(other, REPORT_VERBS)
        )),
    }
}

fn parse_int(s: &str, flag: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{flag} needs an integer, got '{s}'"))
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns a message when the underlying election or experiment fails
/// (e.g. budget exhausted, unknown experiment name).
pub fn execute(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::Graph { spec } => describe_graph(&spec),
        Command::GraphExport { spec, out } => graph_export(&spec, out.as_deref()),
        Command::GraphImport { file, out } => graph_import(&file, out.as_deref()),
        Command::GraphValidate { file } => graph_validate(file.as_deref()),
        Command::ReportValidate { files } => report_validate(&files),
        Command::ReportDiff { left, right } => report_diff(&left, &right),
        Command::ReportHistory { files, out } => report_history(&files, out.as_deref()),
        Command::Run {
            spec,
            p,
            seed,
            max_rounds,
            stability,
        } => run_one(&spec, p, seed, max_rounds, stability),
        Command::Trace {
            spec,
            p,
            seed,
            rounds,
            duel,
        } => trace_one(&spec, p, seed, rounds, duel),
        Command::Invariants {
            spec,
            p,
            seed,
            rounds,
        } => audit_one(&spec, p, seed, rounds),
        Command::Scenario {
            file,
            seed,
            rounds,
            trace,
            trace_last,
            kernel,
            threads,
        } => run_scenario(&file, seed, rounds, trace, trace_last, kernel, threads),
        Command::ScenarioResume {
            snapshot,
            rounds,
            kernel,
            threads,
        } => scenario_resume_run(&snapshot, rounds, kernel, threads),
        Command::ScenarioValidate { file } => scenario_validate(&file),
        Command::ScenarioStep {
            file,
            resume_from,
            rounds,
            out,
            seed,
            kernel,
            threads,
        } => scenario_step(
            file.as_deref(),
            resume_from.as_deref(),
            rounds,
            out.as_deref(),
            seed,
            kernel,
            threads,
        ),
        Command::ScenarioExport { file, seed, out } => scenario_export(&file, seed, out.as_deref()),
        Command::ScenarioShrink {
            file,
            seed,
            quick,
            out,
        } => scenario_shrink(&file, seed, quick, out.as_deref()),
        Command::Experiment {
            names,
            quick,
            noise,
            trials,
            seed,
            out: out_dir,
        } => {
            let mut cfg = if quick {
                ExpConfig::quick()
            } else {
                ExpConfig::full()
            };
            cfg.noise = noise;
            if let Some(t) = trials {
                cfg.trials = t;
            }
            if let Some(s) = seed {
                cfg.seed = s;
            }
            let registry = experiments::all();
            let selected: Vec<_> = if names.is_empty() {
                registry
            } else {
                names
                    .iter()
                    .map(|n| {
                        registry
                            .iter()
                            .find(|(name, _)| name == n)
                            .copied()
                            .ok_or_else(|| {
                                let known: Vec<&str> =
                                    registry.iter().map(|&(name, _)| name).collect();
                                format!("unknown experiment '{n}'{}", did_you_mean(n, &known))
                            })
                    })
                    .collect::<Result<_, _>>()?
            };
            let mut out = String::new();
            for (_, runner) in selected {
                let result = runner(&cfg);
                let _ = writeln!(out, "{}", result.to_markdown());
                if let Some(dir) = &out_dir {
                    for path in result
                        .write_csvs(Path::new(dir))
                        .map_err(|e| format!("cannot write CSVs to {dir}: {e}"))?
                    {
                        let _ = writeln!(out, "wrote {}", path.display());
                    }
                }
            }
            Ok(out)
        }
    }
}

fn run_scenario(
    file: &str,
    seed: Option<u64>,
    rounds: Option<u64>,
    trace_file: Option<String>,
    trace_last: Option<usize>,
    kernel: Option<bfw_scenario::KernelKind>,
    threads: Option<usize>,
) -> Result<String, String> {
    let (mut spec, graph) = load_scenario(file)?;
    if let Some(rounds) = rounds {
        spec.rounds = rounds;
    }
    if let Some(kernel) = kernel {
        spec.kernel = kernel;
    }
    if let Some(threads) = threads {
        spec.threads = Some(threads);
    }
    let seed = seed.unwrap_or(spec.seed);
    // Tracing is on when any of the CLI flags or the spec's [trace]
    // section asks for it; CLI values override the spec's.
    let tracing = trace_file.is_some() || trace_last.is_some() || spec.trace.is_some();
    let capacity = trace_last
        .or_else(|| spec.trace.as_ref().map(|t| t.last))
        .unwrap_or(256);
    // A relative `[trace] file` lands next to the spec; the --trace
    // flag is a path typed relative to the shell's directory.
    let destination = trace_file.or_else(|| {
        let name = spec.trace.as_ref()?.file.as_ref()?;
        let spec_dir = std::path::Path::new(file)
            .parent()
            .unwrap_or(std::path::Path::new(""));
        Some(spec_dir.join(name).display().to_string())
    });
    let (outcome, scenario_trace) =
        bfw_scenario::run_bfw_scenario_traced(&spec, &graph, seed, tracing.then_some(capacity))
            .map_err(|e| e.to_string())?;
    // One structure, two views (see bfw_scenario::RunReport): the
    // pinned stdout block and the versioned bfw/scenario-report JSON
    // document cannot drift apart. Trace reporting is strictly
    // appended *after* the pinned result block, so a traced run's
    // output starts with the untraced output, byte for byte.
    let report = bfw_scenario::RunReport::new(
        &spec,
        spec.graph.clone(),
        graph.node_count(),
        seed,
        outcome,
        scenario_trace,
    );
    let mut out = report.to_text();
    if report.trace.is_some() {
        if let Some(path) = destination {
            let json = report.to_json_value().render_pretty();
            std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            let _ = writeln!(out, "wrote trace report to {path}");
        }
    }
    Ok(out)
}

/// Reads and parses a scenario spec, reporting errors under the file's
/// name.
fn load_scenario_spec(file: &str) -> Result<bfw_scenario::ScenarioSpec, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    bfw_scenario::ScenarioSpec::parse(&text).map_err(|e| format!("{file}: {e}"))
}

/// [`load_scenario_spec`], plus the graph the spec names.
fn load_scenario(file: &str) -> Result<(bfw_scenario::ScenarioSpec, Graph), String> {
    let spec = load_scenario_spec(file)?;
    let graph = spec.build_graph().map_err(|e| format!("{file}: {e}"))?;
    Ok((spec, graph))
}

/// Reads and decodes a `bfw/engine-snapshot` document.
fn load_snapshot(path: &str) -> Result<bfw_scenario::EngineSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    bfw_scenario::EngineSnapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// `bfw scenario validate`: static analysis of a spec against its
/// graph — no rounds are executed. Hard misconfigurations fail the
/// command; legal-but-suspect conditions print as warning lines.
fn scenario_validate(file: &str) -> Result<String, String> {
    let (spec, graph) = load_scenario(file)?;
    let warnings =
        bfw_scenario::validate_scenario(&spec, &graph).map_err(|e| format!("{file}: {e}"))?;
    let mut out = format!(
        "{file}: ok — \"{}\", {} nodes, {} rounds, {} timeline entries",
        spec.name,
        graph.node_count(),
        spec.rounds,
        spec.timeline.entries().len()
    );
    for w in &warnings {
        let _ = write!(out, "\n  warning: {w}");
    }
    Ok(out)
}

/// One summary line for a written snapshot.
fn snapshot_summary_line(path: &str, snap: &bfw_scenario::EngineSnapshot) -> String {
    format!(
        "wrote {path} — bfw/engine-snapshot, \"{}\" at round {}/{} ({} nodes, {} crashed)",
        snap.spec.name,
        snap.round,
        snap.spec.rounds,
        snap.graph.node_count(),
        snap.checkpoint.crashed.iter().filter(|&&c| c).count()
    )
}

/// `bfw scenario step`: advance a fresh spec (or a prior snapshot) N
/// rounds and emit the paused run as a `bfw/engine-snapshot` document.
/// Kernel/thread flags choose the execution engine only — the emitted
/// bytes are identical for every choice.
fn scenario_step(
    file: Option<&str>,
    resume_from: Option<&str>,
    rounds: u64,
    out: Option<&str>,
    seed: Option<u64>,
    kernel: Option<bfw_scenario::KernelKind>,
    threads: Option<usize>,
) -> Result<String, String> {
    let snap = match (file, resume_from) {
        (Some(file), None) => {
            let (spec, graph) = load_scenario(file)?;
            let seed = seed.unwrap_or(spec.seed);
            bfw_scenario::step_bfw_scenario(&spec, &graph, seed, rounds, kernel, threads)
                .map_err(|e| e.to_string())?
        }
        (None, Some(path)) => {
            let prior = load_snapshot(path)?;
            bfw_scenario::resume_step_bfw_scenario(&prior, rounds, kernel, threads)
                .map_err(|e| e.to_string())?
        }
        _ => unreachable!("the parser requires exactly one source"),
    };
    let rendered = snap.to_json_value().render_pretty();
    match out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(snapshot_summary_line(path, &snap))
        }
        None => Ok(rendered.trim_end_matches('\n').to_owned()),
    }
}

/// `bfw scenario run --resume-from`: drive a snapshot to its horizon
/// and print the same pinned report block a straight `scenario run` of
/// the embedded spec would print — byte for byte.
fn scenario_resume_run(
    snapshot: &str,
    rounds: Option<u64>,
    kernel: Option<bfw_scenario::KernelKind>,
    threads: Option<usize>,
) -> Result<String, String> {
    let mut snap = load_snapshot(snapshot)?;
    if let Some(r) = rounds {
        if r < snap.round {
            return Err(format!(
                "scenario run: --rounds {r} is before the snapshot round {} (the run cannot \
                 rewind)",
                snap.round
            ));
        }
        snap.spec.rounds = r;
    }
    // The overrides pick the engine, and the report header shows them
    // exactly as `scenario run` shows its flags; a finished run embeds
    // no spec, so they can go straight into the snapshot's.
    if let Some(k) = kernel {
        snap.spec.kernel = k;
    }
    if threads.is_some() {
        snap.spec.threads = threads;
    }
    // The report names the spec's workload; the graph itself comes from
    // the snapshot, so the initial one is never generated.
    let outcome =
        bfw_scenario::resume_run_bfw_scenario(&snap, None, None).map_err(|e| e.to_string())?;
    let (spec, nodes) = (&snap.spec, snap.graph.node_count());
    let report =
        bfw_scenario::RunReport::new(spec, spec.graph.clone(), nodes, snap.seed, outcome, None);
    Ok(report.to_text())
}

/// `bfw scenario export`: the compiled all-`at` timeline as a
/// canonical `bfw/scenario-spec` document.
fn scenario_export(file: &str, seed: Option<u64>, out: Option<&str>) -> Result<String, String> {
    let spec = load_scenario_spec(file)?;
    let seed = seed.unwrap_or(spec.seed);
    let rendered = bfw_scenario::spec_to_json(&spec, seed).render_pretty();
    match out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            let summary = bfw_scenario::validate_scenario_spec(&rendered)
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(format!(
                "wrote {path} — bfw/scenario-spec, \"{}\" ({} rounds, {} events)",
                summary.name, summary.rounds, summary.events
            ))
        }
        None => Ok(rendered.trim_end_matches('\n').to_owned()),
    }
}

/// `bfw scenario shrink`: minimize a wipeout timeline while the
/// permanently-leaderless outcome still reproduces at the pinned seed.
fn scenario_shrink(
    file: &str,
    seed: Option<u64>,
    quick: bool,
    out: Option<&str>,
) -> Result<String, String> {
    let (spec, graph) = load_scenario(file)?;
    let seed = seed.unwrap_or(spec.seed);
    let report =
        bfw_scenario::shrink_wipeout(&spec, &graph, seed, quick).map_err(|e| e.to_string())?;
    let mut text = report.to_text();
    if let Some(path) = out {
        let rendered = bfw_scenario::spec_to_json(&report.spec, seed).render_pretty();
        std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = write!(
            text,
            "wrote {path} — bfw/scenario-spec, \"{}\" ({} events, horizon {})",
            report.spec.name,
            report.events.len(),
            report.horizon
        );
    }
    Ok(text.trim_end_matches('\n').to_owned())
}

/// `bfw graph export`: builds the workload and emits the canonical
/// `bfw/graph` document with generator provenance. Stdout output has no
/// trailing newline (the binary's `println!` adds exactly one), and
/// `--out` writes the same bytes plus that newline — so a piped export
/// and an exported file are byte-identical, which the CI round-trip
/// smoke checks with `cmp`.
fn graph_export(spec: &GraphSpec, out: Option<&str>) -> Result<String, String> {
    let doc = bfw_graph::io::GraphDoc {
        graph: spec.try_build().map_err(|e| e.to_string())?,
        provenance: Some(spec.provenance()),
        delta: None,
    };
    let text = bfw_graph::io::export_json(&doc);
    match out {
        Some(path) => {
            std::fs::write(path, format!("{text}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!(
                "wrote {path} ({} nodes, {} edges)",
                doc.graph.node_count(),
                doc.graph.edge_count()
            ))
        }
        None => Ok(text),
    }
}

/// `bfw graph import`: parses a `bfw/graph` document, reports what it
/// holds, and — with `--out` — re-exports the canonical form (a
/// normalizing round-trip: import ∘ export is the identity on
/// canonical documents).
fn graph_import(file: &str, out: Option<&str>) -> Result<String, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let doc = bfw_graph::io::import_json(&text).map_err(|e| format!("{file}: {e}"))?;
    let mut report = format!(
        "imported {file}: {} nodes, {} edges",
        doc.graph.node_count(),
        doc.graph.edge_count()
    );
    if let Some(p) = &doc.provenance {
        let _ = write!(report, ", family {}", p.family);
    }
    if let Some(delta) = &doc.delta {
        let _ = write!(report, ", overlay of {} edit(s)", delta.len());
    }
    if let Some(path) = out {
        let canonical = bfw_graph::io::export_json(&doc);
        std::fs::write(path, format!("{canonical}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = write!(report, "\nwrote {path}");
    }
    Ok(report)
}

/// `bfw graph validate`: checks a `bfw/graph` document from a file or
/// stdin and reports its summary, or fails with the schema error's
/// JSON-pointer path.
fn graph_validate(file: Option<&str>) -> Result<String, String> {
    let (text, source) = match file {
        Some(path) => (
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?,
            path.to_owned(),
        ),
        None => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            (text, "<stdin>".to_owned())
        }
    };
    let summary = bfw_graph::io::validate_json(&text).map_err(|e| format!("{source}: {e}"))?;
    Ok(format!(
        "{source}: ok — bfw/graph, {} nodes, {} edges{}",
        summary.nodes,
        summary.edges,
        summary
            .family
            .map(|f| format!(", family {f}"))
            .unwrap_or_default()
    ))
}

/// `bfw report validate`: dispatches each file on its envelope
/// `format` field to the matching schema validator and prints one
/// summary line per file. The first invalid file fails the command.
fn report_validate(files: &[String]) -> Result<String, String> {
    let mut out = String::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let value =
            bfw_stats::JsonValue::parse(&text).map_err(|e| format!("{file}: not JSON: {e}"))?;
        let format = value
            .get("format")
            .and_then(bfw_stats::JsonValue::as_str)
            .ok_or_else(|| format!("{file}: missing \"format\" envelope field"))?;
        let line = match format {
            "bfw/graph" => {
                let s = bfw_graph::io::validate_json(&text).map_err(|e| format!("{file}: {e}"))?;
                format!(
                    "{file}: ok — bfw/graph, {} nodes, {} edges",
                    s.nodes, s.edges
                )
            }
            "bfw/bench-report" => {
                let s = bfw_bench::report::validate_bench_report(&text)
                    .map_err(|e| format!("{file}: {e}"))?;
                format!(
                    "{file}: ok — bfw/bench-report, {} ({} rows)",
                    s.experiment, s.rows
                )
            }
            "bfw/scenario-report" => {
                let s =
                    bfw_scenario::validate_run_report(&text).map_err(|e| format!("{file}: {e}"))?;
                format!(
                    "{file}: ok — bfw/scenario-report, \"{}\" ({} rounds{})",
                    s.scenario,
                    s.rounds_run,
                    if s.traced { ", traced" } else { "" }
                )
            }
            "bfw/bench-history" => {
                let s = bfw_bench::report::validate_bench_history(&text)
                    .map_err(|e| format!("{file}: {e}"))?;
                format!(
                    "{file}: ok — bfw/bench-history, {} ({} points, {} changed paths)",
                    s.experiment, s.points, s.changes
                )
            }
            "bfw/engine-snapshot" => {
                let s = bfw_scenario::validate_engine_snapshot(&text)
                    .map_err(|e| format!("{file}: {e}"))?;
                format!(
                    "{file}: ok — bfw/engine-snapshot, \"{}\" at round {}/{} ({} nodes, {} crashed)",
                    s.name, s.round, s.rounds, s.nodes, s.crashed
                )
            }
            "bfw/scenario-spec" => {
                let s = bfw_scenario::validate_scenario_spec(&text)
                    .map_err(|e| format!("{file}: {e}"))?;
                format!(
                    "{file}: ok — bfw/scenario-spec, \"{}\" ({} rounds, {} events)",
                    s.name, s.rounds, s.events
                )
            }
            other => {
                let known = &[
                    "bfw/graph",
                    "bfw/bench-report",
                    "bfw/scenario-report",
                    "bfw/bench-history",
                    "bfw/engine-snapshot",
                    "bfw/scenario-spec",
                ];
                return Err(format!(
                    "{file}: unknown format \"{other}\"{}; valid: {}",
                    did_you_mean(other, known),
                    known.join(", ")
                ));
            }
        };
        let _ = writeln!(out, "{line}");
    }
    out.truncate(out.trim_end_matches('\n').len());
    Ok(out)
}

/// `bfw report diff`: structural comparison of two JSON documents,
/// printed as a `bfw/report-diff` document — one entry per differing
/// JSON-pointer path, with the left/right values (`null` = absent).
fn report_diff(left: &str, right: &str) -> Result<String, String> {
    let read = |path: &str| -> Result<bfw_stats::JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        bfw_stats::JsonValue::parse(&text).map_err(|e| format!("{path}: not JSON: {e}"))
    };
    let entries = bfw_stats::diff(&read(left)?, &read(right)?);
    let rendered = bfw_stats::diff_to_json(&entries).render_pretty();
    Ok(rendered.trim_end_matches('\n').to_owned())
}

/// `bfw report history`: folds a chronological sequence of
/// `bfw/bench-report` documents (same experiment) into one
/// `bfw/bench-history` document — the input reports verbatim as
/// `points`, plus a precomputed diff per consecutive pair as `deltas`.
fn report_history(files: &[String], out: Option<&str>) -> Result<String, String> {
    let mut reports = Vec::with_capacity(files.len());
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let value =
            bfw_stats::JsonValue::parse(&text).map_err(|e| format!("{file}: not JSON: {e}"))?;
        reports.push(value);
    }
    let history = bfw_bench::report::bench_history(&reports).map_err(|e| e.to_string())?;
    let rendered = history.render_pretty();
    match out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            let summary = bfw_bench::report::validate_bench_history(&rendered)
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(format!(
                "wrote {path} — bfw/bench-history, {} ({} points, {} changed paths)",
                summary.experiment, summary.points, summary.changes
            ))
        }
        None => Ok(rendered.trim_end_matches('\n').to_owned()),
    }
}

fn describe_graph(spec: &GraphSpec) -> Result<String, String> {
    let diameter = spec.try_diameter().map_err(|e| e.to_string())?;
    let g = spec.try_build().map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "spec:      {spec}");
    let _ = writeln!(out, "nodes:     {}", g.node_count());
    let _ = writeln!(out, "edges:     {}", g.edge_count());
    let _ = writeln!(out, "connected: {}", algo::is_connected(&g));
    match diameter {
        Some(d) => {
            let _ = writeln!(out, "diameter:  {d}");
            let _ = writeln!(
                out,
                "thm2 ref:  D²·ln n = {:.1} rounds",
                theory::BfwChainTheory::theorem2_reference(d, g.node_count())
            );
        }
        None => {
            let _ = writeln!(out, "diameter:  n/a (disconnected)");
        }
    }
    if let Some(ds) = algo::degree_stats(&g) {
        let _ = writeln!(
            out,
            "degrees:   min {} / mean {:.2} / max {}",
            ds.min, ds.mean, ds.max
        );
    }
    Ok(out)
}

fn run_one(
    spec: &GraphSpec,
    p: Option<f64>,
    seed: u64,
    max_rounds: u64,
    stability: u64,
) -> Result<String, String> {
    let topology = spec.try_topology().map_err(|e| e.to_string())?;
    let p = match p {
        Some(p) => p,
        None => {
            let d = spec
                .try_diameter()
                .map_err(|e| format!("{e}; --known-d needs it, pass --p P instead"))?
                .expect("workload graphs are connected");
            1.0 / (f64::from(d) + 1.0)
        }
    };
    if !(p > 0.0 && p < 1.0) {
        return Err(format!("p must be in (0, 1), got {p}"));
    }
    let outcome = run_election(
        Bfw::new(p),
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

fn audit_one(spec: &GraphSpec, p: f64, seed: u64, rounds: u64) -> Result<String, String> {
    use bfw_core::{flow, FlowAuditor, InvariantChecker};
    use rand::SeedableRng as _;

    if !(p > 0.0 && p < 1.0) {
        return Err(format!("p must be in (0, 1), got {p}"));
    }
    let graph = spec.try_build().map_err(|e| e.to_string())?;
    let n = graph.node_count();
    if n == 0 {
        return Err("cannot audit an empty graph".to_owned());
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xA0D1);
    let mut auditor = FlowAuditor::new(n);
    for _ in 0..6 {
        let start = NodeId::new(rand::Rng::random_range(&mut rng, 0..n));
        if let Some(path) = flow::random_walk_path(&graph, start, 12, &mut rng) {
            auditor.register_path(path);
        }
    }
    let mut checker = InvariantChecker::new(&graph).with_lemma11(n <= 64);
    let mut net = Network::new(Bfw::new(p), graph.into(), seed);
    net.run_until(rounds, |v| {
        auditor.on_round(v);
        checker.on_round(v);
        false
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "audited {spec} for {rounds} rounds (p = {p}, seed = {seed}):"
    );
    let _ = writeln!(
        out,
        "  flow theory (Ohm's law / Lemma 7 / Lemma 11): {} checks, {} violation(s)",
        auditor.checks_performed(),
        auditor.violations().len()
    );
    let _ = writeln!(
        out,
        "  invariants (Claim 6 / Lemma 9 / monotonicity): {} rounds, {} violation(s)",
        checker.report().rounds_checked(),
        checker.report().violations().len()
    );
    for v in auditor
        .violations()
        .iter()
        .chain(checker.report().violations())
    {
        let _ = writeln!(out, "  !! {v}");
    }
    if auditor.violations().is_empty() && checker.report().is_clean() {
        let _ = writeln!(out, "  all clean — Section 3 holds on this execution.");
    }
    Ok(out)
}

fn trace_one(
    spec: &GraphSpec,
    p: f64,
    seed: u64,
    rounds: u64,
    duel: bool,
) -> Result<String, String> {
    if !(p > 0.0 && p < 1.0) {
        return Err(format!("p must be in (0, 1), got {p}"));
    }
    let topology = spec.try_topology().map_err(|e| e.to_string())?;
    let n = topology.node_count();
    if n == 0 {
        return Err("cannot trace an empty graph".to_owned());
    }
    let mut protocol = Bfw::new(p);
    if duel {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse(&argv("")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_run_defaults_and_flags() {
        let cmd = parse(&argv("run --graph cycle:8")).unwrap();
        match cmd {
            Command::Run { spec, p, seed, .. } => {
                assert_eq!(spec, GraphSpec::Cycle(8));
                assert_eq!(p, Some(0.5));
                assert_eq!(seed, 0);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "run --graph path:9 --known-d --seed 7 --max-rounds 100",
        ))
        .unwrap();
        match cmd {
            Command::Run {
                p,
                seed,
                max_rounds,
                ..
            } => {
                assert_eq!(p, None);
                assert_eq!(seed, 7);
                assert_eq!(max_rounds, 100);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!(parse(&argv("run")).unwrap_err().contains("--graph"));
        assert!(parse(&argv("run --graph nope:1"))
            .unwrap_err()
            .contains("unknown graph kind"));
        assert!(parse(&argv("frobnicate"))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&argv("run --p"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&argv("graph a b"))
            .unwrap_err()
            .contains("unknown graph subcommand"));
        assert!(parse(&argv("graph export a b"))
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse(&argv("experiment --bogus"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn execute_run_on_small_cycle() {
        let out = execute(Command::Run {
            spec: GraphSpec::Cycle(8),
            p: Some(0.5),
            seed: 1,
            max_rounds: 100_000,
            stability: 100,
        })
        .unwrap();
        assert!(out.contains("leader:"), "{out}");
        assert!(out.contains("converged round:"), "{out}");
        assert!(out.contains("unchanged"), "{out}");
    }

    #[test]
    fn execute_run_known_d() {
        let out = execute(Command::Run {
            spec: GraphSpec::Path(9),
            p: None,
            seed: 1,
            max_rounds: 1_000_000,
            stability: 0,
        })
        .unwrap();
        assert!(out.contains("p:                0.1111"), "{out}");
    }

    #[test]
    fn execute_trace_duel() {
        let out = execute(Command::Trace {
            spec: GraphSpec::Path(9),
            p: 0.5,
            seed: 3,
            rounds: 10,
            duel: true,
        })
        .unwrap();
        assert!(out.contains("L.......L"), "{out}"); // 9 nodes: ends + 7 waiting
        assert!(out.contains("W•"), "{out}");
    }

    #[test]
    fn execute_graph_describes_topology() {
        let out = execute(Command::Graph {
            spec: GraphSpec::Grid(3, 4),
        })
        .unwrap();
        assert!(out.contains("nodes:     12"), "{out}");
        assert!(out.contains("diameter:  5"), "{out}");
    }

    #[test]
    fn execute_unknown_experiment_fails() {
        let err = execute(Command::Experiment {
            names: vec!["nope".into()],
            quick: true,
            noise: false,
            trials: Some(1),
            seed: None,
            out: None,
        })
        .unwrap_err();
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
        let cmd = parse(&argv("invariants --graph cycle:10 --rounds 200 --seed 4")).unwrap();
        assert_eq!(
            cmd,
            Command::Invariants {
                spec: GraphSpec::Cycle(10),
                p: 0.5,
                seed: 4,
                rounds: 200
            }
        );
        let out = execute(cmd).unwrap();
        assert!(out.contains("all clean"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
    }

    #[test]
    fn invariants_requires_graph() {
        assert!(parse(&argv("invariants")).unwrap_err().contains("--graph"));
    }

    #[test]
    fn parse_scenario_run() {
        assert_eq!(
            parse(&argv("scenario run churn.toml --seed 9 --rounds 500")).unwrap(),
            Command::Scenario {
                file: "churn.toml".into(),
                seed: Some(9),
                rounds: Some(500),
                trace: None,
                trace_last: None,
                kernel: None,
                threads: None,
            }
        );
        assert!(parse(&argv("scenario")).unwrap_err().contains("run FILE"));
        assert!(parse(&argv("scenario list"))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(parse(&argv("scenario run"))
            .unwrap_err()
            .contains("FILE is required"));
        assert!(parse(&argv("scenario run a.toml b.toml"))
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(parse(&argv("scenario run a.toml --bogus"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn parse_scenario_kernel_flag() {
        for (name, kind) in [
            ("auto", bfw_scenario::KernelKind::Auto),
            ("generic", bfw_scenario::KernelKind::Generic),
            ("bit", bfw_scenario::KernelKind::Bit),
        ] {
            assert_eq!(
                parse(&argv(&format!("scenario run a.toml --kernel {name}"))).unwrap(),
                Command::Scenario {
                    file: "a.toml".into(),
                    seed: None,
                    rounds: None,
                    trace: None,
                    trace_last: None,
                    kernel: Some(kind),
                    threads: None,
                }
            );
        }
        // The spec parser's name helper: the same hint as `kernel = "bitt"`.
        assert!(parse(&argv("scenario run a.toml --kernel bitt"))
            .unwrap_err()
            .contains("--kernel: unknown kernel 'bitt' (did you mean 'bit'?)"));
        assert!(parse(&argv("scenario run a.toml --kernel"))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn parse_scenario_threads_flag() {
        assert_eq!(
            parse(&argv("scenario run a.toml --threads 4")).unwrap(),
            Command::Scenario {
                file: "a.toml".into(),
                seed: None,
                rounds: None,
                trace: None,
                trace_last: None,
                kernel: None,
                threads: Some(4),
            }
        );
        assert!(parse(&argv("scenario run a.toml --threads 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("scenario run a.toml --threads"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&argv("scenario run a.toml --threads four"))
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn execute_scenario_kernels_agree_byte_for_byte() {
        // The acceptance-criteria property at CLI level: apart from the
        // kernel header line, the two kernels' outputs are identical.
        let dir = std::env::temp_dir().join("bfw_cli_kernel_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kernels.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"kernels\"\ngraph = \"cycle:64\"\nrounds = 4000\n\
             stability = 20\n\n[[event]]\nat = 1500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 1600\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let run = |kernel| {
            execute(Command::Scenario {
                file: path.to_string_lossy().into_owned(),
                seed: Some(42),
                rounds: None,
                trace: None,
                trace_last: None,
                kernel: Some(kernel),
                threads: None,
            })
            .unwrap()
        };
        let generic = run(bfw_scenario::KernelKind::Generic);
        let bit = run(bfw_scenario::KernelKind::Bit);
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
        let auto = run(bfw_scenario::KernelKind::Auto);
        assert!(auto.contains("kernel:            generic"), "{auto}");
        assert_eq!(strip(&auto), strip(&bit));
    }

    #[test]
    fn execute_scenario_thread_counts_agree_byte_for_byte() {
        // The tentpole property at CLI level: apart from the threads
        // header line, `--threads N` never changes a byte of output.
        let dir = std::env::temp_dir().join("bfw_cli_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("threads.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"threads\"\ngraph = \"cycle:96\"\nrounds = 4000\n\
             stability = 20\nkernel = \"bit\"\n\n\
             [[event]]\nat = 1000\nkind = \"noise-burst\"\nfn = 0.01\nfp = 0.01\nrounds = 200\n\n\
             [[event]]\nat = 1500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 1600\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let run = |threads: Option<usize>| {
            execute(Command::Scenario {
                file: path.to_string_lossy().into_owned(),
                seed: Some(42),
                rounds: None,
                trace: None,
                trace_last: None,
                kernel: None,
                threads,
            })
            .unwrap()
        };
        let serial = run(None);
        assert!(!serial.contains("threads:"), "{serial}");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("threads:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for t in [1usize, 2, 7] {
            let sharded = run(Some(t));
            assert!(
                sharded.contains(&format!("threads:           {t}")),
                "{sharded}"
            );
            assert_eq!(strip(&serial), strip(&sharded), "threads={t}");
        }
    }

    #[test]
    fn execute_scenario_end_to_end() {
        let dir = std::env::temp_dir().join("bfw_cli_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"mini\"\ngraph = \"cycle:8\"\nrounds = 6000\nstability = 20\n\n\
             [[event]]\nat = 2500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 2600\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let run = |seed| {
            execute(Command::Scenario {
                file: path.to_string_lossy().into_owned(),
                seed: Some(seed),
                rounds: None,
                trace: None,
                trace_last: None,
                kernel: None,
                threads: None,
            })
            .unwrap()
        };
        let out = run(42);
        assert!(out.contains("scenario:          mini"), "{out}");
        assert!(out.contains("protocol:          bfw"), "{out}");
        assert!(out.contains("rounds run:        6000"), "{out}");
        assert!(out.contains("crash-leader"), "{out}");
        assert!(out.contains("mean re-election latency:"), "{out}");
        // Byte-identical on repeat (the acceptance-criteria property).
        assert_eq!(out, run(42));
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
            let out = parse(&argv(&format!("scenario run {}", path.display())))
                .and_then(execute)
                .unwrap();
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
        let dir = std::env::temp_dir().join("bfw_cli_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("self_heal.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"self-heal\"\ngraph = \"cycle:8\"\nrounds = 30000\n\
             stability = 20\nprotocol = \"bfw+recovery\"\n\n\
             [[event]]\nat = 9000\nkind = \"crash-leader\"\n",
        )
        .unwrap();
        let out = execute(Command::Scenario {
            file: path.to_string_lossy().into_owned(),
            seed: Some(5),
            rounds: None,
            trace: None,
            trace_last: None,
            kernel: None,
            threads: None,
        })
        .unwrap();
        assert!(out.contains("protocol:          bfw+recovery"), "{out}");
        assert!(out.contains("pending disruption: none"), "{out}");
        assert!(!out.contains("final leaders:     []"), "{out}");
    }

    #[test]
    fn execute_scenario_reports_file_and_spec_errors() {
        let err = execute(Command::Scenario {
            file: "/nonexistent/nope.toml".into(),
            seed: None,
            rounds: None,
            trace: None,
            trace_last: None,
            kernel: None,
            threads: None,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");

        let dir = std::env::temp_dir().join("bfw_cli_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.toml");
        std::fs::write(&path, "[scenario]\nname = \"no graph\"\n").unwrap();
        let err = execute(Command::Scenario {
            file: path.to_string_lossy().into_owned(),
            seed: None,
            rounds: None,
            trace: None,
            trace_last: None,
            kernel: None,
            threads: None,
        })
        .unwrap_err();
        assert!(err.contains("graph"), "{err}");
    }

    #[test]
    fn parse_scenario_lifecycle_verbs() {
        assert_eq!(
            parse(&argv("scenario validate a.toml")).unwrap(),
            Command::ScenarioValidate {
                file: "a.toml".into()
            }
        );
        assert!(parse(&argv("scenario validate"))
            .unwrap_err()
            .contains("exactly one FILE"));
        assert_eq!(
            parse(&argv("scenario step a.toml --rounds 500 --out s.json")).unwrap(),
            Command::ScenarioStep {
                file: Some("a.toml".into()),
                resume_from: None,
                rounds: 500,
                out: Some("s.json".into()),
                seed: None,
                kernel: None,
                threads: None,
            }
        );
        assert_eq!(
            parse(&argv("scenario step --resume-from s.json --rounds 500")).unwrap(),
            Command::ScenarioStep {
                file: None,
                resume_from: Some("s.json".into()),
                rounds: 500,
                out: None,
                seed: None,
                kernel: None,
                threads: None,
            }
        );
        assert!(parse(&argv("scenario step a.toml"))
            .unwrap_err()
            .contains("--rounds N is required"));
        assert!(parse(&argv("scenario step --rounds 5"))
            .unwrap_err()
            .contains("exactly one of FILE or --resume-from"));
        assert!(parse(&argv(
            "scenario step a.toml --resume-from s.json --rounds 5"
        ))
        .unwrap_err()
        .contains("exactly one of FILE or --resume-from"));
        assert!(parse(&argv(
            "scenario step --resume-from s.json --rounds 5 --seed 3"
        ))
        .unwrap_err()
        .contains("pins its seed"));
        assert_eq!(
            parse(&argv(
                "scenario run --resume-from s.json --rounds 900 --kernel bit"
            ))
            .unwrap(),
            Command::ScenarioResume {
                snapshot: "s.json".into(),
                rounds: Some(900),
                kernel: Some(bfw_scenario::KernelKind::Bit),
                threads: None,
            }
        );
        assert!(parse(&argv("scenario run a.toml --resume-from s.json"))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(parse(&argv("scenario run --resume-from s.json --seed 4"))
            .unwrap_err()
            .contains("pins its seed"));
        assert!(
            parse(&argv("scenario run --resume-from s.json --trace t.json"))
                .unwrap_err()
                .contains("--trace")
        );
        assert_eq!(
            parse(&argv("scenario export a.toml --seed 9 --out spec.json")).unwrap(),
            Command::ScenarioExport {
                file: "a.toml".into(),
                seed: Some(9),
                out: Some("spec.json".into()),
            }
        );
        assert_eq!(
            parse(&argv("scenario shrink a.toml --quick")).unwrap(),
            Command::ScenarioShrink {
                file: "a.toml".into(),
                seed: None,
                quick: true,
                out: None,
            }
        );
        // A misspelled verb gets a did-you-mean hint.
        let err = parse(&argv("scenario vaildate a.toml")).unwrap_err();
        assert!(err.contains("did you mean 'validate'"), "{err}");
    }

    /// Satellite regression for the resolved-kernel fix at the CLI
    /// seam: `--threads N` on an auto-kernel spec below the size
    /// threshold must engage the bit kernel (it used to resolve generic
    /// and silently ignore the flag).
    #[test]
    fn threads_flag_engages_bit_kernel_below_auto_threshold() {
        let dir = std::env::temp_dir().join("bfw_cli_auto_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auto.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"auto\"\ngraph = \"cycle:64\"\nrounds = 3000\nstability = 20\n\n\
             [[event]]\nat = 1000\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 1100\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let run = |threads: Option<usize>| {
            execute(Command::Scenario {
                file: path.to_string_lossy().into_owned(),
                seed: Some(42),
                rounds: None,
                trace: None,
                trace_last: None,
                kernel: None,
                threads,
            })
            .unwrap()
        };
        let serial = run(None);
        assert!(serial.contains("kernel:            generic"), "{serial}");
        let sharded = run(Some(4));
        assert!(sharded.contains("kernel:            bit"), "{sharded}");
        assert!(sharded.contains("threads:           4"), "{sharded}");
        // And the thread count still never changes the outcome.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("kernel:") && !l.starts_with("threads:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&serial), strip(&sharded));
    }

    #[test]
    fn execute_scenario_step_resume_matches_straight_run() {
        // The acceptance-criteria property end to end: step 500, resume
        // 500, and the final report is byte-identical to one straight
        // 1000-round run — across kernels and thread counts.
        let dir = std::env::temp_dir().join("bfw_cli_lifecycle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("steps.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"steps\"\ngraph = \"cycle:32\"\nrounds = 1000\nstability = 20\n\
             seed = 42\n\n\
             [[event]]\nat = 300\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 400\nkind = \"recover-all\"\n\n\
             [[event]]\nrate = 0.002\nkind = \"crash-random\"\n\n\
             [[event]]\nrate = 0.004\nkind = \"recover-random\"\n",
        )
        .unwrap();
        let file = path.to_string_lossy().into_owned();
        let straight = execute(Command::Scenario {
            file: file.clone(),
            seed: None,
            rounds: None,
            trace: None,
            trace_last: None,
            kernel: None,
            threads: None,
        })
        .unwrap();

        let snap_a = dir.join("a.json").to_string_lossy().into_owned();
        let snap_b = dir.join("b.json").to_string_lossy().into_owned();
        for (kernel, threads) in [
            (None, None),
            (Some(bfw_scenario::KernelKind::Generic), None),
            (Some(bfw_scenario::KernelKind::Bit), Some(1)),
            (Some(bfw_scenario::KernelKind::Bit), Some(4)),
        ] {
            let wrote = execute(Command::ScenarioStep {
                file: Some(file.clone()),
                resume_from: None,
                rounds: 500,
                out: Some(snap_a.clone()),
                seed: None,
                kernel,
                threads,
            })
            .unwrap();
            assert!(wrote.contains("at round 500/1000"), "{wrote}");
            let resumed = execute(Command::ScenarioResume {
                snapshot: snap_a.clone(),
                rounds: None,
                kernel,
                threads: None,
            })
            .unwrap();
            // Stepping in two halves writes the same snapshot as one
            // step of the full distance...
            execute(Command::ScenarioStep {
                file: None,
                resume_from: Some(snap_a.clone()),
                rounds: 500,
                out: Some(snap_b.clone()),
                seed: None,
                kernel,
                threads,
            })
            .unwrap();
            let two_step = std::fs::read_to_string(&snap_b).unwrap();
            let one_step = {
                execute(Command::ScenarioStep {
                    file: Some(file.clone()),
                    resume_from: None,
                    rounds: 1000,
                    out: Some(snap_b.clone()),
                    seed: None,
                    kernel: None,
                    threads: None,
                })
                .unwrap();
                std::fs::read_to_string(&snap_b).unwrap()
            };
            assert_eq!(two_step, one_step, "kernel {kernel:?} threads {threads:?}");
            // ... and resuming reproduces the straight run's report,
            // byte for byte (modulo the execution-stack header lines,
            // which reflect the chosen kernel).
            let strip = |s: &str| {
                s.lines()
                    .filter(|l| !l.starts_with("kernel:") && !l.starts_with("threads:"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(
                strip(&straight),
                strip(&resumed),
                "kernel {kernel:?} threads {threads:?}"
            );
        }

        // The emitted snapshot validates through `bfw report validate`.
        execute(Command::ScenarioStep {
            file: Some(file.clone()),
            resume_from: None,
            rounds: 500,
            out: Some(snap_a.clone()),
            seed: None,
            kernel: None,
            threads: None,
        })
        .unwrap();
        let out = execute(Command::ReportValidate {
            files: vec![snap_a.clone()],
        })
        .unwrap();
        assert!(out.contains("ok — bfw/engine-snapshot"), "{out}");
        assert!(out.contains("\"steps\" at round 500/1000"), "{out}");

        // --rounds before the snapshot round is refused.
        let err = execute(Command::ScenarioResume {
            snapshot: snap_a,
            rounds: Some(100),
            kernel: None,
            threads: None,
        })
        .unwrap_err();
        assert!(err.contains("before the snapshot round"), "{err}");
    }

    #[test]
    fn execute_scenario_validate_reports_errors_and_warnings() {
        let dir = std::env::temp_dir().join("bfw_cli_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.toml");
        std::fs::write(
            &good,
            "[scenario]\nname = \"good\"\ngraph = \"cycle:12\"\nrounds = 1000\nstability = 20\n\n\
             [[event]]\nat = 100\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 5000\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let out = execute(Command::ScenarioValidate {
            file: good.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(out.contains("ok — \"good\", 12 nodes"), "{out}");
        assert!(out.contains("warning:"), "{out}");
        assert!(out.contains("never applies"), "{out}");

        let broken = dir.join("broken.toml");
        std::fs::write(
            &broken,
            "[scenario]\nname = \"broken\"\ngraph = \"cycle:12\"\nrounds = 1000\n\n\
             [[event]]\nat = 100\nkind = \"crash\"\nnode = 99\n",
        )
        .unwrap();
        let err = execute(Command::ScenarioValidate {
            file: broken.to_string_lossy().into_owned(),
        })
        .unwrap_err();
        assert!(err.contains("node 99 out of range"), "{err}");
    }

    #[test]
    fn execute_scenario_export_and_report_validate() {
        let dir = std::env::temp_dir().join("bfw_cli_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exp.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"exp\"\ngraph = \"cycle:8\"\nrounds = 500\nstability = 20\n\n\
             [[event]]\nevery = 100\nkind = \"crash-random\"\n",
        )
        .unwrap();
        let out_path = dir.join("exp.json").to_string_lossy().into_owned();
        let out = execute(Command::ScenarioExport {
            file: path.to_string_lossy().into_owned(),
            seed: Some(7),
            out: Some(out_path.clone()),
        })
        .unwrap();
        assert!(out.contains("ok") || out.contains("wrote"), "{out}");
        let validated = execute(Command::ReportValidate {
            files: vec![out_path],
        })
        .unwrap();
        assert!(validated.contains("ok — bfw/scenario-spec"), "{validated}");
        // The periodic schedule compiled to five concrete firings.
        assert!(validated.contains("5 events"), "{validated}");
    }

    #[test]
    fn execute_scenario_shrink_minimizes_a_wipeout() {
        let dir = std::env::temp_dir().join("bfw_cli_shrink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wipe.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"wipe\"\ngraph = \"cycle:12\"\nrounds = 4000\nstability = 20\n\
             seed = 7\n\n\
             [[event]]\nat = 150\nkind = \"crash-random\"\n\n\
             [[event]]\nat = 250\nkind = \"recover-all\"\n\n\
             [[event]]\nat = 800\nkind = \"inject-phantom\"\nwaves = 1\n",
        )
        .unwrap();
        let out_path = dir.join("min.json").to_string_lossy().into_owned();
        let out = execute(Command::ScenarioShrink {
            file: path.to_string_lossy().into_owned(),
            seed: None,
            quick: true,
            out: Some(out_path.clone()),
        })
        .unwrap();
        assert!(
            out.contains("wipeout reproduced with 1 of 3 events"),
            "{out}"
        );
        assert!(out.contains("inject("), "{out}");
        let validated = execute(Command::ReportValidate {
            files: vec![out_path],
        })
        .unwrap();
        assert!(validated.contains("ok — bfw/scenario-spec"), "{validated}");

        // A scenario that elects and stays stable has nothing to shrink.
        let stable = dir.join("stable.toml");
        std::fs::write(
            &stable,
            "[scenario]\nname = \"stable\"\ngraph = \"cycle:8\"\nrounds = 5000\nseed = 1\n",
        )
        .unwrap();
        let err = execute(Command::ScenarioShrink {
            file: stable.to_string_lossy().into_owned(),
            seed: None,
            quick: true,
            out: None,
        })
        .unwrap_err();
        assert!(err.contains("does not wipe out"), "{err}");
    }

    #[test]
    fn parse_experiment_noise_flag() {
        match parse(&argv("experiment recovery --quick --noise")).unwrap() {
            Command::Experiment {
                names,
                quick,
                noise,
                ..
            } => {
                assert_eq!(names, vec!["recovery".to_owned()]);
                assert!(quick);
                assert!(noise);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("experiment recovery")).unwrap() {
            Command::Experiment { noise, .. } => assert!(!noise),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn experiment_out_writes_one_csv_per_table() {
        let dir =
            std::env::temp_dir().join(format!("bfw_cli_experiment_out_{}", std::process::id()));
        let args = format!(
            "experiment chain --quick --trials 2 --out {}",
            dir.display()
        );
        let out = execute(parse(&argv(&args)).unwrap()).unwrap();
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
        assert!(parse(&argv("experiment chain --out"))
            .unwrap_err()
            .contains("--out"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execute_async_scenario_prints_runtime_line() {
        let dir = std::env::temp_dir().join("bfw_cli_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("async_mini.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"async mini\"\ngraph = \"cycle:8\"\nrounds = 20000\n\
             stability = 200\nruntime = \"async\"\nscheduler = \"replay\"\n\n\
             [[event]]\nat = 400\nkind = \"crash-random\"\n\n\
             [[event]]\nat = 2000\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let run = || {
            execute(Command::Scenario {
                file: path.to_string_lossy().into_owned(),
                seed: Some(9),
                rounds: None,
                trace: None,
                trace_last: None,
                kernel: None,
                threads: None,
            })
            .unwrap()
        };
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
        let sync = dir.join("sync_mini.toml");
        std::fs::write(
            &sync,
            "[scenario]\nname = \"sync mini\"\ngraph = \"cycle:8\"\nrounds = 500\n",
        )
        .unwrap();
        let out = execute(Command::Scenario {
            file: sync.to_string_lossy().into_owned(),
            seed: None,
            rounds: None,
            trace: None,
            trace_last: None,
            kernel: None,
            threads: None,
        })
        .unwrap();
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
    }

    #[test]
    fn parse_scenario_trace_flags() {
        assert_eq!(
            parse(&argv(
                "scenario run churn.toml --trace out.json --trace-last 64"
            ))
            .unwrap(),
            Command::Scenario {
                file: "churn.toml".into(),
                seed: None,
                rounds: None,
                trace: Some("out.json".into()),
                trace_last: Some(64),
                kernel: None,
                threads: None,
            }
        );
        assert!(parse(&argv("scenario run a.toml --trace"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&argv("scenario run a.toml --trace-last 0"))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn unknown_experiment_names_get_hints() {
        let err = execute(Command::Experiment {
            names: vec!["tabel1".into()],
            quick: true,
            noise: false,
            trials: Some(1),
            seed: None,
            out: None,
        })
        .unwrap_err();
        assert_eq!(err, "unknown experiment 'tabel1' (did you mean 'table1'?)");
        // Nothing close: no hint.
        let err = execute(Command::Experiment {
            names: vec!["zzzzzzzzzz".into()],
            quick: true,
            noise: false,
            trials: Some(1),
            seed: None,
            out: None,
        })
        .unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn traced_scenario_appends_to_pinned_output_and_writes_json() {
        let dir = std::env::temp_dir().join("bfw_cli_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traced.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"traced\"\ngraph = \"cycle:8\"\nrounds = 6000\nstability = 20\n\n\
             [[event]]\nat = 2500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 2600\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let json_path = dir.join("traced.json");
        let run = |trace: Option<String>| {
            execute(Command::Scenario {
                file: path.to_string_lossy().into_owned(),
                seed: Some(42),
                rounds: None,
                trace,
                trace_last: None,
                kernel: None,
                threads: None,
            })
            .unwrap()
        };
        let untraced = run(None);
        let traced = run(Some(json_path.to_string_lossy().into_owned()));
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
    }

    #[test]
    fn parse_graph_and_report_verbs() {
        assert_eq!(
            parse(&argv("graph export cycle:8 --out g.json")).unwrap(),
            Command::GraphExport {
                spec: GraphSpec::Cycle(8),
                out: Some("g.json".into()),
            }
        );
        assert_eq!(
            parse(&argv("graph import g.json")).unwrap(),
            Command::GraphImport {
                file: "g.json".into(),
                out: None,
            }
        );
        assert_eq!(
            parse(&argv("graph validate g.json")).unwrap(),
            Command::GraphValidate {
                file: Some("g.json".into()),
            }
        );
        // No file (or "-") means stdin — the piped CI round-trip form.
        assert_eq!(
            parse(&argv("graph validate")).unwrap(),
            Command::GraphValidate { file: None }
        );
        assert_eq!(
            parse(&argv("graph validate -")).unwrap(),
            Command::GraphValidate { file: None }
        );
        assert_eq!(
            parse(&argv("report validate a.json b.json")).unwrap(),
            Command::ReportValidate {
                files: vec!["a.json".into(), "b.json".into()],
            }
        );
        assert_eq!(
            parse(&argv("report diff a.json b.json")).unwrap(),
            Command::ReportDiff {
                left: "a.json".into(),
                right: "b.json".into(),
            }
        );
        assert_eq!(
            parse(&argv("report history a.json b.json --out h.json")).unwrap(),
            Command::ReportHistory {
                files: vec!["a.json".into(), "b.json".into()],
                out: Some("h.json".into()),
            }
        );
        assert_eq!(
            parse(&argv("report history a.json")).unwrap(),
            Command::ReportHistory {
                files: vec!["a.json".into()],
                out: None,
            }
        );
        // The legacy one-SPEC describe form still parses.
        assert_eq!(
            parse(&argv("graph cycle:8")).unwrap(),
            Command::Graph {
                spec: GraphSpec::Cycle(8),
            }
        );
    }

    #[test]
    fn graph_and_report_verbs_get_hints() {
        let err = parse(&argv("graph exprot cycle:8")).unwrap_err();
        assert!(err.contains("did you mean 'export'?"), "{err}");
        let err = parse(&argv("report vaildate a.json")).unwrap_err();
        assert!(err.contains("did you mean 'validate'?"), "{err}");
        assert!(parse(&argv("report")).unwrap_err().contains("subcommand"));
        assert!(parse(&argv("report diff a.json"))
            .unwrap_err()
            .contains("exactly two"));
        assert!(parse(&argv("report validate"))
            .unwrap_err()
            .contains("at least one"));
        assert!(parse(&argv("report history"))
            .unwrap_err()
            .contains("at least one"));
        assert!(parse(&argv("report history a.json --bogus"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&argv("graph export cycle:8 --bogus x"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn graph_export_import_validate_round_trip() {
        let dir = std::env::temp_dir().join("bfw_cli_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let exported = dir.join("ba.json");
        let reexported = dir.join("ba2.json");
        let out = execute(Command::GraphExport {
            spec: "ba:64:2:7".parse().unwrap(),
            out: Some(exported.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(out.contains("64 nodes"), "{out}");

        // Validate reports the provenance family.
        let out = execute(Command::GraphValidate {
            file: Some(exported.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(out.contains("ok — bfw/graph, 64 nodes"), "{out}");
        assert!(out.contains("family ba"), "{out}");

        // Import → re-export is the identity on canonical documents.
        let out = execute(Command::GraphImport {
            file: exported.to_string_lossy().into_owned(),
            out: Some(reexported.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(out.contains("imported"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&exported).unwrap(),
            std::fs::read_to_string(&reexported).unwrap()
        );

        // Stdout export + the binary's println newline would equal the
        // --out file: the export text itself has no trailing newline.
        let text = execute(Command::GraphExport {
            spec: "ba:64:2:7".parse().unwrap(),
            out: None,
        })
        .unwrap();
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
        let err = execute(Command::GraphValidate {
            file: Some(broken.to_string_lossy().into_owned()),
        })
        .unwrap_err();
        assert!(err.contains("/edges/0"), "{err}");
    }

    #[test]
    fn report_validate_dispatches_on_format() {
        let dir = std::env::temp_dir().join("bfw_cli_report_test");
        std::fs::create_dir_all(&dir).unwrap();

        // A scenario report, produced through the CLI pipeline.
        let toml = dir.join("mini.toml");
        std::fs::write(
            &toml,
            "[scenario]\nname = \"mini\"\ngraph = \"cycle:8\"\nrounds = 2000\nstability = 20\n\n\
             [[event]]\nat = 500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 600\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let scenario_report = dir.join("run.json");
        execute(Command::Scenario {
            file: toml.to_string_lossy().into_owned(),
            seed: Some(42),
            rounds: None,
            trace: Some(scenario_report.to_string_lossy().into_owned()),
            trace_last: None,
            kernel: None,
            threads: None,
        })
        .unwrap();

        // A graph document and a bench report.
        let graph_doc = dir.join("graph.json");
        execute(Command::GraphExport {
            spec: GraphSpec::Cycle(8),
            out: Some(graph_doc.to_string_lossy().into_owned()),
        })
        .unwrap();
        let bench = dir.join("bench.json");
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

        let out = execute(Command::ReportValidate {
            files: vec![
                scenario_report.to_string_lossy().into_owned(),
                graph_doc.to_string_lossy().into_owned(),
                bench.to_string_lossy().into_owned(),
            ],
        })
        .unwrap();
        assert!(out.contains("bfw/scenario-report, \"mini\""), "{out}");
        assert!(out.contains("bfw/graph, 8 nodes"), "{out}");
        assert!(out.contains("bfw/bench-report, E99-test (1 rows)"), "{out}");

        // Unknown formats are rejected with a hint.
        let alien = dir.join("alien.json");
        std::fs::write(&alien, r#"{"format": "bfw/grpah", "version": 1}"#).unwrap();
        let err = execute(Command::ReportValidate {
            files: vec![alien.to_string_lossy().into_owned()],
        })
        .unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
        assert!(err.contains("did you mean 'bfw/graph'?"), "{err}");
    }

    #[test]
    fn report_diff_is_structured_and_empty_on_identity() {
        let dir = std::env::temp_dir().join("bfw_cli_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let toml = dir.join("mini.toml");
        std::fs::write(
            &toml,
            "[scenario]\nname = \"mini\"\ngraph = \"cycle:8\"\nrounds = 2000\nstability = 20\n\n\
             [[event]]\nat = 500\nkind = \"crash-leader\"\n\n\
             [[event]]\nat = 600\nkind = \"recover-all\"\n",
        )
        .unwrap();
        let run = |seed: u64, path: &std::path::Path| {
            execute(Command::Scenario {
                file: toml.to_string_lossy().into_owned(),
                seed: Some(seed),
                rounds: None,
                trace: Some(path.to_string_lossy().into_owned()),
                trace_last: None,
                kernel: None,
                threads: None,
            })
            .unwrap();
        };
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        let c = dir.join("c.json");
        run(42, &a);
        run(43, &b);
        run(42, &c);

        // Different seeds: a structured, non-empty diff naming the
        // config seed among its JSON-pointer paths.
        let out = execute(Command::ReportDiff {
            left: a.to_string_lossy().into_owned(),
            right: b.to_string_lossy().into_owned(),
        })
        .unwrap();
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

        // Same seed: byte-identical reports, zero entries.
        let out = execute(Command::ReportDiff {
            left: a.to_string_lossy().into_owned(),
            right: c.to_string_lossy().into_owned(),
        })
        .unwrap();
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
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, mk(1, 100.0)).unwrap();
        std::fs::write(&b, mk(1, 150.0)).unwrap();

        // Without --out: the folded document prints to stdout.
        let out = execute(Command::ReportHistory {
            files: vec![
                a.to_string_lossy().into_owned(),
                b.to_string_lossy().into_owned(),
            ],
            out: None,
        })
        .unwrap();
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

        // With --out: the file lands on disk and `report validate`
        // dispatches on its envelope.
        let h = dir.join("history.json");
        let out = execute(Command::ReportHistory {
            files: vec![
                a.to_string_lossy().into_owned(),
                b.to_string_lossy().into_owned(),
            ],
            out: Some(h.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(out.contains("2 points"), "{out}");
        let out = execute(Command::ReportValidate {
            files: vec![h.to_string_lossy().into_owned()],
        })
        .unwrap();
        assert!(out.contains("bfw/bench-history"), "{out}");
        assert!(out.contains("E-demo"), "{out}");

        // Mixed experiments refuse to fold.
        let c = dir.join("c.json");
        std::fs::write(
            &c,
            bfw_bench::report::bench_report("E-other", true, 1, [], []).render_pretty(),
        )
        .unwrap();
        let err = execute(Command::ReportHistory {
            files: vec![
                a.to_string_lossy().into_owned(),
                c.to_string_lossy().into_owned(),
            ],
            out: None,
        })
        .unwrap_err();
        assert!(err.contains("different experiments"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_toml_accepts_generator_families() {
        // The scenario `graph` key resolves through GraphSpec, so the
        // provenance-tagged generator families (ba, plaw) work in TOML.
        let dir = std::env::temp_dir().join("bfw_cli_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ba_mini.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"ba mini\"\ngraph = \"ba:32:2:7\"\nrounds = 2000\n\
             stability = 20\n",
        )
        .unwrap();
        let out = execute(Command::Scenario {
            file: path.to_string_lossy().into_owned(),
            seed: Some(3),
            rounds: None,
            trace: None,
            trace_last: None,
            kernel: None,
            threads: None,
        })
        .unwrap();
        assert!(out.contains("graph:             ba:32:2:7"), "{out}");
        assert!(out.contains("rounds run:        2000"), "{out}");
    }

    #[test]
    fn spec_trace_section_enables_tracing_without_flags() {
        let dir = std::env::temp_dir().join("bfw_cli_scenario_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec_traced.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"spec traced\"\ngraph = \"cycle:8\"\nrounds = 500\n\n\
             [trace]\nlast = 16\n",
        )
        .unwrap();
        let out = execute(Command::Scenario {
            file: path.to_string_lossy().into_owned(),
            seed: Some(1),
            rounds: None,
            trace: None,
            trace_last: None,
            kernel: None,
            threads: None,
        })
        .unwrap();
        assert!(out.contains("complexity: steps=500"), "{out}");
        // No file destination anywhere: nothing written, no wrote line.
        assert!(!out.contains("wrote trace report"), "{out}");
    }
}
