//! `bfw scenario`: run, resume, validate, step, export and shrink TOML
//! fault-injection scenarios.

use crate::args::{Args, Flags};
use bfw_graph::Graph;
use bfw_scenario::{EngineSnapshot, KernelKind, RunReport, ScenarioSpec};
use bfw_stats::did_you_mean;
use std::fmt::Write as _;
use std::path::Path;

/// The `bfw scenario` verbs.
const VERBS: &[&str] = &["run", "validate", "step", "export", "shrink"];

pub(crate) fn run(args: &[String]) -> Result<String, String> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(
            "scenario: expected a subcommand — run FILE | validate FILE | step | export | shrink"
                .to_owned(),
        );
    };
    match verb.as_str() {
        "run" => run_or_resume(rest),
        "validate" => match rest {
            [file] => validate(file),
            _ => Err("scenario validate takes exactly one FILE argument".to_owned()),
        },
        "step" => step(rest),
        "export" => export(rest),
        "shrink" => shrink(rest),
        other => Err(format!(
            "scenario: unknown subcommand '{other}'{}; valid: {}",
            did_you_mean(other, VERBS),
            VERBS.join(", ")
        )),
    }
}

/// `--kernel K`, which picks the execution engine only.
fn kernel(args: &Args) -> Result<Option<KernelKind>, String> {
    args.get("--kernel", |value| {
        value.parse().map_err(|e| format!("--kernel: {e}"))
    })
}

/// Reads and parses a scenario spec, reporting errors under the file's
/// name.
fn load_spec(file: &str) -> Result<ScenarioSpec, String> {
    ScenarioSpec::parse(&crate::read_file(file)?).map_err(|e| format!("{file}: {e}"))
}

/// [`load_spec`], plus the graph the spec names.
fn load(file: &str) -> Result<(ScenarioSpec, Graph), String> {
    let spec = load_spec(file)?;
    let graph = spec.build_graph().map_err(|e| format!("{file}: {e}"))?;
    Ok((spec, graph))
}

/// Reads and decodes a `bfw/engine-snapshot` document.
fn load_snapshot(path: &str) -> Result<EngineSnapshot, String> {
    EngineSnapshot::from_json(&crate::read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

/// `bfw scenario run`: a straight run of a spec file, or with
/// `--resume-from` the rest of a paused one.
fn run_or_resume(args: &[String]) -> Result<String, String> {
    let args = Flags {
        verb: "scenario run",
        values: &[
            "--seed",
            "--threads",
            "--rounds",
            "--trace",
            "--trace-last",
            "--kernel",
            "--resume-from",
        ],
        switches: &[],
    }
    .read(args)?;
    let file = args.file()?;
    let seed = args.int("--seed")?;
    let threads = args.count("--threads")?;
    let rounds = args.int("--rounds")?;
    let trace_file = args.text("--trace");
    let trace_last = args.count("--trace-last")?;
    let kernel = kernel(&args)?;
    if let Some(snapshot) = args.text("--resume-from") {
        if file.is_some() {
            return Err(
                "scenario run: FILE and --resume-from are mutually exclusive (the snapshot \
                 embeds the spec)"
                    .to_owned(),
            );
        }
        if seed.is_some() {
            return Err(
                "scenario run: --seed cannot be combined with --resume-from (the snapshot pins \
                 its seed)"
                    .to_owned(),
            );
        }
        if trace_file.is_some() || trace_last.is_some() {
            return Err(
                "scenario run: --trace/--trace-last cannot be combined with --resume-from"
                    .to_owned(),
            );
        }
        return resume(&snapshot, rounds, kernel, threads);
    }
    let file = file.ok_or("scenario run: FILE is required")?;

    let (mut spec, graph) = load(file)?;
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
        let spec_dir = Path::new(file).parent().unwrap_or(Path::new(""));
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
    let report = RunReport::new(
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
            crate::write_file(&path, &report.to_json_value().render_pretty())?;
            let _ = writeln!(out, "wrote trace report to {path}");
        }
    }
    Ok(out)
}

/// `bfw scenario run --resume-from`: drive a snapshot to its horizon
/// and print the same pinned report block a straight `scenario run` of
/// the embedded spec would print — byte for byte.
fn resume(
    snapshot: &str,
    rounds: Option<u64>,
    kernel: Option<KernelKind>,
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
    // The report names the spec's workload. The decode built the
    // initial graph once, as the base the snapshot's edits apply to;
    // the resumed run starts from the topology at the snapshot round.
    let outcome =
        bfw_scenario::resume_run_bfw_scenario(&snap, None, None).map_err(|e| e.to_string())?;
    let (spec, nodes) = (&snap.spec, snap.graph.node_count());
    let report = RunReport::new(spec, spec.graph.clone(), nodes, snap.seed, outcome, None);
    Ok(report.to_text())
}

/// `bfw scenario validate`: static analysis of a spec against its
/// graph — no rounds are executed. Hard misconfigurations fail the
/// command; legal-but-suspect conditions print as warning lines.
fn validate(file: &str) -> Result<String, String> {
    let (spec, graph) = load(file)?;
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

/// `bfw scenario step`: advance a fresh spec (or a prior snapshot) N
/// rounds and emit the paused run as a `bfw/engine-snapshot` document.
/// Kernel/thread flags choose the execution engine only — the emitted
/// bytes are identical for every choice.
fn step(args: &[String]) -> Result<String, String> {
    let args = Flags {
        verb: "scenario step",
        values: &[
            "--rounds",
            "--out",
            "--seed",
            "--kernel",
            "--threads",
            "--resume-from",
        ],
        switches: &[],
    }
    .read(args)?;
    let file = args.file()?;
    let rounds = args.int("--rounds")?;
    let seed = args.int("--seed")?;
    let kernel = kernel(&args)?;
    let threads = args.count("--threads")?;
    let resume_from = args.text("--resume-from");
    if file.is_some() == resume_from.is_some() {
        return Err(
            "scenario step: exactly one of FILE or --resume-from SNAP is required".to_owned(),
        );
    }
    if seed.is_some() && resume_from.is_some() {
        return Err(
            "scenario step: --seed cannot be combined with --resume-from (the snapshot pins its \
             seed)"
                .to_owned(),
        );
    }
    let rounds = rounds.ok_or("scenario step: --rounds N is required")?;

    let snap = match (file, resume_from) {
        (Some(file), _) => {
            let (spec, graph) = load(file)?;
            let seed = seed.unwrap_or(spec.seed);
            bfw_scenario::step_bfw_scenario(&spec, &graph, seed, rounds, kernel, threads)
        }
        (None, Some(path)) => {
            bfw_scenario::resume_step_bfw_scenario(&load_snapshot(&path)?, rounds, kernel, threads)
        }
        (None, None) => unreachable!("exactly one source was checked above"),
    }
    .map_err(|e| e.to_string())?;
    let rendered = snap.to_json_value().render_pretty();
    match args.text("--out") {
        Some(path) => {
            crate::write_file(&path, &rendered)?;
            Ok(format!("wrote {path} — {}", snap.summary()))
        }
        None => Ok(rendered.trim_end_matches('\n').to_owned()),
    }
}

/// `bfw scenario export`: the compiled all-`at` timeline as a
/// canonical `bfw/scenario-spec` document.
fn export(args: &[String]) -> Result<String, String> {
    let args = Flags {
        verb: "scenario export",
        values: &["--seed", "--out"],
        switches: &[],
    }
    .read(args)?;
    let file = args.file()?;
    let seed = args.int("--seed")?;
    let file = file.ok_or("scenario export: FILE is required")?;

    let spec = load_spec(file)?;
    let seed = seed.unwrap_or(spec.seed);
    let rendered = bfw_scenario::spec_to_json(&spec, seed).render_pretty();
    match args.text("--out") {
        Some(path) => {
            crate::write_file(&path, &rendered)?;
            let summary = bfw_scenario::validate_scenario_spec(&rendered)
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("wrote {path} — {summary}"))
        }
        None => Ok(rendered.trim_end_matches('\n').to_owned()),
    }
}

/// `bfw scenario shrink`: minimize a wipeout timeline while the
/// permanently-leaderless outcome still reproduces at the pinned seed.
fn shrink(args: &[String]) -> Result<String, String> {
    let args = Flags {
        verb: "scenario shrink",
        values: &["--seed", "--out"],
        switches: &["--quick"],
    }
    .read(args)?;
    let file = args.file()?;
    let seed = args.int("--seed")?;
    let file = file.ok_or("scenario shrink: FILE is required")?;

    let (spec, graph) = load(file)?;
    let seed = seed.unwrap_or(spec.seed);
    let report = bfw_scenario::shrink_wipeout(&spec, &graph, seed, args.switch("--quick"))
        .map_err(|e| e.to_string())?;
    let mut text = report.to_text();
    if let Some(path) = args.text("--out") {
        crate::write_file(
            &path,
            &bfw_scenario::spec_to_json(&report.spec, seed).render_pretty(),
        )?;
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
