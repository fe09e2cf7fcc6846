//! `bfw graph`: topology facts, and the `bfw/graph` document's
//! export, import and validation.

use crate::args::Flags;
use bfw_bench::GraphSpec;
use bfw_core::theory;
use bfw_graph::{algo, io};
use bfw_stats::did_you_mean;
use std::fmt::Write as _;

/// The `bfw graph` verbs (beyond the one-SPEC describe form).
const VERBS: &[&str] = &["export", "import", "validate"];

pub(crate) fn run(args: &[String]) -> Result<String, String> {
    let Some((first, rest)) = args.split_first() else {
        return Err("graph needs a SPEC or a subcommand (export | import | validate)".to_owned());
    };
    match first.as_str() {
        "export" => export(rest),
        "import" => import(rest),
        "validate" => validate(rest),
        spec if rest.is_empty() => describe(&spec.parse().map_err(|e| {
            // A misspelled verb lands here as a bogus graph spec: hint
            // at the verbs alongside the spec error.
            format!("{e}{}", did_you_mean(spec, VERBS))
        })?),
        other => Err(format!(
            "unknown graph subcommand '{other}'{}; valid: {} (or one SPEC)",
            did_you_mean(other, VERBS),
            VERBS.join(", ")
        )),
    }
}

fn describe(spec: &GraphSpec) -> Result<String, String> {
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

/// `bfw graph export`: builds the workload and emits the canonical
/// `bfw/graph` document with generator provenance. Stdout output has no
/// trailing newline (the binary adds exactly one), and `--out` writes
/// the same bytes plus that newline — so a piped export and an exported
/// file are byte-identical, which the CI round-trip smoke checks with
/// `cmp`.
fn export(args: &[String]) -> Result<String, String> {
    let args = Flags {
        verb: "graph export",
        values: &["--out"],
        switches: &[],
    }
    .read(args)?;
    let [spec] = args.positionals() else {
        return Err("graph export takes exactly one SPEC argument".to_owned());
    };
    let spec: GraphSpec = spec.parse().map_err(|e| format!("{e}"))?;
    let doc = io::GraphDoc {
        graph: spec.try_build().map_err(|e| e.to_string())?,
        provenance: Some(spec.provenance()),
        delta: None,
    };
    let text = io::export_json(&doc);
    match args.text("--out") {
        Some(path) => {
            crate::write_file(&path, &format!("{text}\n"))?;
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
fn import(args: &[String]) -> Result<String, String> {
    let args = Flags {
        verb: "graph import",
        values: &["--out"],
        switches: &[],
    }
    .read(args)?;
    let [file] = args.positionals() else {
        return Err("graph import takes exactly one FILE argument".to_owned());
    };
    let doc = io::import_json(&crate::read_file(file)?).map_err(|e| format!("{file}: {e}"))?;
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
    if let Some(path) = args.text("--out") {
        crate::write_file(&path, &format!("{}\n", io::export_json(&doc)))?;
        let _ = write!(report, "\nwrote {path}");
    }
    Ok(report)
}

/// `bfw graph validate`: checks a `bfw/graph` document from a file or
/// stdin (no FILE, or `-`) and reports its summary, or fails with the
/// schema error's JSON-pointer path.
fn validate(args: &[String]) -> Result<String, String> {
    let (text, source) = match args {
        [file] if file != "-" => (crate::read_file(file)?, file.as_str()),
        [] | [_] => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            (text, "<stdin>")
        }
        _ => {
            return Err(
                "graph validate takes at most one FILE argument (default: stdin)".to_owned(),
            )
        }
    };
    let summary = io::validate_json(&text).map_err(|e| format!("{source}: {e}"))?;
    Ok(format!("{source}: ok — {summary}"))
}
