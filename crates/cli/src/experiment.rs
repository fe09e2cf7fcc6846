//! `bfw experiment`: the paper-reproduction experiments.

use crate::args::Flags;
use bfw_bench::{experiments, ExpConfig};
use bfw_stats::did_you_mean;
use std::fmt::Write as _;
use std::path::Path;

const FLAGS: Flags = Flags {
    verb: "experiment",
    values: &["--out", "--trials", "--seed"],
    switches: &["--quick", "--noise"],
};

pub(crate) fn run(args: &[String]) -> Result<String, String> {
    let args = FLAGS.read(args)?;
    let mut cfg = if args.switch("--quick") {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    cfg.noise = args.switch("--noise");
    // Zero trials would leave the summaries empty.
    if let Some(trials) = args.count("--trials")? {
        cfg.trials = trials;
    }
    if let Some(seed) = args.int("--seed")? {
        cfg.seed = seed;
    }
    let out_dir = args.text("--out");

    let registry = experiments::all();
    let selected: Vec<_> = if args.positionals().is_empty() {
        registry
    } else {
        let known: Vec<&str> = registry.iter().map(|&(name, _)| name).collect();
        args.positionals()
            .iter()
            .map(|n| {
                registry
                    .iter()
                    .find(|(name, _)| name == n)
                    .copied()
                    .ok_or_else(|| format!("unknown experiment '{n}'{}", did_you_mean(n, &known)))
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
