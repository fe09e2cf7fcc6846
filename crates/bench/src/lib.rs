//! Experiment harness: regenerates every table and figure of the BFW
//! paper reproduction.
//!
//! The paper (PODC 2025) is a theory paper; its "evaluation" consists of
//! Figure 1 (the protocol), Table 1 (comparison against prior work) and
//! the Theorems. This crate turns each into a measured artifact. Each
//! experiment lives in [`experiments`] and returns paper-style
//! [`bfw_stats::Table`]s; `bfw experiment NAME` prints them and, with
//! `--out DIR`, writes one CSV per table. E16, E19, E20 and E21 also
//! write their tracked `BENCH_*.json` reports (see [`report`]).
//!
//! # Example
//!
//! ```no_run
//! use bfw_bench::{ExpConfig, experiments};
//!
//! let cfg = ExpConfig::quick();
//! let result = experiments::thm2_d::run(&cfg);
//! for (name, table) in &result.tables {
//!     println!("## {name}\n{}", table.to_markdown());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
mod runner;
mod workloads;

pub use bfw_graph::{GraphSpec, WorkloadError};
pub use runner::{election_summary, ElectionSummary};
pub use workloads::standard_suite;

use bfw_stats::Table;

/// Shared experiment configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpConfig {
    /// Monte-Carlo trials per configuration point.
    pub trials: usize,
    /// Worker threads for trial parallelism.
    pub threads: usize,
    /// Base RNG seed; trial `i` of each point uses derived seeds.
    pub seed: u64,
    /// Reduce workload sizes (`bfw experiment --quick`, used by CI and
    /// the tests).
    pub quick: bool,
    /// Enable the optional noise sweeps (`--noise`): experiments that
    /// support it (E17) add perception-noise rows on top of their
    /// noise-free tables.
    pub noise: bool,
    /// Where report-emitting experiments (E16, E19, E20, E21) write
    /// their `BENCH_*.json`. `None` means the workspace root — the tracked
    /// location the CI smoke steps assert on. Tests point this at a
    /// scratch directory so `cargo test` never clobbers the committed
    /// artifacts (the timing reports hold wall-clock numbers from a
    /// release build; a quick debug-build rewrite would destroy them).
    pub report_dir: Option<std::path::PathBuf>,
}

impl ExpConfig {
    /// Full-size configuration (`bfw experiment` without `--quick`).
    pub fn full() -> Self {
        ExpConfig {
            trials: 30,
            threads: default_threads(),
            seed: 0xBF_2025,
            quick: false,
            noise: false,
            report_dir: None,
        }
    }

    /// Reduced configuration for smoke tests.
    pub fn quick() -> Self {
        ExpConfig {
            trials: 8,
            threads: default_threads(),
            seed: 0xBF_2025,
            quick: true,
            noise: false,
            report_dir: None,
        }
    }

    /// Resolves the directory `BENCH_*.json` reports land in:
    /// [`report_dir`](ExpConfig::report_dir) when set, otherwise the
    /// workspace root (next to `BENCH_churn.json`).
    pub fn report_root(&self) -> std::path::PathBuf {
        self.report_dir.clone().unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("crates/bench has a workspace root")
                .to_path_buf()
        })
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Output of one experiment: named tables plus free-form observations
/// (the "measured vs. paper" notes).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment identifier (e.g. `"E4-thm2-d-scaling"`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub reproduces: &'static str,
    /// Named result tables.
    pub tables: Vec<(String, Table)>,
    /// Headline observations (one per line in the report).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Renders the full result as Markdown (what `bfw experiment`
    /// prints).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.reproduces);
        for (name, table) in &self.tables {
            out.push_str(&format!("### {name}\n\n{}\n", table.to_markdown()));
        }
        if !self.notes.is_empty() {
            out.push_str("Observations:\n");
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }

    /// Writes one CSV per table into `dir` (created if missing), named
    /// `{id}_{slug}.csv` with the table name's non-alphanumerics as
    /// `_`; returns the paths written.
    ///
    /// # Errors
    ///
    /// The first I/O error.
    pub fn write_csvs(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, table) in &self.tables {
            let slug = name
                .to_ascii_lowercase()
                .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
            let path = dir.join(format!("{}_{slug}.csv", self.id));
            std::fs::write(&path, table.to_csv())?;
            written.push(path);
        }
        Ok(written)
    }
}
