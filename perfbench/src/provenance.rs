//! Where a result came from: seed, host, toolchain, build and source.

use crate::{fnv1a, Options, Outcome, FNV_OFFSET};
use bfw_stats::JsonValue;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Worker threads the host offers (`available_parallelism`).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First line of a command's standard output, if it ran successfully.
fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_owned())
}

/// `rustc -V` of the toolchain on the path (`RUSTC` when set).
pub fn rustc_version() -> Option<String> {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    command_line(Command::new(rustc).arg("-V"))
}

/// The git revision of the working directory, when it is itself a git
/// checkout (parent directories are never consulted).
pub fn git_rev() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut cmd)
}

/// Files of `dir`, recursively, sorted.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// FNV-1a digest of the library sources the benchmark builds
/// (`crates/`, `vendor/`, the root manifest and lock file), so results
/// from checkouts without git history can still be matched to a tree.
pub fn source_digest() -> Option<String> {
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        files_under(Path::new(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock"] {
        files.push(PathBuf::from(file));
    }
    files.sort();
    let mut hash = FNV_OFFSET;
    for file in &files {
        let bytes = std::fs::read(file).ok()?;
        hash = fnv1a(hash, file.to_string_lossy().as_bytes());
        hash = fnv1a(hash, &bytes);
    }
    Some(format!("{hash:016x}"))
}

/// The provenance record printed before the result line and embedded in
/// the span file.
pub fn record(opts: &Options, outcome: &Outcome) -> JsonValue {
    let (attempted, failed) = (outcome.checks.attempted, outcome.checks.failed());
    JsonValue::object([
        ("workload", JsonValue::from(opts.workload.name())),
        ("seed", JsonValue::from(opts.seed)),
        ("trace", JsonValue::from(opts.trace)),
        ("seconds", JsonValue::from(opts.seconds)),
        ("passes", JsonValue::from(outcome.pass_wall_s.len())),
        (
            "pass_wall_s",
            JsonValue::array(outcome.pass_wall_s.iter().map(|&s| JsonValue::from(s))),
        ),
        ("threads", JsonValue::from(crate::THREADS)),
        ("host_cores", JsonValue::from(host_cores())),
        ("rustc", JsonValue::from(rustc_version())),
        (
            "profile",
            JsonValue::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_rev", JsonValue::from(git_rev())),
        ("source_digest", JsonValue::from(source_digest())),
        (
            "failed_share",
            JsonValue::from(failed as f64 / attempted.max(1) as f64),
        ),
    ])
}
