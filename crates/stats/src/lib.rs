//! Summary statistics, regression and table writers for the BFW
//! experiments.
//!
//! The paper's claims are asymptotic ("`O(D² log n)` w.h.p."); the
//! experiments turn them into numbers via
//!
//! * [`Summary`] — mean / variance / quantiles of convergence times
//!   across Monte-Carlo trials,
//! * [`LinearFit`] / [`loglog_fit`] — scaling-exponent estimation
//!   (`rounds ≈ c · D^α` ⇒ slope `α` in log–log space),
//! * [`Histogram`] — distribution shapes,
//! * [`Table`] — Markdown / CSV rendering of the paper-style result
//!   tables (hand-rolled so the workspace needs no serialization
//!   dependencies),
//! * [`JsonValue`] — a minimal JSON parser/renderer closing the loop on
//!   the hand-rolled JSON reports (complexity ledgers, flight-recorder
//!   dumps), so tests can assert they round-trip,
//! * [`Envelope`] / [`Doc`] / [`SchemaError`] / [`ToJson`] /
//!   [`FromJson`] — the versioned interchange seam
//!   (`{"format": "bfw/<kind>", "version": 1}`) every shipped JSON
//!   artifact opens with, plus [`diff`] for structural report diffs and
//!   [`did_you_mean`], the one typo hint of every parser in the
//!   workspace.
//!
//! # Example
//!
//! ```
//! use bfw_stats::Summary;
//!
//! let s = Summary::from_values([4.0, 8.0, 6.0, 2.0]);
//! assert_eq!(s.mean(), 5.0);
//! assert_eq!(s.min(), 2.0);
//! assert_eq!(s.quantile(0.5), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod json;
mod regression;
mod schema;
mod summary;
mod table;

pub use histogram::Histogram;
pub use json::{JsonError, JsonValue};
pub use regression::{linear_fit, loglog_fit, LinearFit};
pub use schema::{
    did_you_mean, diff, diff_to_json, validate_diff, DiffEntry, DiffSummary, Doc, Envelope,
    FromJson, SchemaError, ToJson,
};
pub use summary::Summary;
pub use table::Table;
