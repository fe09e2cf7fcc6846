//! The versioned interchange seam: envelopes, schema errors, traits.
//!
//! Every JSON artifact the workspace ships — graph exports, scenario
//! run reports, bench reports — opens with the same two-field envelope:
//!
//! ```json
//! {"format": "bfw/<kind>", "version": 1}
//! ```
//!
//! `<kind>` names the schema (`graph`, `scenario-report`,
//! `bench-report`, …) and `version` is bumped, per kind, on
//! incompatible layout changes, so a consumer can reject a document it
//! does not understand *before* poking at its fields. Every kind is at
//! version 1 except `engine-snapshot`, at 2 (see
//! [`Envelope::current_version`]). This module provides the shared
//! machinery the producing crates build on:
//!
//! * [`Envelope`] — read/check the `format`/`version` header;
//! * [`SchemaError`] — a diagnostic that carries the JSON-pointer path
//!   (RFC 6901) of the offending value, so `bfw report validate` can
//!   say `/rows/3/seed: expected a number` instead of "bad file";
//! * [`Doc`] — a `Copy` cursor over a parsed [`JsonValue`] whose typed
//!   accessors produce pointer-accurate errors (the pointer is worked
//!   out only when an error is built, so decoding stays linear);
//! * [`ToJson`] / [`FromJson`] — the serialization traits the schema'd
//!   types implement;
//! * [`diff`] — structural comparison of two documents, pointer by
//!   pointer (the engine behind `bfw report diff`).

use crate::json::JsonValue;
use std::fmt;

/// The kinds whose layout has changed since version 1, at their
/// current version; every other kind is at version 1.
const VERSIONS: &[(&str, u64)] = &[
    // 2: the topology as edits from the spec's graph, not an edge list.
    ("engine-snapshot", 2),
];

/// A schema violation, located by JSON pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    pointer: String,
    message: String,
}

impl SchemaError {
    /// Builds an error at `pointer` (empty string = whole document).
    pub fn new(pointer: impl Into<String>, message: impl Into<String>) -> SchemaError {
        SchemaError {
            pointer: pointer.into(),
            message: message.into(),
        }
    }

    /// Builds an error about the document as a whole.
    pub fn root(message: impl Into<String>) -> SchemaError {
        SchemaError::new("", message)
    }

    /// The JSON pointer (RFC 6901) of the offending value; empty for
    /// the document root.
    pub fn pointer(&self) -> &str {
        &self.pointer
    }

    /// What went wrong there.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pointer.is_empty() {
            write!(f, "schema error: {}", self.message)
        } else {
            write!(f, "schema error at {}: {}", self.pointer, self.message)
        }
    }
}

impl std::error::Error for SchemaError {}

/// Escapes one reference token per RFC 6901 (`~` → `~0`, `/` → `~1`).
fn escape_token(token: &str) -> String {
    token.replace('~', "~0").replace('/', "~1")
}

/// Pushes the reference tokens of the path from `node` down to
/// `target`, deepest first, and returns whether `target` lies under
/// `node`. Values are matched by address, so a value that also occurs
/// elsewhere resolves to the occurrence the cursor stands on.
fn locate(node: &JsonValue, target: &JsonValue, tokens: &mut Vec<String>) -> bool {
    if std::ptr::eq(node, target) {
        return true;
    }
    let token = match node {
        JsonValue::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, item)| locate(item, target, tokens).then(|| i.to_string())),
        JsonValue::Object(map) => map
            .iter()
            .find_map(|(key, value)| locate(value, target, tokens).then(|| escape_token(key))),
        _ => None,
    };
    match token {
        Some(token) => {
            tokens.push(token);
            true
        }
        None => false,
    }
}

/// A cursor into a parsed document whose typed accessors report a
/// precise JSON-pointer path on failure.
///
/// A cursor is two references, the document root and the value it
/// stands on, so descending into fields and elements builds no pointer
/// strings. The pointer is worked out only when it is asked for, by
/// [`error`](Doc::error) or [`pointer`](Doc::pointer), with one search
/// of the document from its root.
///
/// ```
/// use bfw_stats::{Doc, JsonValue};
///
/// let value = JsonValue::parse(r#"{"rows": [{"n": "oops"}]}"#).unwrap();
/// let doc = Doc::root(&value);
/// let err = doc
///     .field("rows")
///     .and_then(|rows| Ok(rows.items()?[0]))
///     .and_then(|row| row.field("n")?.u64())
///     .unwrap_err();
/// assert_eq!(err.pointer(), "/rows/0/n");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Doc<'a> {
    root: &'a JsonValue,
    value: &'a JsonValue,
}

impl<'a> Doc<'a> {
    /// Wraps a document root (pointer `""`).
    pub fn root(value: &'a JsonValue) -> Doc<'a> {
        Doc { root: value, value }
    }

    /// The underlying value.
    pub fn value(&self) -> &'a JsonValue {
        self.value
    }

    /// The JSON pointer of this position: a depth-first search of the
    /// document, linear in its size, so it belongs on the failure path.
    pub fn pointer(&self) -> String {
        let mut tokens = Vec::new();
        locate(self.root, self.value, &mut tokens);
        tokens
            .iter()
            .rev()
            .map(|token| format!("/{token}"))
            .collect()
    }

    /// Builds an error located at this position.
    pub fn error(&self, message: impl Into<String>) -> SchemaError {
        SchemaError::new(self.pointer(), message)
    }

    fn child(&self, value: &'a JsonValue) -> Doc<'a> {
        Doc {
            root: self.root,
            value,
        }
    }

    /// Descends into a required object field.
    ///
    /// # Errors
    ///
    /// If this value is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<Doc<'a>, SchemaError> {
        match self.value {
            JsonValue::Object(map) => map
                .get(key)
                .map(|v| self.child(v))
                .ok_or_else(|| self.error(format!("missing required field \"{key}\""))),
            _ => Err(self.error("expected an object")),
        }
    }

    /// Descends into an optional field: `Ok(None)` when the field is
    /// absent or `null`.
    ///
    /// # Errors
    ///
    /// If this value is not an object.
    pub fn opt_field(&self, key: &str) -> Result<Option<Doc<'a>>, SchemaError> {
        match self.value {
            JsonValue::Object(map) => Ok(match map.get(key) {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(self.child(v)),
            }),
            _ => Err(self.error("expected an object")),
        }
    }

    /// The elements of an array, each as its own cursor.
    ///
    /// # Errors
    ///
    /// If this value is not an array.
    pub fn items(&self) -> Result<Vec<Doc<'a>>, SchemaError> {
        match self.value {
            JsonValue::Array(items) => Ok(items.iter().map(|v| self.child(v)).collect()),
            _ => Err(self.error("expected an array")),
        }
    }

    /// The string at this position.
    ///
    /// # Errors
    ///
    /// If this value is not a string.
    pub fn str(&self) -> Result<&'a str, SchemaError> {
        self.value
            .as_str()
            .ok_or_else(|| self.error("expected a string"))
    }

    /// The number at this position.
    ///
    /// # Errors
    ///
    /// If this value is not a number.
    pub fn f64(&self) -> Result<f64, SchemaError> {
        self.value
            .as_number()
            .ok_or_else(|| self.error("expected a number"))
    }

    /// The non-negative integer at this position.
    ///
    /// # Errors
    ///
    /// If this value is not a number, is negative, or has a fractional
    /// part.
    pub fn u64(&self) -> Result<u64, SchemaError> {
        let x = self.f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 {
            Ok(x as u64)
        } else {
            Err(self.error("expected a non-negative integer"))
        }
    }

    /// The boolean at this position.
    ///
    /// # Errors
    ///
    /// If this value is not a boolean.
    pub fn bool(&self) -> Result<bool, SchemaError> {
        self.value
            .as_bool()
            .ok_or_else(|| self.error("expected a boolean"))
    }
}

/// The two-field header every `bfw/*` document opens with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Schema kind: the `<kind>` of `bfw/<kind>`.
    pub kind: String,
    /// Schema version.
    pub version: u64,
}

impl Envelope {
    /// The version of `bfw/<kind>` this build writes and reads.
    pub fn current_version(kind: &str) -> u64 {
        VERSIONS
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(1, |&(_, version)| version)
    }

    /// Renders the envelope entries, ready to splice into an object
    /// under construction.
    pub fn entries(kind: &str) -> [(String, JsonValue); 2] {
        [
            ("format".to_owned(), JsonValue::from(format!("bfw/{kind}"))),
            (
                "version".to_owned(),
                JsonValue::from(Envelope::current_version(kind)),
            ),
        ]
    }

    /// Reads the envelope off a document root.
    ///
    /// # Errors
    ///
    /// If `format` is missing, not of the form `bfw/<kind>`, or
    /// `version` is missing or not an integer.
    pub fn read(doc: &Doc<'_>) -> Result<Envelope, SchemaError> {
        let format_doc = doc.field("format")?;
        let format = format_doc.str()?;
        let kind = format
            .strip_prefix("bfw/")
            .filter(|k| !k.is_empty())
            .ok_or_else(|| {
                format_doc.error(format!("expected \"bfw/<kind>\", got \"{format}\""))
            })?;
        let version = doc.field("version")?.u64()?;
        Ok(Envelope {
            kind: kind.to_owned(),
            version,
        })
    }

    /// Reads the envelope and checks it is `bfw/<kind>` at a version we
    /// understand.
    ///
    /// # Errors
    ///
    /// On a malformed envelope, a different kind, or an unsupported
    /// version.
    pub fn expect(doc: &Doc<'_>, kind: &str) -> Result<Envelope, SchemaError> {
        let envelope = Envelope::read(doc)?;
        if envelope.kind != kind {
            return Err(doc.error(format!(
                "expected format \"bfw/{kind}\", got \"bfw/{}\"",
                envelope.kind
            )));
        }
        let current = Envelope::current_version(kind);
        if envelope.version != current {
            return Err(doc.error(format!(
                "unsupported bfw/{kind} version {} (this build reads version {current})",
                envelope.version
            )));
        }
        Ok(envelope)
    }
}

/// Types that serialize into the interchange layer.
pub trait ToJson {
    /// Renders `self` as a [`JsonValue`] (envelope included for
    /// document-level types).
    fn to_json_value(&self) -> JsonValue;
}

/// Types that deserialize from the interchange layer.
pub trait FromJson: Sized {
    /// Reconstructs `Self` from a document cursor.
    ///
    /// # Errors
    ///
    /// A [`SchemaError`] naming the first offending path.
    fn from_json_value(doc: &Doc<'_>) -> Result<Self, SchemaError>;
}

/// One structural difference between two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Where the documents diverge.
    pub pointer: String,
    /// The left document's value there (`None` = absent).
    pub left: Option<JsonValue>,
    /// The right document's value there (`None` = absent).
    pub right: Option<JsonValue>,
}

/// Structurally compares two documents, returning one entry per
/// divergent pointer (objects compared by key union, arrays index by
/// index; subtrees equal by value produce no entries). An empty result
/// means the documents are identical up to key order.
pub fn diff(left: &JsonValue, right: &JsonValue) -> Vec<DiffEntry> {
    let mut entries = Vec::new();
    diff_at(String::new(), Some(left), Some(right), &mut entries);
    entries
}

fn diff_at(
    pointer: String,
    left: Option<&JsonValue>,
    right: Option<&JsonValue>,
    entries: &mut Vec<DiffEntry>,
) {
    match (left, right) {
        (Some(JsonValue::Object(l)), Some(JsonValue::Object(r))) => {
            // BTreeMap keys iterate sorted, so the union preserves
            // pointer order deterministically.
            let keys: std::collections::BTreeSet<&String> = l.keys().chain(r.keys()).collect();
            for key in keys {
                diff_at(
                    format!("{pointer}/{}", escape_token(key)),
                    l.get(key.as_str()),
                    r.get(key.as_str()),
                    entries,
                );
            }
        }
        (Some(JsonValue::Array(l)), Some(JsonValue::Array(r))) => {
            for i in 0..l.len().max(r.len()) {
                diff_at(format!("{pointer}/{i}"), l.get(i), r.get(i), entries);
            }
        }
        (l, r) if l == r => {}
        (l, r) => entries.push(DiffEntry {
            pointer,
            left: l.cloned(),
            right: r.cloned(),
        }),
    }
}

/// Renders a diff as a `bfw/report-diff` document (what
/// `bfw report diff` prints).
pub fn diff_to_json(entries: &[DiffEntry]) -> JsonValue {
    let rows = entries.iter().map(|e| {
        JsonValue::object([
            ("pointer", JsonValue::from(e.pointer.as_str())),
            ("left", e.left.clone().unwrap_or(JsonValue::Null)),
            ("right", e.right.clone().unwrap_or(JsonValue::Null)),
        ])
    });
    let mut fields: Vec<(String, JsonValue)> = Envelope::entries("report-diff").into();
    fields.push(("entries".to_owned(), JsonValue::array(rows)));
    JsonValue::object(fields)
}

/// What [`validate_diff`] reports about a well-formed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffSummary {
    /// Number of divergent pointers.
    pub entries: usize,
}

impl fmt::Display for DiffSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bfw/report-diff, {} entries", self.entries)
    }
}

/// Validates a `bfw/report-diff` document, the layout
/// [`diff_to_json`] writes: the envelope and an `entries` array whose
/// every element holds a string `pointer`, a `left` and a `right`
/// (`null` = absent on that side).
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn validate_diff(text: &str) -> Result<DiffSummary, SchemaError> {
    let value = JsonValue::parse(text).map_err(|e| SchemaError::root(e.to_string()))?;
    let doc = Doc::root(&value);
    Envelope::expect(&doc, "report-diff")?;
    let entries = doc.field("entries")?.items()?;
    for entry in &entries {
        entry.field("pointer")?.str()?;
        entry.field("left")?;
        entry.field("right")?;
    }
    Ok(DiffSummary {
        entries: entries.len(),
    })
}

/// Levenshtein distance (iterative two-row DP) — small inputs only.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Returns ` (did you mean 'x'?)` when a known name is within edit
/// distance 2 of `given` (ties resolved toward the closest, then the
/// first listed), or an empty string otherwise. The one hint helper
/// of the workspace: spec keys, event kinds and CLI verbs all use it.
pub fn did_you_mean(given: &str, known: &[&str]) -> String {
    known
        .iter()
        .map(|k| (edit_distance(given, k), *k))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, k)| format!(" (did you mean '{k}'?)"))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_accessors_report_pointer_paths() {
        let value =
            JsonValue::parse(r#"{"a": {"b~/c": [1, "two", true]}, "n": 7, "x": -1}"#).unwrap();
        let doc = Doc::root(&value);

        assert_eq!(doc.field("n").unwrap().u64().unwrap(), 7);
        assert_eq!(doc.field("n").unwrap().f64().unwrap(), 7.0);
        assert!(doc.opt_field("missing").unwrap().is_none());

        let items = doc
            .field("a")
            .unwrap()
            .field("b~/c")
            .unwrap()
            .items()
            .unwrap();
        assert_eq!(items.len(), 3);
        // RFC 6901 escaping: ~ → ~0, / → ~1.
        assert_eq!(items[1].pointer(), "/a/b~0~1c/1");
        assert_eq!(items[1].str().unwrap(), "two");
        assert!(items[2].bool().unwrap());

        let err = items[1].u64().unwrap_err();
        assert_eq!(err.pointer(), "/a/b~0~1c/1");
        assert_eq!(
            err.to_string(),
            "schema error at /a/b~0~1c/1: expected a number"
        );

        let err = doc.field("x").unwrap().u64().unwrap_err();
        assert!(err.message().contains("non-negative"), "{err}");

        let err = doc.field("gone").unwrap_err();
        assert_eq!(err.pointer(), "");
        assert!(err.to_string().starts_with("schema error: "), "{err}");
    }

    #[test]
    fn null_fields_read_as_absent() {
        let value = JsonValue::parse(r#"{"a": null}"#).unwrap();
        let doc = Doc::root(&value);
        assert!(doc.opt_field("a").unwrap().is_none());
        // But field() still finds it — callers that require non-null
        // use the typed accessor to reject it.
        assert!(doc.field("a").unwrap().u64().is_err());
    }

    #[test]
    fn pointers_name_the_occurrence_the_cursor_stands_on() {
        // Equal values in two places: the pointer follows the cursor's
        // own node, not the first value equal to it.
        let value = JsonValue::parse(r#"[[1, 2], [1, "x"]]"#).unwrap();
        let doc = Doc::root(&value);
        assert_eq!(doc.pointer(), "");
        let second = doc.items().unwrap()[1].items().unwrap();
        assert_eq!(second[0].pointer(), "/1/0");
        assert_eq!(second[1].u64().unwrap_err().pointer(), "/1/1");
    }

    #[test]
    fn envelope_round_trips_and_rejects() {
        let mut fields: Vec<(String, JsonValue)> = Envelope::entries("graph").into();
        fields.push(("nodes".to_owned(), JsonValue::from(4u64)));
        let value = JsonValue::object(fields);
        assert_eq!(
            value.render(),
            r#"{"format":"bfw/graph","nodes":4,"version":1}"#
        );

        let doc = Doc::root(&value);
        let env = Envelope::expect(&doc, "graph").unwrap();
        assert_eq!(env.kind, "graph");
        assert_eq!(env.version, 1);

        let err = Envelope::expect(&doc, "bench-report").unwrap_err();
        assert!(err.to_string().contains("bfw/bench-report"), "{err}");

        let future = JsonValue::parse(r#"{"format": "bfw/graph", "version": 99}"#).unwrap();
        let err = Envelope::expect(&Doc::root(&future), "graph").unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // Versions are per kind: snapshots are at 2, and a version-1
        // snapshot is refused.
        let snapshot = JsonValue::object(Envelope::entries("engine-snapshot"));
        assert_eq!(
            snapshot.render(),
            r#"{"format":"bfw/engine-snapshot","version":2}"#
        );
        Envelope::expect(&Doc::root(&snapshot), "engine-snapshot").unwrap();
        let old = JsonValue::parse(r#"{"format": "bfw/engine-snapshot", "version": 1}"#).unwrap();
        let err = Envelope::expect(&Doc::root(&old), "engine-snapshot").unwrap_err();
        assert!(
            err.to_string().contains("this build reads version 2"),
            "{err}"
        );

        for bad in [
            r#"{"version": 1}"#,
            r#"{"format": "graph", "version": 1}"#,
            r#"{"format": "bfw/", "version": 1}"#,
            r#"{"format": "bfw/graph"}"#,
            r#"{"format": "bfw/graph", "version": "one"}"#,
        ] {
            let value = JsonValue::parse(bad).unwrap();
            assert!(Envelope::read(&Doc::root(&value)).is_err(), "{bad}");
        }
    }

    #[test]
    fn diff_walks_objects_arrays_and_absences() {
        let left =
            JsonValue::parse(r#"{"seed": 42, "rows": [1, 2, 3], "only_left": true}"#).unwrap();
        let right = JsonValue::parse(r#"{"seed": 43, "rows": [1, 9], "only_right": "x"}"#).unwrap();
        let entries = diff(&left, &right);
        let pointers: Vec<&str> = entries.iter().map(|e| e.pointer.as_str()).collect();
        assert_eq!(
            pointers,
            ["/only_left", "/only_right", "/rows/1", "/rows/2", "/seed"]
        );
        // Absent sides are None, not Null.
        assert_eq!(entries[0].right, None);
        assert_eq!(entries[1].left, None);
        assert_eq!(entries[3].left, Some(JsonValue::Number(3.0)));
        assert_eq!(entries[3].right, None);

        assert!(diff(&left, &left).is_empty());

        let rendered = diff_to_json(&entries);
        let doc = Doc::root(&rendered);
        Envelope::expect(&doc, "report-diff").unwrap();
        assert_eq!(doc.field("entries").unwrap().items().unwrap().len(), 5);
    }

    #[test]
    fn report_diff_validator_accepts_what_diff_to_json_writes() {
        let left = JsonValue::parse(r#"{"seed": 42, "rows": [1, 2]}"#).unwrap();
        let right = JsonValue::parse(r#"{"seed": 43, "rows": [1]}"#).unwrap();
        let rendered = diff_to_json(&diff(&left, &right)).render_pretty();
        let summary = validate_diff(&rendered).unwrap();
        assert_eq!(summary.to_string(), "bfw/report-diff, 2 entries");
        let empty = diff_to_json(&[]).render_pretty();
        assert_eq!(validate_diff(&empty).unwrap().entries, 0);

        // A non-string pointer is refused at its own path.
        let tampered = rendered.replacen("\"/rows/1\"", "7", 1);
        assert_ne!(tampered, rendered);
        let err = validate_diff(&tampered).unwrap_err();
        assert_eq!(err.pointer(), "/entries/0/pointer");
        assert_eq!(
            err.to_string(),
            "schema error at /entries/0/pointer: expected a string"
        );
        // Each entry needs both sides, and the envelope must match.
        let err = validate_diff(&rendered.replacen("\"left\"", "\"lft\"", 1)).unwrap_err();
        assert_eq!(err.pointer(), "/entries/0");
        let err = validate_diff(r#"{"format": "bfw/graph", "version": 1}"#).unwrap_err();
        assert!(err.to_string().contains("bfw/report-diff"), "{err}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(did_you_mean("zzzzzz", &["heal"]), "");
    }
}
