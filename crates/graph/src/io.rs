//! Graph serialization: the versioned JSON interchange format and a
//! plain-text edge list.
//!
//! # JSON interchange (`bfw/graph`)
//!
//! The primary format, shared with every other `bfw/*` artifact (see
//! [`bfw_stats::Envelope`]):
//!
//! ```json
//! {
//!   "format": "bfw/graph",
//!   "version": 1,
//!   "nodes": 4,
//!   "edges": [
//!     [0, 1],
//!     [1, 2]
//!   ],
//!   "provenance": {"family": "cycle", "params": {"n": 4}, "seed": null},
//!   "overlay": {"added": [[0, 2]], "removed": [[0, 1]]}
//! }
//! ```
//!
//! `provenance` names the generator the graph came from (family, sorted
//! integer params — real-valued parameters are encoded in milli-units,
//! as in the spec strings — and the seed for randomized families);
//! `overlay` carries an optional batch of pending topology edits
//! ([`TopologyDelta`]). Both are `null` when absent. [`export_json`] is
//! canonical — edges in the CSR's sorted order, one per line — so
//! `export → import → export` is the byte identity, which the CI
//! round-trip smoke asserts with `cmp`. `nodes` is capped at
//! [`MAX_NODES`], the largest graph a spec builds, so a document cannot
//! make the reader allocate for more.
//!
//! Every edge any `bfw/*` document carries — these edges and overlays,
//! a snapshot's topology edits and partition backlog — goes through one
//! `[u, v]` pair codec, [`edge_to_json`] (and [`edges_to_json`] for lists)
//! and [`edge_from_json`].
//!
//! ```
//! use bfw_graph::{generators, io};
//!
//! let doc = io::GraphDoc::plain(generators::cycle(4));
//! let text = io::export_json(&doc);
//! let back = io::import_json(&text).unwrap();
//! assert_eq!(back.graph, doc.graph);
//! assert_eq!(io::export_json(&back), text);
//! ```
//!
//! # Edge list
//!
//! The minimal line-oriented format kept for hand-written fixtures:
//!
//! ```text
//! # optional comments
//! <node_count> <edge_count>
//! <u> <v>
//! ...
//! ```
//!
//! Blank lines and lines starting with `#` are ignored. Node indices are
//! zero-based. The header's `edge_count` must match the number of edge
//! lines.
//!
//! # Example
//!
//! ```
//! use bfw_graph::{generators, io};
//!
//! let g = generators::cycle(4);
//! let text = io::to_edge_list(&g);
//! let parsed = io::parse_edge_list(&text)?;
//! assert_eq!(parsed, g);
//! # Ok::<(), bfw_graph::GraphError>(())
//! ```

use crate::{Graph, GraphError, NodeId, TopologyDelta, MAX_NODES};
use bfw_stats::{Doc, Envelope, FromJson, JsonValue, SchemaError, ToJson};
use std::fmt::Write as _;

/// Generator provenance carried inside an exported graph: which family
/// produced it, with which parameters and seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Generator family name (e.g. `"cycle"`, `"ba"`, `"plaw"`).
    pub family: String,
    /// Named integer parameters, kept key-sorted so exports are
    /// canonical. Real-valued parameters are encoded in milli-units
    /// (`p_milli`, `gamma_milli`), matching the workload spec strings.
    params: Vec<(String, u64)>,
    /// RNG seed for randomized families; `None` for deterministic ones.
    /// Stored as a JSON number, so exact only up to 2⁵³ — every seed
    /// the workspace uses is far below that.
    pub seed: Option<u64>,
}

impl Provenance {
    /// Builds a provenance tag; parameters are sorted by name.
    pub fn new(
        family: impl Into<String>,
        params: impl IntoIterator<Item = (impl Into<String>, u64)>,
        seed: Option<u64>,
    ) -> Provenance {
        let mut params: Vec<(String, u64)> =
            params.into_iter().map(|(k, v)| (k.into(), v)).collect();
        params.sort();
        Provenance {
            family: family.into(),
            params,
            seed,
        }
    }

    /// The key-sorted parameters.
    pub fn params(&self) -> &[(String, u64)] {
        &self.params
    }
}

impl ToJson for Provenance {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("family", JsonValue::from(self.family.as_str())),
            (
                "params",
                JsonValue::object(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.as_str(), JsonValue::from(*v))),
                ),
            ),
            ("seed", JsonValue::from(self.seed)),
        ])
    }
}

impl FromJson for Provenance {
    fn from_json_value(doc: &Doc<'_>) -> Result<Self, SchemaError> {
        let family = doc.field("family")?.str()?.to_owned();
        let params_doc = doc.field("params")?;
        let map = params_doc
            .value()
            .as_object()
            .ok_or_else(|| params_doc.error("expected an object"))?;
        let mut params = Vec::with_capacity(map.len());
        for key in map.keys() {
            params.push((key.clone(), params_doc.field(key)?.u64()?));
        }
        let seed = match doc.opt_field("seed")? {
            Some(s) => Some(s.u64()?),
            None => None,
        };
        Ok(Provenance {
            family,
            params,
            seed,
        })
    }
}

/// A graph document: the topology plus optional generator provenance
/// and an optional pending edit overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDoc {
    /// The topology.
    pub graph: Graph,
    /// Where the topology came from, if known.
    pub provenance: Option<Provenance>,
    /// Pending topology edits, if any.
    pub delta: Option<TopologyDelta>,
}

impl GraphDoc {
    /// Wraps a bare graph (no provenance, no overlay).
    pub fn plain(graph: Graph) -> GraphDoc {
        GraphDoc {
            graph,
            provenance: None,
            delta: None,
        }
    }
}

/// Renders one undirected edge as the `[u, v]` pair every `bfw/*`
/// document writes, smaller end first.
pub fn edge_to_json(u: NodeId, v: NodeId) -> JsonValue {
    JsonValue::array([
        JsonValue::from(u.min(v).index()),
        JsonValue::from(u.max(v).index()),
    ])
}

/// Reads one `[u, v]` pair, in the order written, checking that both
/// ends are node indices below `nodes`.
///
/// # Errors
///
/// A [`SchemaError`] at the pair when it is not two items, or at the
/// end that is not an integer below `nodes`.
pub fn edge_from_json(doc: &Doc<'_>, nodes: usize) -> Result<(NodeId, NodeId), SchemaError> {
    let items = doc.items()?;
    let [u, v] = items.as_slice() else {
        return Err(doc.error(format!(
            "expected an edge pair [u, v], got {} items",
            items.len()
        )));
    };
    let read = |end: &Doc<'_>| -> Result<NodeId, SchemaError> {
        let x = end.u64()?;
        if x < nodes as u64 {
            Ok(NodeId::new(x as usize))
        } else {
            Err(end.error(format!("node {x} out of range (graph has {nodes} nodes)")))
        }
    };
    Ok((read(u)?, read(v)?))
}

/// A list of edges as `[u, v]` pairs (see [`edge_to_json`]).
pub fn edges_to_json(edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> JsonValue {
    JsonValue::array(edges.into_iter().map(|(u, v)| edge_to_json(u, v)))
}

fn delta_to_json(delta: &TopologyDelta) -> JsonValue {
    JsonValue::object([
        ("added", edges_to_json(delta.added().iter().copied())),
        ("removed", edges_to_json(delta.removed().iter().copied())),
    ])
}

/// FNV-1a (64-bit) over a graph's edges in their sorted `(u, v)` order,
/// each end as a little-endian `u32`: a cheap fingerprint of an edge
/// set, which a `bfw/engine-snapshot` stores to pin the graph its
/// topology edits apply to.
pub fn edge_digest(graph: &Graph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for end in graph.edges().flat_map(|(u, v)| [u, v]) {
        for byte in end.as_u32().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

impl ToJson for GraphDoc {
    fn to_json_value(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = Envelope::entries("graph").into();
        fields.push(("nodes".to_owned(), JsonValue::from(self.graph.node_count())));
        fields.push(("edges".to_owned(), edges_to_json(self.graph.edges())));
        fields.push((
            "provenance".to_owned(),
            self.provenance
                .as_ref()
                .map_or(JsonValue::Null, ToJson::to_json_value),
        ));
        fields.push((
            "overlay".to_owned(),
            self.delta.as_ref().map_or(JsonValue::Null, delta_to_json),
        ));
        JsonValue::object(fields)
    }
}

impl FromJson for GraphDoc {
    fn from_json_value(doc: &Doc<'_>) -> Result<Self, SchemaError> {
        Envelope::expect(doc, "graph")?;
        let nodes_doc = doc.field("nodes")?;
        let nodes = nodes_doc.u64()?;
        if nodes == 0 || nodes > MAX_NODES {
            return Err(nodes_doc.error(format!(
                "node count {nodes} out of range (1..={MAX_NODES}, the build limit)"
            )));
        }
        let nodes = nodes as usize;

        let edges_doc = doc.field("edges")?;
        let mut edges = Vec::new();
        for item in edges_doc.items()? {
            let (u, v) = edge_from_json(&item, nodes)?;
            edges.push((u.as_u32(), v.as_u32()));
        }
        let graph = Graph::from_edges(nodes, edges).map_err(|e| edges_doc.error(e.to_string()))?;

        let provenance = match doc.opt_field("provenance")? {
            Some(p) => Some(Provenance::from_json_value(&p)?),
            None => None,
        };

        let delta = match doc.opt_field("overlay")? {
            Some(ov) => {
                let mut delta = TopologyDelta::new();
                for item in ov.field("added")?.items()? {
                    let (u, v) = edge_from_json(&item, nodes)?;
                    delta.add_edge(u, v);
                }
                for item in ov.field("removed")?.items()? {
                    let (u, v) = edge_from_json(&item, nodes)?;
                    delta.remove_edge(u, v);
                }
                Some(delta)
            }
            None => None,
        };

        Ok(GraphDoc {
            graph,
            provenance,
            delta,
        })
    }
}

/// Serializes a graph document in canonical `bfw/graph` form: fixed key
/// order, edges one per line in the CSR's sorted `(u, v)` order, **no
/// trailing newline** (so `bfw graph export | …` pipes and `--out`
/// files land byte-identical once the shell's newline is accounted
/// for).
///
/// Canonical means `export_json(&import_json(&export_json(d))?)` equals
/// `export_json(d)` byte for byte — streams directly into one `String`,
/// so a 10⁶-node topology exports without building an intermediate
/// [`JsonValue`].
pub fn export_json(doc: &GraphDoc) -> String {
    let g = &doc.graph;
    let mut out = String::with_capacity(96 + 16 * g.edge_count());
    out.push_str("{\n  \"format\": \"bfw/graph\",\n");
    let version = Envelope::current_version("graph");
    let _ = writeln!(out, "  \"version\": {version},");
    let _ = writeln!(out, "  \"nodes\": {},", g.node_count());
    if g.edge_count() == 0 {
        out.push_str("  \"edges\": [],\n");
    } else {
        out.push_str("  \"edges\": [\n");
        let mut first = true;
        for (u, v) in g.edges() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(out, "    [{}, {}]", u.index(), v.index());
        }
        out.push_str("\n  ],\n");
    }
    let provenance = doc
        .provenance
        .as_ref()
        .map_or(JsonValue::Null, ToJson::to_json_value);
    let _ = writeln!(out, "  \"provenance\": {},", provenance.render());
    let overlay = doc.delta.as_ref().map_or(JsonValue::Null, delta_to_json);
    let _ = write!(out, "  \"overlay\": {}\n}}", overlay.render());
    out
}

/// Parses and fully validates a `bfw/graph` document.
///
/// # Errors
///
/// A [`SchemaError`] carrying the JSON-pointer path of the first
/// offense (malformed JSON reports at the document root).
pub fn import_json(text: &str) -> Result<GraphDoc, SchemaError> {
    let value = JsonValue::parse(text).map_err(|e| SchemaError::root(e.to_string()))?;
    GraphDoc::from_json_value(&Doc::root(&value))
}

/// What [`validate_json`] reports about a well-formed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSummary {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Generator family, when provenance is present.
    pub family: Option<String>,
}

impl std::fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bfw/graph, {} nodes, {} edges", self.nodes, self.edges)?;
        self.family
            .as_ref()
            .map_or(Ok(()), |family| write!(f, ", family {family}"))
    }
}

/// Validates a `bfw/graph` document (envelope, structure, and full
/// graph construction — self-loops, duplicate edges, range checks).
///
/// # Errors
///
/// A [`SchemaError`] naming the first offending path.
pub fn validate_json(text: &str) -> Result<GraphSummary, SchemaError> {
    let doc = import_json(text)?;
    Ok(GraphSummary {
        nodes: doc.graph.node_count(),
        edges: doc.graph.edge_count(),
        family: doc.provenance.map(|p| p.family),
    })
}

/// Serializes a graph as an edge-list document (see module docs).
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", g.node_count(), g.edge_count());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u.index(), v.index());
    }
    out
}

/// Parses an edge-list document (see module docs) into a [`Graph`].
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed input, and the usual
/// construction errors ([`GraphError::SelfLoop`],
/// [`GraphError::DuplicateEdge`], [`GraphError::NodeOutOfRange`]) if the
/// edge data is invalid.
pub fn parse_edge_list(text: &str) -> Result<Graph, GraphError> {
    let mut meaningful = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (header_line, header) = meaningful.next().ok_or_else(|| GraphError::Parse {
        line: 1,
        message: "missing header line \"<node_count> <edge_count>\"".to_owned(),
    })?;
    let (n, m) = parse_pair::<usize>(header, header_line, "header")?;

    let mut edges = Vec::with_capacity(m);
    for (line_no, line) in meaningful {
        if edges.len() == m {
            return Err(GraphError::Parse {
                line: line_no,
                message: format!("more than the {m} edges announced in the header"),
            });
        }
        let (u, v) = parse_pair::<u32>(line, line_no, "edge")?;
        edges.push((u, v));
    }
    if edges.len() != m {
        return Err(GraphError::Parse {
            line: text.lines().count().max(1),
            message: format!("expected {m} edges, found {}", edges.len()),
        });
    }
    Graph::from_edges(n, edges)
}

fn parse_pair<T: std::str::FromStr>(
    line: &str,
    line_no: usize,
    what: &str,
) -> Result<(T, T), GraphError> {
    let mut it = line.split_whitespace();
    let parse = |tok: Option<&str>| -> Result<T, GraphError> {
        tok.ok_or_else(|| GraphError::Parse {
            line: line_no,
            message: format!("{what} line needs two integers, got \"{line}\""),
        })?
        .parse::<T>()
        .map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("invalid integer in {what} line \"{line}\""),
        })
    };
    let a = parse(it.next())?;
    let b = parse(it.next())?;
    if it.next().is_some() {
        return Err(GraphError::Parse {
            line: line_no,
            message: format!("trailing tokens in {what} line \"{line}\""),
        });
    }
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trip_families() {
        for g in [
            generators::path(6),
            generators::cycle(5),
            generators::complete(4),
            generators::star(7),
            Graph::from_edges(3, []).unwrap(),
        ] {
            let text = to_edge_list(&g);
            assert_eq!(parse_edge_list(&text).unwrap(), g);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\n3 2\n0 1\n# middle\n1 2\n\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn missing_header() {
        let err = parse_edge_list("# only comments\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn bad_integer() {
        let err = parse_edge_list("2 1\n0 x\n").unwrap_err();
        assert!(err.to_string().contains("invalid integer"));
    }

    #[test]
    fn wrong_edge_count_too_few() {
        let err = parse_edge_list("3 2\n0 1\n").unwrap_err();
        assert!(err.to_string().contains("expected 2 edges"));
    }

    #[test]
    fn wrong_edge_count_too_many() {
        let err = parse_edge_list("3 1\n0 1\n1 2\n").unwrap_err();
        assert!(err.to_string().contains("more than the 1 edges"));
    }

    #[test]
    fn trailing_tokens_rejected() {
        let err = parse_edge_list("2 1\n0 1 9\n").unwrap_err();
        assert!(err.to_string().contains("trailing tokens"));
    }

    #[test]
    fn construction_errors_propagate() {
        assert!(matches!(
            parse_edge_list("2 1\n0 0\n").unwrap_err(),
            GraphError::SelfLoop { node: 0 }
        ));
        assert!(matches!(
            parse_edge_list("2 2\n0 1\n1 0\n").unwrap_err(),
            GraphError::DuplicateEdge { .. }
        ));
        assert!(matches!(
            parse_edge_list("2 1\n0 5\n").unwrap_err(),
            GraphError::NodeOutOfRange { .. }
        ));
    }

    #[test]
    fn single_node_round_trip() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(parse_edge_list(&to_edge_list(&g)).unwrap(), g);
    }

    #[test]
    fn json_export_is_byte_identical_after_round_trip() {
        let mut delta = TopologyDelta::new();
        delta.remove_edge(NodeId::new(0), NodeId::new(1));
        delta.add_edge(NodeId::new(2), NodeId::new(0));
        let doc = GraphDoc {
            graph: generators::cycle(5),
            provenance: Some(Provenance::new("cycle", [("n", 5u64)], None)),
            delta: Some(delta),
        };
        let text = export_json(&doc);
        let back = import_json(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(export_json(&back), text);
        // Canonical export parses to the same value ToJson builds.
        assert_eq!(
            bfw_stats::JsonValue::parse(&text).unwrap(),
            doc.to_json_value()
        );
    }

    #[test]
    fn json_export_bytes_are_pinned() {
        let doc = GraphDoc {
            graph: generators::path(3),
            provenance: Some(Provenance::new("path", [("n", 3u64)], Some(7))),
            delta: None,
        };
        assert_eq!(
            export_json(&doc),
            "{\n  \"format\": \"bfw/graph\",\n  \"version\": 1,\n  \"nodes\": 3,\n  \"edges\": [\n    [0, 1],\n    [1, 2]\n  ],\n  \"provenance\": {\"family\":\"path\",\"params\":{\"n\":3},\"seed\":7},\n  \"overlay\": null\n}"
        );
        assert!(!export_json(&doc).ends_with('\n'));
    }

    #[test]
    fn json_round_trips_every_family() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for g in [
            generators::path(1),
            generators::cycle(9),
            generators::complete(5),
            generators::torus(3, 4),
            generators::hypercube(3),
            generators::preferential_attachment(40, 2, &mut rng),
            generators::power_law_configuration(40, 2.5, &mut rng),
        ] {
            let doc = GraphDoc::plain(g);
            let text = export_json(&doc);
            let back = import_json(&text).unwrap();
            assert_eq!(back, doc);
            assert_eq!(export_json(&back), text);
        }
    }

    #[test]
    fn json_validate_reports_summary() {
        let doc = GraphDoc {
            graph: generators::star(6),
            provenance: Some(Provenance::new("star", [("n", 6u64)], None)),
            delta: None,
        };
        let summary = validate_json(&export_json(&doc)).unwrap();
        assert_eq!(
            summary,
            GraphSummary {
                nodes: 6,
                edges: 5,
                family: Some("star".to_owned()),
            }
        );
    }

    #[test]
    fn json_import_rejects_with_pointer_paths() {
        let cases = [
            (r#"{"format": "bfw/graph", "version": 1, "nodes": 3}"#, ""),
            (
                r#"{"format": "bfw/scenario-report", "version": 1, "nodes": 3, "edges": []}"#,
                "",
            ),
            (
                r#"{"format": "bfw/graph", "version": 1, "nodes": 3, "edges": [[0]]}"#,
                "/edges/0",
            ),
            (
                r#"{"format": "bfw/graph", "version": 1, "nodes": 3, "edges": [[0, 5]]}"#,
                "/edges/0/1",
            ),
            (
                r#"{"format": "bfw/graph", "version": 1, "nodes": 3, "edges": [[1, 1]]}"#,
                "/edges",
            ),
            (
                r#"{"format": "bfw/graph", "version": 1, "nodes": 3, "edges": [[0, 1], [1, 0]]}"#,
                "/edges",
            ),
            (
                r#"{"format": "bfw/graph", "version": 1, "nodes": 0, "edges": []}"#,
                "/nodes",
            ),
            // Past the build limit: refused before anything node-sized
            // is allocated.
            (
                r#"{"format": "bfw/graph", "version": 1, "nodes": 67108865, "edges": []}"#,
                "/nodes",
            ),
            (
                r#"{"format": "bfw/graph", "version": 1, "nodes": 4294967295, "edges": []}"#,
                "/nodes",
            ),
            (
                r#"{"format": "bfw/graph", "version": 1, "nodes": 3, "edges": [], "overlay": {"added": [[0, "x"]], "removed": []}}"#,
                "/overlay/added/0/1",
            ),
        ];
        for (text, pointer) in cases {
            let err = import_json(text).unwrap_err();
            assert_eq!(err.pointer(), pointer, "{text} -> {err}");
        }
        // Malformed JSON reports at the root with the parser's message.
        let err = import_json("{not json").unwrap_err();
        assert_eq!(err.pointer(), "");
        assert!(err.message().contains("json:"), "{err}");
    }

    #[test]
    fn json_import_accepts_missing_optional_fields() {
        // provenance/overlay may be absent entirely, not just null.
        let text = r#"{"format": "bfw/graph", "version": 1, "nodes": 2, "edges": [[0, 1]]}"#;
        let doc = import_json(text).unwrap();
        assert!(doc.provenance.is_none());
        assert!(doc.delta.is_none());
        assert_eq!(doc.graph.edge_count(), 1);
    }
}
