use std::error::Error;
use std::fmt;

/// Errors produced when constructing or parsing a [`Graph`](crate::Graph).
///
/// # Example
///
/// ```
/// use bfw_graph::{Graph, GraphError};
///
/// let err = Graph::from_edges(2, [(0, 0)]).unwrap_err();
/// assert!(matches!(err, GraphError::SelfLoop { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint is not a valid node index for the graph.
    NodeOutOfRange {
        /// The offending endpoint.
        node: u32,
        /// The number of nodes in the graph under construction.
        node_count: usize,
    },
    /// An edge connects a node to itself; the beeping model is defined on
    /// simple graphs.
    SelfLoop {
        /// The node with the self-loop.
        node: u32,
    },
    /// The same undirected edge was supplied twice.
    DuplicateEdge {
        /// Smaller endpoint of the duplicated edge.
        u: u32,
        /// Larger endpoint of the duplicated edge.
        v: u32,
    },
    /// A mutation referenced an edge that does not exist (see
    /// [`Topology::check_remove_edge`](crate::Topology::check_remove_edge)).
    MissingEdge {
        /// Smaller endpoint of the missing edge.
        u: u32,
        /// Larger endpoint of the missing edge.
        v: u32,
    },
    /// A textual graph description could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node {node} out of range for graph with {node_count} nodes"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::MissingEdge { u, v } => write!(f, "missing edge ({u}, {v})"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            GraphError::NodeOutOfRange {
                node: 9,
                node_count: 4
            }
            .to_string(),
            "node 9 out of range for graph with 4 nodes"
        );
        assert_eq!(
            GraphError::SelfLoop { node: 2 }.to_string(),
            "self-loop at node 2"
        );
        assert_eq!(
            GraphError::DuplicateEdge { u: 1, v: 3 }.to_string(),
            "duplicate edge (1, 3)"
        );
        assert_eq!(
            GraphError::Parse {
                line: 7,
                message: "bad token".into()
            }
            .to_string(),
            "parse error at line 7: bad token"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
