//! Compact undirected graphs, generators and algorithms.
//!
//! This crate is the topology substrate for the reproduction of
//! *"Minimalist Leader Election Under Weak Communication"* (Vacus &
//! Ziccardi, PODC 2025). The paper analyses the BFW protocol on an
//! arbitrary undirected connected graph `G = (V, E)`; this crate provides
//! that `G`:
//!
//! * [`Graph`] — a validated, immutable CSR (compressed sparse row)
//!   adjacency structure,
//! * [`GraphBuilder`] — incremental construction,
//! * [`generators`] — the graph families used throughout the experiments
//!   (paths, cycles, cliques, stars, grids, tori, hypercubes, trees,
//!   Erdős–Rényi, preferential attachment, power-law configuration,
//!   random geometric, barbells, …),
//! * [`GraphSpec`] — the workload grammar (`cycle:32`, `rr:1000:4:7`)
//!   that the CLI, the scenario TOML and every bench row name their
//!   graphs in, and [`Topology`], the form a simulation runs on,
//! * [`algo`] — BFS, diameter, connectivity and distance oracles,
//! * [`io`] — the versioned `bfw/graph` JSON interchange format
//!   (topology + generator provenance + overlay deltas) plus a
//!   plain-text edge list.
//!
//! # Example
//!
//! ```
//! use bfw_graph::{Graph, NodeId, generators, algo};
//!
//! // The workload of the paper's Section 5 discussion: a long path.
//! let g = generators::path(64);
//! assert_eq!(g.node_count(), 64);
//! assert_eq!(algo::diameter(&g), Some(63));
//! assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
mod builder;
mod error;
pub mod generators;
mod graph;
pub mod io;
mod node;
mod overlay;
mod topology;
mod wordgraph;
mod workloads;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{Edges, Graph, Nodes};
pub use node::NodeId;
pub use overlay::{OverlayGraph, OverlayNeighbors, TopologyDelta};
pub use topology::Topology;
pub use wordgraph::{words_for, Relabeling, WordGraph};
pub use workloads::{GraphSpec, WorkloadError, MAX_NODES};
