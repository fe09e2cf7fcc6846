//! Graph algorithms: BFS, distances, diameter, connectivity, degrees.
//!
//! The flow theory of the paper (Section 3) constantly reasons about
//! `dis(u, v)` and the diameter `D`; this module supplies exact
//! single-source BFS, all-pairs distance oracles, exact and estimated
//! diameters, and connectivity checks used to validate workloads.

mod bfs;
mod connectivity;
mod degree;
mod diameter;
mod distance;
mod rcm;
mod union_find;

pub use bfs::{bfs_distances, distance, eccentricity, UNREACHABLE};
pub use connectivity::{connected_components, is_connected, ComponentLabels};
pub use degree::{degree_stats, DegreeStats};
pub use diameter::{
    diameter, diameter_two_sweep_lower_bound, diameter_work, radius, MAX_DIAMETER_WORK,
};
pub use distance::DistanceMatrix;
pub use rcm::{bandwidth, reverse_cuthill_mckee};
pub use union_find::UnionFind;
