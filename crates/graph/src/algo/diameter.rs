use super::bfs::{bfs_distances, UNREACHABLE};
use crate::{Graph, NodeId};

/// The most all-pairs BFS work, [`diameter_work`] adjacency steps,
/// that the workspace spends on an exact [`diameter`]: 6–12 s on a
/// 2-core x86 host. `rr:10000:4:S` (≈5·10⁸) fits; `cycle:10000000`
/// (≈3·10¹⁴, hours) does not.
pub const MAX_DIAMETER_WORK: u64 = 1 << 31;

/// The work of [`diameter`] on `nodes` nodes and `edges` edges: one BFS
/// per node, n · (n + 2m) adjacency steps. Computed in `f64`, so it
/// saturates instead of overflowing.
pub fn diameter_work(nodes: f64, edges: f64) -> f64 {
    nodes * (nodes + 2.0 * edges)
}

/// Computes the exact diameter `D` by all-pairs BFS (`O(n·m)`).
///
/// Returns `None` for disconnected graphs and for the empty graph;
/// a single node has diameter 0.
///
/// # Example
///
/// ```
/// use bfw_graph::{generators, algo};
///
/// assert_eq!(algo::diameter(&generators::cycle(10)), Some(5));
/// assert_eq!(algo::diameter(&generators::complete(10)), Some(1));
/// ```
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.is_empty() {
        return None;
    }
    let mut best = 0u32;
    for u in g.nodes() {
        let dist = bfs_distances(g, u);
        for d in dist {
            if d == UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// Computes the exact radius (minimum eccentricity) by all-pairs BFS.
///
/// Returns `None` for disconnected or empty graphs.
pub fn radius(g: &Graph) -> Option<u32> {
    if g.is_empty() {
        return None;
    }
    let mut best = u32::MAX;
    for u in g.nodes() {
        let mut ecc = 0u32;
        for d in bfs_distances(g, u) {
            if d == UNREACHABLE {
                return None;
            }
            ecc = ecc.max(d);
        }
        best = best.min(ecc);
    }
    Some(best)
}

/// Estimates the diameter with the classic two-sweep heuristic: BFS from
/// `start`, then BFS from the farthest node found. The result is a lower
/// bound on the true diameter (and exact on trees).
///
/// Returns `None` for disconnected or empty graphs.
///
/// # Example
///
/// ```
/// use bfw_graph::{generators, algo, NodeId};
///
/// let g = generators::balanced_tree(2, 5);
/// let lb = algo::diameter_two_sweep_lower_bound(&g, NodeId::new(0));
/// assert_eq!(lb, algo::diameter(&g)); // exact on trees
/// ```
pub fn diameter_two_sweep_lower_bound(g: &Graph, start: NodeId) -> Option<u32> {
    if g.is_empty() {
        return None;
    }
    let first = bfs_distances(g, start);
    let mut far = start;
    let mut far_d = 0;
    for (i, &d) in first.iter().enumerate() {
        if d == UNREACHABLE {
            return None;
        }
        if d > far_d {
            far_d = d;
            far = NodeId::new(i);
        }
    }
    let second = bfs_distances(g, far);
    second.iter().copied().max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn exact_diameters() {
        assert_eq!(diameter(&generators::path(8)), Some(7));
        assert_eq!(diameter(&generators::star(5)), Some(2));
        assert_eq!(diameter(&generators::grid(4, 4)), Some(6));
        assert_eq!(diameter(&generators::hypercube(5)), Some(5));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
    }

    #[test]
    fn diameter_empty_is_none() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn radius_values() {
        assert_eq!(radius(&generators::path(7)), Some(3));
        assert_eq!(radius(&generators::star(9)), Some(1));
        assert_eq!(radius(&generators::cycle(8)), Some(4));
    }

    #[test]
    fn two_sweep_is_lower_bound() {
        for g in [
            generators::path(20),
            generators::cycle(17),
            generators::grid(5, 7),
            generators::complete(9),
            generators::barbell(4, 6),
        ] {
            let exact = diameter(&g).unwrap();
            let lb = diameter_two_sweep_lower_bound(&g, NodeId::new(0)).unwrap();
            assert!(lb <= exact);
            // Two-sweep is known to be exact on these simple families.
            assert!(lb >= exact / 2);
        }
    }

    #[test]
    fn two_sweep_exact_on_trees() {
        for depth in 1..5 {
            let g = generators::balanced_tree(3, depth);
            assert_eq!(
                diameter_two_sweep_lower_bound(&g, NodeId::new(0)),
                diameter(&g)
            );
        }
    }

    #[test]
    fn two_sweep_disconnected_is_none() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(diameter_two_sweep_lower_bound(&g, NodeId::new(0)), None);
    }
}
