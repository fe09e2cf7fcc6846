//! Property-based tests for graph construction, generators and
//! algorithms.

use bfw_graph::{algo, generators, io, Graph, GraphBuilder, NodeId, OverlayGraph, TopologyDelta};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Strategy: a small random simple graph as (n, unique normalized edges).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            let pairs = proptest::collection::vec((0..n as u32, 0..n as u32), 0..4 * n);
            (Just(n), pairs)
        })
        .prop_map(|(n, pairs)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v).expect("in-range edge");
                }
            }
            b.build()
        })
}

proptest! {
    #[test]
    fn csr_degree_sum_is_twice_edges(g in arb_graph(24)) {
        let total: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(total, 2 * g.edge_count());
        prop_assert_eq!(total, g.adjacency_len());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph(24)) {
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn edges_iterator_agrees_with_has_edge(g in arb_graph(16)) {
        let listed: Vec<_> = g.edges().collect();
        prop_assert_eq!(listed.len(), g.edge_count());
        for (u, v) in listed {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn edge_list_round_trip(g in arb_graph(20)) {
        let text = io::to_edge_list(&g);
        let back = io::parse_edge_list(&text).expect("serialized graph must parse");
        prop_assert_eq!(back, g);
    }

    #[test]
    fn bfs_distances_respect_edges(g in arb_graph(20)) {
        // Every edge endpoint pair differs by at most 1 in BFS distance
        // from any source (the 1-Lipschitz property Lemma 11 relies on).
        let src = NodeId::new(0);
        let dist = algo::bfs_distances(&g, src);
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u.index()], dist[v.index()]);
            if du != algo::UNREACHABLE && dv != algo::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // If one endpoint is reachable, its neighbor must be too.
                prop_assert_eq!(du, dv);
            }
        }
    }

    #[test]
    fn component_labels_consistent_with_bfs(g in arb_graph(20)) {
        let cc = algo::connected_components(&g);
        let dist = algo::bfs_distances(&g, NodeId::new(0));
        for u in g.nodes() {
            let reachable = dist[u.index()] != algo::UNREACHABLE;
            prop_assert_eq!(reachable, cc.label(u.index()) == cc.label(0));
        }
    }

    #[test]
    fn distance_matrix_matches_single_bfs(g in arb_graph(14)) {
        let dm = algo::DistanceMatrix::new(&g);
        for u in g.nodes() {
            let bfs = algo::bfs_distances(&g, u);
            prop_assert_eq!(dm.row(u), bfs.as_slice());
        }
    }

    #[test]
    fn two_sweep_never_exceeds_diameter(g in arb_graph(16)) {
        if let Some(d) = algo::diameter(&g) {
            let lb = algo::diameter_two_sweep_lower_bound(&g, NodeId::new(0))
                .expect("connected graph must give a bound");
            prop_assert!(lb <= d);
        }
    }

    #[test]
    fn random_tree_always_tree(n in 1usize..60, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_tree(n, &mut rng);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n.saturating_sub(1));
        prop_assert!(algo::is_connected(&g));
    }

    #[test]
    fn erdos_renyi_edge_count_in_range(n in 2usize..24, p in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng);
        prop_assert!(g.edge_count() <= n * (n - 1) / 2);
        prop_assert_eq!(g.node_count(), n);
    }

    #[test]
    fn generator_diameter_formulas(n in 3usize..24) {
        prop_assert_eq!(algo::diameter(&generators::path(n)), Some(n as u32 - 1));
        prop_assert_eq!(algo::diameter(&generators::cycle(n)), Some(n as u32 / 2));
        prop_assert_eq!(algo::diameter(&generators::complete(n)), Some(1));
        prop_assert_eq!(algo::diameter(&generators::star(n)), Some(2));
    }

    #[test]
    fn grid_diameter_formula(r in 1usize..7, c in 1usize..7) {
        prop_assert_eq!(
            algo::diameter(&generators::grid(r, c)),
            Some((r + c - 2) as u32)
        );
    }

    #[test]
    fn builder_result_matches_from_edges(n in 2usize..16, seed in any::<u64>()) {
        // Generate unique edges, feed them through both construction
        // paths, expect identical graphs.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, 0.4, &mut rng);
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.as_u32(), v.as_u32())).collect();
        let via_from = Graph::from_edges(n, edges.iter().copied()).expect("unique edges");
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(v, u).expect("in range"); // reversed on purpose
        }
        prop_assert_eq!(via_from, b.build());
    }

    /// `export → import → validate` is the identity on every generator
    /// family, provenance and overlay included, and the canonical
    /// export is a byte fixpoint.
    #[test]
    fn json_export_import_identity_on_every_family(
        family in 0usize..10,
        n in 4usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Provenance seeds live in JSON numbers: exact up to 2^53.
        let seed = seed & ((1 << 53) - 1);
        let (graph, provenance) = match family {
            0 => (generators::path(n), io::Provenance::new("path", [("n", n as u64)], None)),
            1 => (generators::cycle(n), io::Provenance::new("cycle", [("n", n as u64)], None)),
            2 => (generators::complete(n), io::Provenance::new("clique", [("n", n as u64)], None)),
            3 => (generators::star(n), io::Provenance::new("star", [("n", n as u64)], None)),
            4 => (generators::grid(3, n), io::Provenance::new("grid", [("rows", 3), ("cols", n as u64)], None)),
            5 => (generators::torus(3, n.max(3)), io::Provenance::new("torus", [("rows", 3), ("cols", n.max(3) as u64)], None)),
            6 => (generators::random_tree(n, &mut rng), io::Provenance::new("random-tree", [("n", n as u64)], Some(seed))),
            7 => (generators::erdos_renyi(n, 0.3, &mut rng), io::Provenance::new("er", [("n", n as u64), ("p_milli", 300)], Some(seed))),
            8 => (generators::preferential_attachment(n, 2, &mut rng), io::Provenance::new("ba", [("n", n as u64), ("m", 2)], Some(seed))),
            _ => (generators::power_law_configuration(n, 2.5, &mut rng), io::Provenance::new("plaw", [("n", n as u64), ("gamma_milli", 2500)], Some(seed))),
        };
        // Exercise the overlay arm too: record one removal of an
        // existing edge and one (possibly re-)addition.
        let mut delta = TopologyDelta::new();
        if let Some((u, v)) = graph.edges().next() {
            delta.remove_edge(u, v);
            delta.add_edge(u, v);
        }
        let doc = io::GraphDoc {
            graph,
            provenance: Some(provenance),
            delta: if delta.is_empty() { None } else { Some(delta) },
        };
        let text = io::export_json(&doc);
        let back = io::import_json(&text).expect("canonical export must import");
        prop_assert_eq!(&back, &doc);
        // Byte fixpoint: re-export is identical.
        prop_assert_eq!(io::export_json(&back), text);
        // And validate agrees with the document.
        let summary = io::validate_json(&text).expect("canonical export must validate");
        prop_assert_eq!(summary.nodes, doc.graph.node_count());
        prop_assert_eq!(summary.edges, doc.graph.edge_count());
        prop_assert_eq!(summary.family, doc.provenance.map(|p| p.family));
    }

    /// Any sequence of valid add/remove deltas applied to an overlay,
    /// followed by compaction, equals a fresh CSR build of the final
    /// edge set: same sorted neighbors, same degrees, same edge count.
    /// A model edge set of normalized `(min, max)` pairs decides
    /// validity (self-loops, duplicates and missing edges never become
    /// deltas, the scenario engine's contract with the overlay) and is
    /// the reference; a delta is checked both before and after
    /// compaction, and a whole partition cut is applied as one batch
    /// mid-sequence.
    #[test]
    fn overlay_deltas_plus_compaction_equal_fresh_build(
        n in 4usize..20,
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 0..80),
        cut_seed in any::<u64>(),
    ) {
        let base = generators::cycle(n);
        let mut model: BTreeSet<(u32, u32)> =
            base.edges().map(|(u, v)| (u.as_u32(), v.as_u32())).collect();
        let mut overlay = OverlayGraph::from_graph(base);

        let check = |overlay: &OverlayGraph, model: &BTreeSet<(u32, u32)>| -> Result<(), TestCaseError> {
            let fresh = Graph::from_edges(n, model.iter().copied()).expect("the model is simple");
            prop_assert_eq!(overlay.edge_count(), fresh.edge_count());
            for u in fresh.nodes() {
                let via_overlay: Vec<NodeId> = overlay.neighbors(u).collect();
                prop_assert_eq!(&via_overlay[..], fresh.neighbors(u), "node {}", u);
                prop_assert_eq!(overlay.degree(u), fresh.degree(u));
            }
            prop_assert_eq!(&overlay.to_graph(), &fresh);
            Ok(())
        };

        let mid = ops.len() / 2;
        for (k, (a, b, add)) in ops.into_iter().enumerate() {
            let u = NodeId::new((a % n as u64) as usize);
            let v = NodeId::new((b % n as u64) as usize);
            let key = (u.min(v).as_u32(), u.max(v).as_u32());
            let mut delta = TopologyDelta::new();
            if u != v && add && model.insert(key) {
                delta.add_edge(u, v);
            } else if u != v && !add && model.remove(&key) {
                delta.remove_edge(u, v);
            }
            if !delta.is_empty() {
                overlay.apply(&delta);
            }
            if k == mid {
                // Partition: remove every edge crossing a cut in one
                // batch, as Partition events do.
                let side = |i: u32| (cut_seed >> (i % 64)) & 1 == 1;
                let crossing: Vec<(u32, u32)> =
                    model.iter().copied().filter(|&(x, y)| side(x) != side(y)).collect();
                if !crossing.is_empty() {
                    let mut cut = TopologyDelta::new();
                    for &(x, y) in &crossing {
                        model.remove(&(x, y));
                        cut.remove_edge(NodeId::from_u32(x), NodeId::from_u32(y));
                    }
                    overlay.apply(&cut);
                }
                check(&overlay, &model)?;
            }
        }
        check(&overlay, &model)?;
        overlay.compact();
        prop_assert_eq!(overlay.pending_edits(), 0);
        check(&overlay, &model)?;
    }
}
