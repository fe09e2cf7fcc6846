use bfw_graph::GraphSpec;

/// The standard small suite used by Table 1 and the convergence
/// experiments.
pub fn standard_suite(quick: bool) -> Vec<GraphSpec> {
    let mut suite = vec![
        GraphSpec::Clique(16),
        GraphSpec::Star(16),
        GraphSpec::Cycle(16),
        GraphSpec::Path(16),
        GraphSpec::Grid(4, 4),
        GraphSpec::Tree(2, 3),
        GraphSpec::ErdosRenyi(16, 300, 7),
    ];
    if !quick {
        suite.extend([
            GraphSpec::Clique(64),
            GraphSpec::Cycle(64),
            GraphSpec::Path(64),
            GraphSpec::Grid(8, 8),
            GraphSpec::Hypercube(6),
            GraphSpec::RandomTree(64, 11),
            GraphSpec::Barbell(16, 8),
            GraphSpec::ErdosRenyi(64, 120, 7),
        ]);
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::algo;

    #[test]
    fn standard_suite_is_connected_and_ordered() {
        for quick in [true, false] {
            let suite = standard_suite(quick);
            assert!(!suite.is_empty());
            for spec in suite {
                assert!(algo::is_connected(&spec.build()), "{spec}");
            }
        }
        assert!(standard_suite(false).len() > standard_suite(true).len());
    }
}
