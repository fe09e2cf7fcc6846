use bfw_graph::{algo, generators, Graph};
use bfw_sim::Topology;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A named, reproducible graph workload.
///
/// Specs parse from compact strings (`"path:64"`, `"grid:8x8"`,
/// `"er:100:0.1:7"`), which the CLI and the experiment index use to
/// identify workloads unambiguously.
///
/// # Example
///
/// ```
/// use bfw_bench::GraphSpec;
///
/// let spec: GraphSpec = "cycle:12".parse()?;
/// let g = spec.build();
/// assert_eq!(g.node_count(), 12);
/// assert_eq!(spec.to_string(), "cycle:12");
/// # Ok::<(), bfw_bench::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// `path:n`
    Path(usize),
    /// `cycle:n`
    Cycle(usize),
    /// `clique:n`
    Clique(usize),
    /// `star:n`
    Star(usize),
    /// `grid:r x c`
    Grid(usize, usize),
    /// `torus:r x c`
    Torus(usize, usize),
    /// `hypercube:dim`
    Hypercube(u32),
    /// `tree:arity:depth`
    Tree(usize, u32),
    /// `randtree:n:seed`
    RandomTree(usize, u64),
    /// `er:n:p(milli):seed` — connected Erdős–Rényi via rejection.
    ErdosRenyi(usize, u32, u64),
    /// `barbell:k:bridge`
    Barbell(usize, usize),
    /// `ba:n:m:seed` — Barabási–Albert preferential attachment.
    Ba(usize, usize, u64),
    /// `plaw:n:gamma(milli):seed` — power-law configuration model.
    PowerLaw(usize, u32, u64),
    /// `geo:n:radius(milli):seed` — unit-disk geometric graph,
    /// bridged to connectivity.
    Geo(usize, u32, u64),
}

/// Tries [`generators::erdos_renyi_connected`] makes before an `er`
/// spec is reported as too sparse to connect.
const ER_CONNECT_TRIES: usize = 1000;

impl GraphSpec {
    /// Builds the graph (deterministic: randomized families embed their
    /// seed in the spec).
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_build`] fails.
    pub fn build(&self) -> Graph {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the graph, or reports an `er` spec whose rejection
    /// sampling found no connected graph (the one family that can fail
    /// after parsing: its domain is checked by the parser, its
    /// connectivity only by sampling).
    ///
    /// # Errors
    ///
    /// Returns an error naming the connectivity threshold to raise `p`
    /// above.
    pub fn try_build(&self) -> Result<Graph, WorkloadError> {
        Ok(match *self {
            GraphSpec::Path(n) => generators::path(n),
            GraphSpec::Cycle(n) => generators::cycle(n),
            GraphSpec::Clique(n) => generators::complete(n),
            GraphSpec::Star(n) => generators::star(n),
            GraphSpec::Grid(r, c) => generators::grid(r, c),
            GraphSpec::Torus(r, c) => generators::torus(r, c),
            GraphSpec::Hypercube(d) => generators::hypercube(d),
            GraphSpec::Tree(a, d) => generators::balanced_tree(a, d),
            GraphSpec::RandomTree(n, seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                generators::random_tree(n, &mut rng)
            }
            GraphSpec::ErdosRenyi(n, p_milli, seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let p = f64::from(p_milli) / 1000.0;
                generators::erdos_renyi_connected(n, p, ER_CONNECT_TRIES, &mut rng).ok_or_else(
                    || {
                        WorkloadError::new(format!(
                            "{self}: no connected sample in {ER_CONNECT_TRIES} tries; \
                             raise p (milli) above the threshold ln(n)/n ≈ {:.0}",
                            (n as f64).ln() / n as f64 * 1000.0
                        ))
                    },
                )?
            }
            GraphSpec::Barbell(k, b) => generators::barbell(k, b),
            GraphSpec::Ba(n, m, seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                generators::preferential_attachment(n, m, &mut rng)
            }
            GraphSpec::PowerLaw(n, gamma_milli, seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                generators::power_law_configuration(n, f64::from(gamma_milli) / 1000.0, &mut rng)
            }
            GraphSpec::Geo(n, radius_milli, seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                generators::random_geometric_connected(
                    n,
                    f64::from(radius_milli) / 1000.0,
                    &mut rng,
                )
            }
        })
    }

    /// The generator's precondition this spec violates, if any — the
    /// parser refuses such specs, so [`Self::build`] never reaches a
    /// generator assertion.
    fn domain_violation(&self) -> Option<&'static str> {
        match *self {
            GraphSpec::Path(0)
            | GraphSpec::Clique(0)
            | GraphSpec::Star(0)
            | GraphSpec::RandomTree(0, _)
            | GraphSpec::ErdosRenyi(0, _, _)
            | GraphSpec::Geo(0, _, _) => Some("needs n >= 1"),
            GraphSpec::Cycle(n) if n < 3 => Some("a cycle needs n >= 3"),
            GraphSpec::Grid(r, c) if r == 0 || c == 0 => Some("a grid needs rows and cols >= 1"),
            GraphSpec::Torus(r, c) if r < 3 || c < 3 => Some("a torus needs rows and cols >= 3"),
            GraphSpec::Hypercube(d) if !(1..=30).contains(&d) => {
                Some("the hypercube dimension must be in 1..=30")
            }
            GraphSpec::Tree(0, _) => Some("a tree needs arity >= 1"),
            GraphSpec::ErdosRenyi(_, p_milli, _) if p_milli > 1000 => {
                Some("the edge probability (milli) must be at most 1000")
            }
            GraphSpec::Barbell(k, _) if k < 2 => Some("a barbell needs cliques of k >= 2 nodes"),
            GraphSpec::Ba(n, m, _) if m == 0 || n <= m => {
                Some("preferential attachment needs m >= 1 and n > m")
            }
            GraphSpec::PowerLaw(n, _, _) if n < 3 => Some("a power-law graph needs n >= 3"),
            GraphSpec::PowerLaw(_, gamma_milli, _) if gamma_milli <= 1000 => {
                Some("the power-law exponent (milli) must exceed 1000")
            }
            _ => None,
        }
    }

    /// The generator provenance tag exported alongside the topology in
    /// `bfw/graph` documents (family name, parameters in the spec
    /// string's units, seed for randomized families).
    pub fn provenance(&self) -> bfw_graph::io::Provenance {
        use bfw_graph::io::Provenance;
        match *self {
            GraphSpec::Path(n) => Provenance::new("path", [("n", n as u64)], None),
            GraphSpec::Cycle(n) => Provenance::new("cycle", [("n", n as u64)], None),
            GraphSpec::Clique(n) => Provenance::new("clique", [("n", n as u64)], None),
            GraphSpec::Star(n) => Provenance::new("star", [("n", n as u64)], None),
            GraphSpec::Grid(r, c) => {
                Provenance::new("grid", [("rows", r as u64), ("cols", c as u64)], None)
            }
            GraphSpec::Torus(r, c) => {
                Provenance::new("torus", [("rows", r as u64), ("cols", c as u64)], None)
            }
            GraphSpec::Hypercube(d) => Provenance::new("hypercube", [("dim", u64::from(d))], None),
            GraphSpec::Tree(a, d) => {
                Provenance::new("tree", [("arity", a as u64), ("depth", u64::from(d))], None)
            }
            GraphSpec::RandomTree(n, seed) => {
                Provenance::new("randtree", [("n", n as u64)], Some(seed))
            }
            GraphSpec::ErdosRenyi(n, p_milli, seed) => Provenance::new(
                "er",
                [("n", n as u64), ("p_milli", u64::from(p_milli))],
                Some(seed),
            ),
            GraphSpec::Barbell(k, b) => {
                Provenance::new("barbell", [("k", k as u64), ("bridge", b as u64)], None)
            }
            GraphSpec::Ba(n, m, seed) => {
                Provenance::new("ba", [("n", n as u64), ("m", m as u64)], Some(seed))
            }
            GraphSpec::PowerLaw(n, gamma_milli, seed) => Provenance::new(
                "plaw",
                [("n", n as u64), ("gamma_milli", u64::from(gamma_milli))],
                Some(seed),
            ),
            GraphSpec::Geo(n, radius_milli, seed) => Provenance::new(
                "geo",
                [("n", n as u64), ("radius_milli", u64::from(radius_milli))],
                Some(seed),
            ),
        }
    }

    /// Returns the workload as a simulation [`Topology`], using the
    /// `O(n)`-per-round clique fast path where applicable (a `clique:n`
    /// spec never materializes its `Θ(n²)` edges).
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_topology`] fails.
    pub fn topology(&self) -> Topology {
        self.try_topology().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::topology`], reporting a failed build as
    /// [`Self::try_build`] does.
    ///
    /// # Errors
    ///
    /// Returns the error of [`Self::try_build`].
    pub fn try_topology(&self) -> Result<Topology, WorkloadError> {
        match *self {
            GraphSpec::Clique(n) => Ok(Topology::Clique(n)),
            _ => self.try_build().map(Topology::Graph),
        }
    }

    /// Returns the exact diameter of the built graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (specs always produce
    /// connected graphs).
    pub fn diameter(&self) -> u32 {
        match *self {
            // Avoid materializing large cliques.
            GraphSpec::Clique(0) => panic!("empty clique has no diameter"),
            GraphSpec::Clique(1) => 0,
            GraphSpec::Clique(_) => 1,
            _ => algo::diameter(&self.build()).expect("workload graphs are connected"),
        }
    }

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
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphSpec::Path(n) => write!(f, "path:{n}"),
            GraphSpec::Cycle(n) => write!(f, "cycle:{n}"),
            GraphSpec::Clique(n) => write!(f, "clique:{n}"),
            GraphSpec::Star(n) => write!(f, "star:{n}"),
            GraphSpec::Grid(r, c) => write!(f, "grid:{r}x{c}"),
            GraphSpec::Torus(r, c) => write!(f, "torus:{r}x{c}"),
            GraphSpec::Hypercube(d) => write!(f, "hypercube:{d}"),
            GraphSpec::Tree(a, d) => write!(f, "tree:{a}:{d}"),
            GraphSpec::RandomTree(n, s) => write!(f, "randtree:{n}:{s}"),
            GraphSpec::ErdosRenyi(n, p, s) => write!(f, "er:{n}:{p}:{s}"),
            GraphSpec::Barbell(k, b) => write!(f, "barbell:{k}:{b}"),
            GraphSpec::Ba(n, m, s) => write!(f, "ba:{n}:{m}:{s}"),
            GraphSpec::PowerLaw(n, g, s) => write!(f, "plaw:{n}:{g}:{s}"),
            GraphSpec::Geo(n, r, s) => write!(f, "geo:{n}:{r}:{s}"),
        }
    }
}

/// Error parsing a [`GraphSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    message: String,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid graph spec: {}", self.message)
    }
}

impl Error for WorkloadError {}

impl WorkloadError {
    fn new(message: impl Into<String>) -> Self {
        WorkloadError {
            message: message.into(),
        }
    }
}

impl FromStr for GraphSpec {
    type Err = WorkloadError;

    fn from_str(s: &str) -> Result<Self, WorkloadError> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let arity = match kind {
            "path" | "cycle" | "clique" | "star" | "grid" | "torus" | "hypercube" => 1,
            "tree" | "randtree" | "barbell" => 2,
            "er" | "ba" | "plaw" | "geo" => 3,
            other => return Err(WorkloadError::new(format!("unknown graph kind '{other}'"))),
        };
        if rest.len() != arity {
            return Err(WorkloadError::new(format!(
                "{kind}: expected {arity} argument(s), got {}",
                rest.len()
            )));
        }
        fn int<T: FromStr>(kind: &str, text: &str) -> Result<T, WorkloadError> {
            text.parse()
                .map_err(|_| WorkloadError::new(format!("{kind}: bad integer '{text}'")))
        }
        let dims = || -> Result<(usize, usize), WorkloadError> {
            let (r, c) = rest[0]
                .split_once('x')
                .ok_or_else(|| WorkloadError::new(format!("{kind}: expected RxC")))?;
            let r = r.parse().map_err(|_| WorkloadError::new("bad rows"))?;
            let c = c.parse().map_err(|_| WorkloadError::new("bad cols"))?;
            Ok((r, c))
        };
        let spec = match kind {
            "path" => GraphSpec::Path(int(kind, rest[0])?),
            "cycle" => GraphSpec::Cycle(int(kind, rest[0])?),
            "clique" => GraphSpec::Clique(int(kind, rest[0])?),
            "star" => GraphSpec::Star(int(kind, rest[0])?),
            "grid" => {
                let (r, c) = dims()?;
                GraphSpec::Grid(r, c)
            }
            "torus" => {
                let (r, c) = dims()?;
                GraphSpec::Torus(r, c)
            }
            "hypercube" => GraphSpec::Hypercube(int(kind, rest[0])?),
            "tree" => GraphSpec::Tree(int(kind, rest[0])?, int(kind, rest[1])?),
            "randtree" => GraphSpec::RandomTree(int(kind, rest[0])?, int(kind, rest[1])?),
            "barbell" => GraphSpec::Barbell(int(kind, rest[0])?, int(kind, rest[1])?),
            "er" => GraphSpec::ErdosRenyi(
                int(kind, rest[0])?,
                int(kind, rest[1])?,
                int(kind, rest[2])?,
            ),
            "ba" => GraphSpec::Ba(
                int(kind, rest[0])?,
                int(kind, rest[1])?,
                int(kind, rest[2])?,
            ),
            "plaw" => GraphSpec::PowerLaw(
                int(kind, rest[0])?,
                int(kind, rest[1])?,
                int(kind, rest[2])?,
            ),
            // "geo": the arity match refused every other kind.
            _ => GraphSpec::Geo(
                int(kind, rest[0])?,
                int(kind, rest[1])?,
                int(kind, rest[2])?,
            ),
        };
        match spec.domain_violation() {
            Some(rule) => Err(WorkloadError::new(format!("{s}: {rule}"))),
            None => Ok(spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in [
            "path:10",
            "cycle:12",
            "clique:8",
            "star:9",
            "grid:3x4",
            "torus:3x5",
            "hypercube:4",
            "tree:2:3",
            "randtree:20:7",
            "er:16:300:7",
            "barbell:4:2",
            "ba:32:2:7",
            "plaw:32:2500:7",
            "geo:64:250:7",
        ] {
            let spec: GraphSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s);
            let g = spec.build();
            assert!(g.node_count() > 0);
            assert!(algo::is_connected(&g), "{s} must be connected");
        }
    }

    #[test]
    fn parse_errors() {
        for s in [
            "", "wat:3", "path", "path:x", "grid:3", "grid:ax4", "path:1:2",
        ] {
            assert!(s.parse::<GraphSpec>().is_err(), "{s} should fail");
        }
        let e = "wat:3".parse::<GraphSpec>().unwrap_err();
        assert!(e.to_string().contains("unknown graph kind"));
    }

    /// Specs outside a generator's domain, each with the constraint the
    /// parser must name instead of letting the generator assert.
    const OUT_OF_DOMAIN: &[(&str, &str)] = &[
        ("cycle:2", "n >= 3"),
        ("torus:2x2", "rows and cols >= 3"),
        ("grid:0x5", "rows and cols >= 1"),
        ("hypercube:0", "1..=30"),
        ("hypercube:40", "1..=30"),
        ("ba:5:10:1", "n > m"),
        ("plaw:10:1000:1", "must exceed 1000"),
        ("tree:0:2", "arity >= 1"),
        ("barbell:1:0", "k >= 2"),
        ("geo:0:5:1", "n >= 1"),
        ("path:0", "n >= 1"),
        ("er:10:2000:1", "at most 1000"),
        ("hypercube:4294967297", "bad integer"),
    ];

    #[test]
    fn out_of_domain_specs_fail_to_parse() {
        for &(s, rule) in OUT_OF_DOMAIN {
            let e = s.parse::<GraphSpec>().expect_err(s).to_string();
            assert!(e.contains(rule), "{s}: {e}");
        }
        // The domain edges themselves parse and build.
        for s in [
            "cycle:3",
            "torus:3x3",
            "grid:1x1",
            "hypercube:1",
            "ba:2:1:1",
            "plaw:3:1001:1",
        ] {
            let spec: GraphSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(spec.build().node_count() > 0, "{s}");
        }
    }

    #[test]
    fn unconnectable_er_is_an_error_not_a_panic() {
        let spec: GraphSpec = "er:10:0:1".parse().unwrap();
        let e = spec.try_build().unwrap_err().to_string();
        assert!(
            e.contains("no connected sample") && e.contains("≈ 230"),
            "{e}"
        );
        assert_eq!(spec.try_topology().unwrap_err().to_string(), e);
        assert!(std::panic::catch_unwind(|| spec.build()).is_err());
    }

    #[test]
    fn diameters_match_families() {
        assert_eq!(GraphSpec::Path(10).diameter(), 9);
        assert_eq!(GraphSpec::Clique(10).diameter(), 1);
        assert_eq!(GraphSpec::Grid(3, 4).diameter(), 5);
    }

    #[test]
    fn standard_suite_is_connected_and_ordered() {
        for quick in [true, false] {
            let suite = GraphSpec::standard_suite(quick);
            assert!(!suite.is_empty());
            for spec in suite {
                assert!(algo::is_connected(&spec.build()), "{spec}");
            }
        }
        assert!(GraphSpec::standard_suite(false).len() > GraphSpec::standard_suite(true).len());
    }

    #[test]
    fn random_specs_are_reproducible() {
        let a = GraphSpec::RandomTree(30, 5).build();
        let b = GraphSpec::RandomTree(30, 5).build();
        assert_eq!(a, b);
        let c = GraphSpec::RandomTree(30, 6).build();
        assert_ne!(a, c);
        assert_eq!(
            GraphSpec::Ba(30, 2, 5).build(),
            GraphSpec::Ba(30, 2, 5).build()
        );
        assert_eq!(
            GraphSpec::PowerLaw(30, 2500, 5).build(),
            GraphSpec::PowerLaw(30, 2500, 5).build()
        );
        assert_eq!(
            GraphSpec::Geo(30, 250, 5).build(),
            GraphSpec::Geo(30, 250, 5).build()
        );
        assert_ne!(
            GraphSpec::Geo(30, 250, 5).build(),
            GraphSpec::Geo(30, 250, 6).build()
        );
    }

    #[test]
    fn provenance_names_each_family() {
        use bfw_graph::io::Provenance;
        let p = GraphSpec::Ba(64, 3, 7).provenance();
        assert_eq!(p, Provenance::new("ba", [("n", 64u64), ("m", 3)], Some(7)));
        let p = GraphSpec::Torus(8, 8).provenance();
        assert_eq!(p.family, "torus");
        assert_eq!(p.params(), [("cols".to_owned(), 8), ("rows".to_owned(), 8)]);
        assert_eq!(p.seed, None);
        // Every spec string's provenance family matches its spec kind.
        for s in [
            "path:10",
            "cycle:12",
            "clique:8",
            "star:9",
            "grid:3x4",
            "torus:3x5",
            "hypercube:4",
            "tree:2:3",
            "randtree:20:7",
            "er:16:300:7",
            "barbell:4:2",
            "ba:32:2:7",
            "plaw:32:2500:7",
            "geo:64:250:7",
        ] {
            let spec: GraphSpec = s.parse().unwrap();
            let family = spec.provenance().family;
            assert!(s.starts_with(&format!("{family}:")), "{s} vs {family}");
        }
    }
}
