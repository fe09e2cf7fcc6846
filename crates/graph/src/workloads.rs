//! The workload grammar: one compact string per reproducible graph.

use crate::io::Provenance;
use crate::{algo, generators, Graph, Topology};
use bfw_stats::did_you_mean;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A named, reproducible graph workload.
///
/// Specs parse from compact strings (`"path:64"`, `"grid:8x8"`,
/// `"er:100:120:7"`, `"rr:1000:4:7"`). The CLI, the scenario TOML and
/// every bench row name their graph this way, so each name rebuilds
/// its graph.
///
/// # Example
///
/// ```
/// use bfw_graph::GraphSpec;
///
/// let spec: GraphSpec = "cycle:12".parse()?;
/// let g = spec.build();
/// assert_eq!(g.node_count(), 12);
/// assert_eq!(spec.to_string(), "cycle:12");
/// # Ok::<(), bfw_graph::WorkloadError>(())
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
    /// `rr:n:d:seed` — uniform random `d`-regular graph; a disconnected
    /// sample is an error, not a graph.
    RandomRegular(usize, usize, u64),
    /// `scrambled-cycle:n:seed` — a cycle under a seeded label shuffle.
    ScrambledCycle(usize, u64),
}

/// Tries [`generators::erdos_renyi_connected`] makes before an `er`
/// spec is reported as too sparse to connect.
const ER_CONNECT_TRIES: usize = 1000;

/// Pairings [`generators::random_regular`] samples before an `rr` spec
/// is reported as having no simple pairing.
const RR_PAIRING_TRIES: usize = 10_000;

/// The most nodes a graph may have: [`GraphSpec::try_build`] refuses
/// larger specs, and a `bfw/graph` document larger graphs.
pub const MAX_NODES: u64 = 1 << 26;
/// With [`MAX_NODES`], the largest graph [`GraphSpec::try_build`]
/// builds. The repo's largest workloads fit: E20's 10⁷-node rows, and
/// `rr:10000000:4:S` at about 1.7·10⁹ expected generator steps.
const MAX_EDGES: u64 = 1 << 27;
const MAX_WORK: u64 = 1 << 32;

/// The family names, in the order the usage text lists them.
const FAMILIES: &str = "path, cycle, clique, star, grid, torus, hypercube, tree, randtree, er, \
                        barbell, ba, plaw, geo, rr, scrambled-cycle";

/// A closed-form estimate of a spec's graph: nodes, edges (the
/// expectation for random families) and generator steps (RNG draws,
/// candidate pairs and emitted edges, over the expected number of
/// rejection-sampling tries). Computed in `f64` and cast, so it
/// saturates instead of overflowing.
#[derive(Debug)]
struct Size {
    nodes: f64,
    edges: f64,
    work: f64,
}

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

    /// Builds the graph. The parser checks each family's domain; what
    /// only building can tell is reported here: a graph over the size
    /// limits (refused from its closed-form estimate before anything is
    /// allocated), an `er` spec whose rejection sampling found no
    /// connected graph, and an `rr` spec with no simple pairing or a
    /// disconnected sample.
    ///
    /// # Errors
    ///
    /// Returns an error naming the spec and the estimate or the
    /// constraint it failed.
    pub fn try_build(&self) -> Result<Graph, WorkloadError> {
        self.buildable_size()?;
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
            GraphSpec::RandomRegular(n, d, seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let g = generators::random_regular(n, d, RR_PAIRING_TRIES, &mut rng).ok_or_else(
                    || {
                        WorkloadError::new(format!(
                            "{self}: no simple pairing in {RR_PAIRING_TRIES} tries (one is \
                             simple with probability ≈ exp(-(d²-1)/4)); lower d"
                        ))
                    },
                )?;
                if !algo::is_connected(&g) {
                    return Err(WorkloadError::new(format!(
                        "{self}: the sample is disconnected; try another seed, or d >= 3 \
                         on more nodes"
                    )));
                }
                g
            }
            GraphSpec::ScrambledCycle(n, seed) => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                generators::scrambled_cycle(n, &mut rng)
            }
        })
    }

    /// The number of nodes the spec builds, from its closed form: known
    /// without building the graph. Exact within the build limits, and
    /// saturating past them.
    pub fn node_count(&self) -> u64 {
        self.size().nodes as u64
    }

    /// The closed-form [`Size`], refused past the build limits.
    fn buildable_size(&self) -> Result<Size, WorkloadError> {
        let size = self.size();
        if size.nodes > MAX_NODES as f64
            || size.edges > MAX_EDGES as f64
            || size.work > MAX_WORK as f64
        {
            return Err(WorkloadError::new(format!(
                "{self}: too large to build: ≈{} nodes, ≈{} edges, ≈{} generator steps \
                 (limits: {MAX_NODES} nodes, {MAX_EDGES} edges, {MAX_WORK} steps)",
                size.nodes as u64, size.edges as u64, size.work as u64
            )));
        }
        Ok(size)
    }

    /// The closed-form [`Size`] of this spec's graph and generator run.
    fn size(&self) -> Size {
        let pairs = |n: f64| n * (n - 1.0) / 2.0;
        let (nodes, edges, work) = match *self {
            GraphSpec::Path(n)
            | GraphSpec::Cycle(n)
            | GraphSpec::Star(n)
            | GraphSpec::RandomTree(n, _)
            | GraphSpec::ScrambledCycle(n, _) => (n as f64, n as f64, n as f64),
            GraphSpec::Clique(n) => (n as f64, pairs(n as f64), 0.0),
            GraphSpec::Grid(r, c) | GraphSpec::Torus(r, c) => {
                let n = r as f64 * c as f64;
                (n, 2.0 * n, 0.0)
            }
            GraphSpec::Hypercube(d) => {
                let n = 2f64.powf(f64::from(d));
                (n, n * f64::from(d) / 2.0, 0.0)
            }
            GraphSpec::Tree(a, depth) => {
                let levels = f64::from(depth) + 1.0;
                let n = if a == 1 {
                    levels
                } else {
                    ((a as f64).powf(levels) - 1.0) / (a as f64 - 1.0)
                };
                (n, n - 1.0, 0.0)
            }
            GraphSpec::ErdosRenyi(n, p_milli, _) => {
                // Expected tries: 1 / P(connected) ≈ e^μ, μ the expected
                // number of isolated nodes, up to the try budget.
                let (n, p) = (n as f64, f64::from(p_milli) / 1000.0);
                let mu = n * (1.0 - p).powf(n - 1.0);
                let tries = mu.exp().min(ER_CONNECT_TRIES as f64);
                (n, p * pairs(n), tries * pairs(n))
            }
            GraphSpec::Barbell(k, b) => {
                let k = k as f64;
                (2.0 * k + b as f64, 2.0 * pairs(k) + b as f64 + 1.0, 0.0)
            }
            GraphSpec::Ba(n, m, _) => {
                let edges = n as f64 * m as f64;
                (n as f64, edges, edges)
            }
            GraphSpec::PowerLaw(n, gamma_milli, _) => {
                // Degrees follow d^-γ on 2..=√n, so the mean degree is at
                // most 2 + 2^γ ∫_2^√n x^(1-γ) dx.
                let (n, g) = (n as f64, f64::from(gamma_milli) / 1000.0);
                let top = n.sqrt().max(2.0);
                let tail = if (g - 2.0).abs() < 1e-9 {
                    (top / 2.0).ln()
                } else {
                    (top.powf(2.0 - g) - 2f64.powf(2.0 - g)) / (2.0 - g)
                };
                let stubs = n * (2.0 + 2f64.powf(g) * tail);
                (n, stubs / 2.0 + n, 2.0 * stubs)
            }
            GraphSpec::Geo(n, radius_milli, _) => {
                // The generator buckets points into side² cells and
                // checks the 3×3 block around each point.
                let (n, r) = (n as f64, f64::from(radius_milli) / 1000.0);
                let side = if r > 0.0 {
                    (1.0 / r).floor().min(n.sqrt().floor()) + 1.0
                } else {
                    1.0
                };
                let candidates = n * n.min(9.0 * n / (side * side));
                let edges = pairs(n) * (std::f64::consts::PI * r * r).min(1.0);
                (n, edges, 2.0 * n + candidates)
            }
            GraphSpec::RandomRegular(n, d, _) => {
                let stubs = n as f64 * d as f64;
                let d = d as f64;
                let tries = ((d * d - 1.0) / 4.0).exp().min(RR_PAIRING_TRIES as f64);
                (n as f64, stubs / 2.0, tries * stubs)
            }
        };
        Size {
            nodes,
            edges,
            work: work + nodes + edges,
        }
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
            GraphSpec::RandomRegular(n, d, _) if d == 0 || d >= n || (n % 2 == 1 && d % 2 == 1) => {
                Some("a random regular graph needs 1 <= d < n and n·d even")
            }
            GraphSpec::ScrambledCycle(n, _) if n < 3 => Some("a cycle needs n >= 3"),
            _ => None,
        }
    }

    /// The family name, its parameters in spec-string order and units,
    /// and the seed of a randomized family: what [`Display`](fmt::Display)
    /// prints and [`Self::provenance`] exports.
    fn parts(&self) -> (&'static str, Vec<(&'static str, u64)>, Option<u64>) {
        let u = |x: usize| x as u64;
        match *self {
            GraphSpec::Path(n) => ("path", vec![("n", u(n))], None),
            GraphSpec::Cycle(n) => ("cycle", vec![("n", u(n))], None),
            GraphSpec::Clique(n) => ("clique", vec![("n", u(n))], None),
            GraphSpec::Star(n) => ("star", vec![("n", u(n))], None),
            GraphSpec::Grid(r, c) => ("grid", vec![("rows", u(r)), ("cols", u(c))], None),
            GraphSpec::Torus(r, c) => ("torus", vec![("rows", u(r)), ("cols", u(c))], None),
            GraphSpec::Hypercube(d) => ("hypercube", vec![("dim", d.into())], None),
            GraphSpec::Tree(a, d) => ("tree", vec![("arity", u(a)), ("depth", d.into())], None),
            GraphSpec::RandomTree(n, s) => ("randtree", vec![("n", u(n))], Some(s)),
            GraphSpec::ErdosRenyi(n, p, s) => {
                ("er", vec![("n", u(n)), ("p_milli", p.into())], Some(s))
            }
            GraphSpec::Barbell(k, b) => ("barbell", vec![("k", u(k)), ("bridge", u(b))], None),
            GraphSpec::Ba(n, m, s) => ("ba", vec![("n", u(n)), ("m", u(m))], Some(s)),
            GraphSpec::PowerLaw(n, g, s) => (
                "plaw",
                vec![("n", u(n)), ("gamma_milli", g.into())],
                Some(s),
            ),
            GraphSpec::Geo(n, r, s) => (
                "geo",
                vec![("n", u(n)), ("radius_milli", r.into())],
                Some(s),
            ),
            GraphSpec::RandomRegular(n, d, s) => ("rr", vec![("n", u(n)), ("d", u(d))], Some(s)),
            GraphSpec::ScrambledCycle(n, s) => ("scrambled-cycle", vec![("n", u(n))], Some(s)),
        }
    }

    /// The generator provenance tag exported alongside the topology in
    /// `bfw/graph` documents (family name, parameters in the spec
    /// string's units, seed for randomized families).
    pub fn provenance(&self) -> Provenance {
        let (family, params, seed) = self.parts();
        Provenance::new(family, params, seed)
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
    /// Panics where [`Self::try_diameter`] fails (a built spec is
    /// connected).
    pub fn diameter(&self) -> u32 {
        self.try_diameter()
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("workload graphs are connected")
    }

    /// The exact diameter of the built graph (`None` when it is
    /// disconnected). Cliques, paths, cycles, stars, grids, tori,
    /// hypercubes and complete trees answer in closed form, and cliques
    /// even past the build limits, as they are never materialized. Other
    /// families run an all-pairs BFS; like the build limits, its work,
    /// n · (n + 2m) adjacency steps over the size estimate, is checked
    /// against a fixed limit before anything is built.
    ///
    /// # Errors
    ///
    /// Returns an error naming the spec, the work and the limit, or the
    /// error of [`Self::try_build`].
    pub fn try_diameter(&self) -> Result<Option<u32>, WorkloadError> {
        match *self {
            GraphSpec::Clique(0) => return Ok(None),
            GraphSpec::Clique(1) => return Ok(Some(0)),
            GraphSpec::Clique(_) => return Ok(Some(1)),
            _ => {}
        }
        self.buildable_size()?;
        if let Some(d) = self.closed_form_diameter() {
            return Ok(Some(d));
        }
        self.check_diameter_work()?;
        Ok(algo::diameter(&self.try_build()?))
    }

    /// Refuses, from the size estimate alone, a spec whose exact
    /// diameter would need an all-pairs BFS past the work limit: the
    /// check [`Self::try_diameter`] makes before it builds anything, for
    /// a caller that builds the graph itself and wants the refusal
    /// first. Specs past the build limits pass (building them reports
    /// that), and so do the families with a closed-form diameter.
    ///
    /// # Errors
    ///
    /// Returns an error naming the spec, the work and the limit.
    pub fn check_diameter_work(&self) -> Result<(), WorkloadError> {
        let Ok(size) = self.buildable_size() else {
            return Ok(());
        };
        if matches!(self, GraphSpec::Clique(_)) || self.closed_form_diameter().is_some() {
            return Ok(());
        }
        let work = algo::diameter_work(size.nodes, size.edges);
        if work > algo::MAX_DIAMETER_WORK as f64 {
            return Err(WorkloadError::new(format!(
                "{self}: too large for an exact diameter: all-pairs BFS takes ≈{} steps, \
                 n·(n + 2m) (limit: {} steps)",
                work as u64,
                algo::MAX_DIAMETER_WORK
            )));
        }
        Ok(())
    }

    /// The diameter of a family with a closed form, for a spec within
    /// the build limits (so every count fits a `u32`).
    fn closed_form_diameter(&self) -> Option<u32> {
        let span = |n: usize| n.saturating_sub(1) as u32;
        let half = |n: usize| (n / 2) as u32;
        Some(match *self {
            GraphSpec::Path(n) => span(n),
            GraphSpec::Cycle(n) | GraphSpec::ScrambledCycle(n, _) => half(n),
            GraphSpec::Star(n) => span(n).min(2),
            GraphSpec::Grid(r, c) => span(r) + span(c),
            GraphSpec::Torus(r, c) => half(r) + half(c),
            GraphSpec::Hypercube(d) => d,
            // Arity 1 is a path down from the root; wider trees join two
            // leaves of different subtrees through the root.
            GraphSpec::Tree(1, depth) => depth,
            GraphSpec::Tree(_, depth) => 2 * depth,
            _ => return None,
        })
    }
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (family, params, seed) = self.parts();
        f.write_str(family)?;
        match *self {
            GraphSpec::Grid(r, c) | GraphSpec::Torus(r, c) => write!(f, ":{r}x{c}")?,
            _ => {
                for (_, value) in params {
                    write!(f, ":{value}")?;
                }
            }
        }
        seed.map_or(Ok(()), |seed| write!(f, ":{seed}"))
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
            "tree" | "randtree" | "barbell" | "scrambled-cycle" => 2,
            "er" | "ba" | "plaw" | "geo" | "rr" => 3,
            other => {
                return Err(WorkloadError::new(format!(
                    "unknown graph kind '{other}'{}; valid: {FAMILIES}",
                    did_you_mean(other, &FAMILIES.split(", ").collect::<Vec<_>>()),
                )))
            }
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
        // Counts and sizes, milli-units and small exponents, seeds.
        let n = |i: usize| int::<usize>(kind, rest[i]);
        let m = |i: usize| int::<u32>(kind, rest[i]);
        let seed = |i: usize| int::<u64>(kind, rest[i]);
        let spec = match kind {
            "path" => GraphSpec::Path(n(0)?),
            "cycle" => GraphSpec::Cycle(n(0)?),
            "clique" => GraphSpec::Clique(n(0)?),
            "star" => GraphSpec::Star(n(0)?),
            "grid" => {
                let (r, c) = dims()?;
                GraphSpec::Grid(r, c)
            }
            "torus" => {
                let (r, c) = dims()?;
                GraphSpec::Torus(r, c)
            }
            "hypercube" => GraphSpec::Hypercube(m(0)?),
            "tree" => GraphSpec::Tree(n(0)?, m(1)?),
            "randtree" => GraphSpec::RandomTree(n(0)?, seed(1)?),
            "barbell" => GraphSpec::Barbell(n(0)?, n(1)?),
            "er" => GraphSpec::ErdosRenyi(n(0)?, m(1)?, seed(2)?),
            "ba" => GraphSpec::Ba(n(0)?, n(1)?, seed(2)?),
            "plaw" => GraphSpec::PowerLaw(n(0)?, m(1)?, seed(2)?),
            "geo" => GraphSpec::Geo(n(0)?, m(1)?, seed(2)?),
            "rr" => GraphSpec::RandomRegular(n(0)?, n(1)?, seed(2)?),
            // "scrambled-cycle": the arity match refused every other kind.
            _ => GraphSpec::ScrambledCycle(n(0)?, seed(1)?),
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

    /// One spec per family, each small enough to build in a debug test.
    const ONE_PER_FAMILY: &[&str] = &[
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
        "rr:12:4:3608",
        "scrambled-cycle:20:97",
    ];

    #[test]
    fn parse_round_trips() {
        for s in ONE_PER_FAMILY {
            let spec: GraphSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), *s);
            let g = spec.build();
            assert!(g.node_count() > 0);
            assert!(algo::is_connected(&g), "{s} must be connected");
        }
        assert_eq!(ONE_PER_FAMILY.len(), FAMILIES.split(", ").count());
    }

    #[test]
    fn parse_errors() {
        for s in [
            "", "wat:3", "path", "path:x", "grid:3", "grid:ax4", "path:1:2", "rr:10:4",
        ] {
            assert!(s.parse::<GraphSpec>().is_err(), "{s} should fail");
        }
        let e = "wat:3".parse::<GraphSpec>().unwrap_err();
        assert!(e.to_string().contains("unknown graph kind"));
    }

    #[test]
    fn unknown_families_get_a_hint_and_the_list() {
        let e = "cylce:12".parse::<GraphSpec>().unwrap_err().to_string();
        assert!(
            e.contains("unknown graph kind 'cylce' (did you mean 'cycle'?)"),
            "{e}"
        );
        assert!(e.ends_with(&format!("valid: {FAMILIES}")), "{e}");
        let e = "random-regular:100:4".parse::<GraphSpec>().unwrap_err();
        assert!(!e.to_string().contains("did you mean"), "{e}");
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
        ("rr:5:0:1", "1 <= d < n and n·d even"),
        ("rr:5:5:1", "1 <= d < n and n·d even"),
        ("rr:5:3:1", "1 <= d < n and n·d even"),
        ("scrambled-cycle:2:1", "n >= 3"),
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
            "rr:4:3:1",
            "scrambled-cycle:3:1",
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
    fn failed_rr_samples_are_errors_not_panics() {
        // A perfect matching on 6 nodes is never connected.
        for seed in 0..20 {
            let e = GraphSpec::RandomRegular(6, 1, seed)
                .try_build()
                .unwrap_err();
            assert!(e.to_string().contains("rr:6:1:"), "{e}");
            assert!(e.to_string().contains("disconnected"), "{e}");
        }
        // A simple 8-regular pairing turns up about once in 7·10⁶ tries.
        let e = GraphSpec::RandomRegular(40, 8, 1).try_build().unwrap_err();
        assert!(
            e.to_string().contains("rr:40:8:1: no simple pairing"),
            "{e}"
        );
    }

    /// The estimate the size check reads, for specs too large to build.
    fn refusal(s: &str) -> String {
        let spec: GraphSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        spec.try_build().expect_err(s).to_string()
    }

    #[test]
    fn oversized_specs_are_refused_before_building() {
        for (s, estimate) in [
            // An O(n²) pair loop per try.
            ("er:1000000:4:7", "≈1000000 nodes, ≈1999998000 edges"),
            ("tree:2:40", "≈2199023255551 nodes"),
            ("hypercube:30", "≈1073741824 nodes, ≈16106127360 edges"),
            ("clique:100000", "≈4999950000 edges"),
            // Radius 0: one bucket, so every point checks every other.
            (
                "geo:100000:0:1",
                "≈100000 nodes, ≈0 edges, ≈10000300000 generator steps",
            ),
            ("rr:1000000:8:1", "≈1000000 nodes, ≈4000000 edges"),
        ] {
            let e = refusal(s);
            assert!(
                e.starts_with(&format!("invalid graph spec: {s}: too large")),
                "{e}"
            );
            assert!(e.contains(estimate), "{s}: {e}");
        }
        // The clique topology builds no edges, so it is not refused.
        assert_eq!(
            GraphSpec::Clique(100_000)
                .try_topology()
                .unwrap()
                .node_count(),
            100_000
        );
    }

    #[test]
    fn repo_workloads_fit_the_limits() {
        for s in [
            // E20's largest rows, E21's and E16's families.
            "cycle:10000000",
            "torus:3162x3162",
            "rr:10000000:4:1820",
            "rr:1000000:4:1820",
            "scrambled-cycle:100000:97",
            "rr:10000:4:379422",
            // perfbench's workloads.
            "cycle:1000000",
            "geo:100000:8:11",
            "geo:100000:8:5",
            "path:64",
            "cycle:128",
            "grid:16x16",
            // The shipped scenarios and CI's graph round trips.
            "geo:20000:15:7",
            "geo:50000:11:7",
            "geo:20000:12:7",
            "ba:20000:3:7",
            "plaw:512:2500:11",
            "torus:100x100",
            "rr:20000:4:1820",
            "scrambled-cycle:20000:97",
        ] {
            let spec: GraphSpec = s.parse().unwrap();
            let size = spec.size();
            assert!(
                size.nodes <= MAX_NODES as f64
                    && size.edges <= MAX_EDGES as f64
                    && size.work <= MAX_WORK as f64,
                "{s}: {size:?}"
            );
        }
    }

    #[test]
    fn size_estimates_track_built_graphs() {
        for s in ONE_PER_FAMILY {
            let spec: GraphSpec = s.parse().unwrap();
            let (size, g) = (spec.size(), spec.build());
            assert_eq!(size.nodes, g.node_count() as f64, "{s}");
            assert_eq!(spec.node_count(), g.node_count() as u64, "{s}");
            let edges = g.edge_count() as f64;
            assert!(
                size.edges >= edges / 3.0 && size.edges <= 3.0 * edges,
                "{s}: estimated {} edges, built {edges}",
                size.edges
            );
            assert!(size.work >= size.nodes + size.edges, "{s}: {size:?}");
        }
    }

    #[test]
    fn diameters_match_families() {
        assert_eq!(GraphSpec::Path(10).diameter(), 9);
        assert_eq!(GraphSpec::Clique(10).diameter(), 1);
        assert_eq!(GraphSpec::Grid(3, 4).diameter(), 5);
        assert_eq!(GraphSpec::ScrambledCycle(10, 3).diameter(), 5);
        // A huge clique answers in closed form, never materialized.
        assert_eq!(GraphSpec::Clique(1 << 20).try_diameter(), Ok(Some(1)));
    }

    #[test]
    fn closed_form_diameters_match_bfs() {
        // Every family with a closed form, at small sizes and at the
        // degenerate edges of each domain (one node, one row, arity 1,
        // depth 0), against a BFS of the built graph.
        let mut specs = Vec::new();
        for n in 1..=9 {
            specs.extend([GraphSpec::Path(n), GraphSpec::Star(n), GraphSpec::Clique(n)]);
        }
        for n in 3..=10 {
            specs.extend([GraphSpec::Cycle(n), GraphSpec::ScrambledCycle(n, n as u64)]);
        }
        for r in 1..=5 {
            for c in 1..=5 {
                specs.push(GraphSpec::Grid(r, c));
                if r >= 3 && c >= 3 {
                    specs.push(GraphSpec::Torus(r, c));
                }
            }
        }
        specs.extend((1..=6).map(GraphSpec::Hypercube));
        for arity in 1..=4 {
            specs.extend((0..=3).map(|depth| GraphSpec::Tree(arity, depth)));
        }
        for spec in specs {
            let bfs = algo::diameter(&spec.build());
            assert_eq!(spec.try_diameter(), Ok(bfs), "{spec}");
            assert!(
                spec.closed_form_diameter().is_some() || matches!(spec, GraphSpec::Clique(_)),
                "{spec}"
            );
        }
        // Families without one still run the BFS.
        assert_eq!(GraphSpec::Barbell(4, 2).closed_form_diameter(), None);
        assert_eq!(GraphSpec::Barbell(4, 2).try_diameter(), Ok(Some(5)));
    }

    #[test]
    fn costly_diameters_are_refused_before_the_build() {
        // n · (n + 2m) = 10⁷ · 3·10⁷: hours of BFS, refused at once.
        let e_bfs = GraphSpec::Ba(10_000_000, 1, 1).try_diameter().unwrap_err();
        assert_eq!(
            e_bfs.to_string(),
            "invalid graph spec: ba:10000000:1:1: too large for an exact diameter: all-pairs BFS \
             takes ≈300000000000000 steps, n·(n + 2m) (limit: 2147483648 steps)"
        );
        // A ring of the same size answers in closed form.
        assert_eq!(
            GraphSpec::Cycle(10_000_000).try_diameter(),
            Ok(Some(5_000_000))
        );
        // An unbuildable spec keeps the build's refusal.
        let e = GraphSpec::Hypercube(30).try_diameter().unwrap_err();
        assert!(e.to_string().contains(": too large to build: ≈"), "{e}");
        // The pre-build check alone refuses the same BFS, and leaves
        // closed forms and unbuildable specs to the diameter and the build.
        assert_eq!(
            GraphSpec::Ba(10_000_000, 1, 1).check_diameter_work(),
            Err(e_bfs)
        );
        for spec in [
            GraphSpec::Cycle(10_000_000),
            GraphSpec::Clique(100_000_000),
            GraphSpec::Hypercube(30),
            GraphSpec::Ba(2_000, 1, 1),
        ] {
            assert_eq!(spec.check_diameter_work(), Ok(()), "{spec}");
        }
        // The tracked churn rows' largest graph fits.
        let size = GraphSpec::RandomRegular(10_000, 4, 1).size();
        assert!(algo::diameter_work(size.nodes, size.edges) <= algo::MAX_DIAMETER_WORK as f64);
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
        let rr = GraphSpec::RandomRegular(30, 4, 5).build();
        assert_eq!(rr, GraphSpec::RandomRegular(30, 4, 5).build());
        assert!(rr.nodes().all(|u| rr.degree(u) == 4));
        assert_ne!(rr, GraphSpec::RandomRegular(30, 4, 6).build());
        let ring = GraphSpec::ScrambledCycle(30, 5).build();
        assert_eq!(ring, GraphSpec::ScrambledCycle(30, 5).build());
        assert!(ring.nodes().all(|u| ring.degree(u) == 2));
        assert_ne!(ring, GraphSpec::Cycle(30).build());
    }

    #[test]
    fn provenance_names_each_family() {
        let p = GraphSpec::Ba(64, 3, 7).provenance();
        assert_eq!(p, Provenance::new("ba", [("n", 64u64), ("m", 3)], Some(7)));
        let p = GraphSpec::Torus(8, 8).provenance();
        assert_eq!(p.family, "torus");
        assert_eq!(p.params(), [("cols".to_owned(), 8), ("rows".to_owned(), 8)]);
        assert_eq!(p.seed, None);
        // Every spec string's provenance family matches its spec kind.
        for s in ONE_PER_FAMILY {
            let spec: GraphSpec = s.parse().unwrap();
            let family = spec.provenance().family;
            assert!(s.starts_with(&format!("{family}:")), "{s} vs {family}");
        }
    }
}
