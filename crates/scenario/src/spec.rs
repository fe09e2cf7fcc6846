//! The TOML scenario format.
//!
//! A scenario file has one `[scenario]` header and any number of
//! `[[event]]` entries:
//!
//! ```toml
//! [scenario]
//! name = "ring churn"
//! graph = "cycle:32"     # bfw_graph::GraphSpec grammar, checked at parse
//! p = 0.5                # BFW beep probability
//! rounds = 20000         # horizon
//! stability = 50         # stable rounds required to count a recovery
//! protocol = "bfw"       # or "bfw+recovery" (self-healing layer)
//!
//! [[event]]
//! at = 2000              # or: every/start/count, or: rate
//! kind = "crash-leader"
//!
//! [[event]]
//! at = 2200
//! kind = "recover-all"
//! ```
//!
//! Event kinds and their fields:
//!
//! | `kind` | fields |
//! |--------|--------|
//! | `crash` | `node` |
//! | `crash-random` | — |
//! | `crash-leader` | — |
//! | `recover` | `node` |
//! | `recover-random` | — |
//! | `recover-all` | — |
//! | `add-edge` / `remove-edge` | `u`, `v` |
//! | `partition` | `cut` (array of node ids) |
//! | `heal` | — |
//! | `noise-burst` | `fn`, `fp`, `rounds` |
//! | `inject-phantom` | `waves` |
//! | `inject-dead` | — |
//!
//! Scheduling fields (exactly one form per event): `at = N`;
//! `every = PERIOD` with optional `start = N`, `count = N`; or
//! `rate = P` with optional `start = N`.
//!
//! An optional `[trace]` section turns on complexity instrumentation
//! (see [`bfw_sim::instrument`]) for every run of the scenario:
//!
//! ```toml
//! [trace]
//! file = "trace.json"    # where the CLI writes the JSON report
//! last = 256             # flight-recorder capacity (default 256)
//! ```
//!
//! Both keys are optional (`[trace]` alone enables tracing with the
//! defaults); the CLI's `--trace` / `--trace-last` flags override them.
//!
//! `runtime = "async"` executes the scenario on the asynchronous
//! stone-age runtime (BFW as a stone-age protocol under
//! activation-based scheduling: a `TickEngine` whose every tick is one
//! scheduler pick and one activation) instead of synchronous rounds;
//! every timeline position and the `rounds` horizon are then read in
//! **activations**. The optional `scheduler` key picks the activation
//! scheduler (`uniform` | `weighted` | `replay`) and is only legal
//! under `runtime = "async"`. The recovery layer needs synchronous
//! slot multiplexing, so `runtime = "async"` with
//! `protocol = "bfw+recovery"` is a hard error.
//!
//! The optional `kernel` key (`"auto"` | `"generic"` | `"bit"`,
//! default `"auto"`) picks the execution kernel for synchronous BFW
//! rounds: the generic per-node `TickEngine` or the bitplane
//! `BitEngine` fast path. `"auto"` selects the bit kernel for plain
//! synchronous BFW on large graphs; the choice never changes outcomes
//! (the kernels are byte-identical at a fixed seed). An explicit
//! `kernel = "bit"` with `protocol = "bfw+recovery"` or
//! `runtime = "async"` is a hard error.
//!
//! The optional `threads` key (a positive integer) sets the worker
//! count for the bit kernel's word-sharded parallel step; unset leaves
//! the runner's default (the host's available parallelism, capped).
//! The thread count never changes outcomes — the sharded step is
//! byte-identical to the serial one at a fixed seed. Combining
//! `threads` with `kernel = "generic"`, `runtime = "async"` or
//! `protocol = "bfw+recovery"` is a hard error, since only the bit
//! kernel shards its step.
//!
//! With `protocol = "bfw+recovery"` the optional `[scenario]` keys
//! `heartbeat`, `timeout` and `grace` override the recovery layer's
//! diameter-derived timing (heartbeat period and detection timeout in
//! heartbeat slots, grace window in election slots); unset keys keep
//! the `RecoveryConfig::for_diameter` defaults. They are rejected under
//! plain `protocol = "bfw"`, where they would be silently meaningless.
//!
//! Every unknown section, key or event kind is a hard [`SpecError`]
//! (never silently ignored), with a "did you mean" hint when a known
//! name is close.

use crate::toml_mini::{self, Table, Value};
use crate::{InjectKind, ScenarioEvent, Schedule, Timeline};
use bfw_graph::{Graph, GraphSpec, NodeId, WorkloadError};
use bfw_sim::Scheduler;
use bfw_stats::did_you_mean;
use std::fmt;

/// A parsed scenario file, before graph resolution.
///
/// The `graph` field stays a string, in the [`GraphSpec`] grammar:
/// the TOML parser and the JSON decoders check it and keep its
/// canonical spelling, and [`ScenarioSpec::build_graph`] builds it.
/// Tests and library users may also run a spec's timeline on any graph
/// they like.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable scenario name.
    pub name: String,
    /// Workload spec string (e.g. `"cycle:32"`), canonical when parsed.
    pub graph: String,
    /// BFW beep probability.
    pub p: f64,
    /// Round horizon.
    pub rounds: u64,
    /// Stable rounds required before a recovery is recorded.
    pub stability: u64,
    /// Default seed (a CLI `--seed` overrides it).
    pub seed: u64,
    /// Which protocol stack drives the run.
    pub protocol: ProtocolKind,
    /// Recovery-layer heartbeat period override, in heartbeat slots
    /// (`None` = diameter-derived; only with [`ProtocolKind::BfwRecovery`]).
    pub heartbeat: Option<u32>,
    /// Recovery-layer detection timeout override, in heartbeat slots.
    pub timeout: Option<u32>,
    /// Recovery-layer grace window override, in election slots.
    pub grace: Option<u32>,
    /// Which runtime executes the scenario (`runtime` key).
    pub runtime: RuntimeKind,
    /// Activation scheduler override (`scheduler` key; only with
    /// [`RuntimeKind::Async`], `None` = uniform). This is
    /// `bfw_sim::Scheduler` directly — the spec names map 1:1 onto the
    /// engine's schedulers.
    pub scheduler: Option<Scheduler>,
    /// Which execution kernel runs the rounds (`kernel` key).
    pub kernel: KernelKind,
    /// Worker-thread count for the bit kernel's word-sharded step
    /// (`threads` key; `None` = the runner's default, currently the
    /// host's available parallelism capped at 8). Thread count never
    /// changes outcomes — the sharded step is byte-identical to the
    /// serial one at a fixed seed. Only meaningful on the bit kernel:
    /// combining it with `kernel = "generic"`, `runtime = "async"` or
    /// `protocol = "bfw+recovery"` is a hard error.
    pub threads: Option<usize>,
    /// The declarative event schedule.
    pub timeline: Timeline,
    /// Complexity-instrumentation request (`[trace]` section), `None`
    /// when the scenario does not ask for tracing.
    pub trace: Option<TraceSpec>,
}

/// The `[trace]` section: asks every run of the scenario to enable
/// complexity instrumentation and a flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Destination for the JSON report (`file` key). `None` leaves the
    /// destination to the caller (the CLI's `--trace` flag).
    pub file: Option<String>,
    /// Flight-recorder ring-buffer capacity (`last` key).
    pub last: usize,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            file: None,
            last: 256,
        }
    }
}

/// The runtime a scenario executes on (`runtime` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// Synchronous rounds (the default): the beeping `TickEngine`
    /// runtime; timeline positions are rounds.
    #[default]
    Sync,
    /// Asynchronous activations: the stone-age `AsyncStoneAgeNetwork`
    /// runtime (BFW through the `BeepingAsStoneAge` adapter); timeline
    /// positions — `at`, `every`, `start`, noise-burst `rounds`, and
    /// the `[scenario]` horizon — are interpreted in **activations**.
    Async,
}

impl fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuntimeKind::Sync => "sync",
            RuntimeKind::Async => "async",
        })
    }
}

/// The execution kernel a scenario's rounds run on (`kernel` key, or
/// the CLI's `--kernel` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Pick automatically (the default): the bit-parallel kernel for
    /// plain synchronous BFW at large `n`, the generic engine
    /// otherwise. The choice never changes outcomes — the two kernels
    /// are byte-identical at a fixed seed (see the
    /// `bit_kernel_equivalence` workspace tests).
    #[default]
    Auto,
    /// The generic per-node [`bfw_sim::TickEngine`] path.
    Generic,
    /// The bitplane [`bfw_sim::BitEngine`] fast path. Only plain
    /// synchronous BFW supports it; requesting it with
    /// `protocol = "bfw+recovery"` or `runtime = "async"` is a hard
    /// error.
    Bit,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelKind::Auto => "auto",
            KernelKind::Generic => "generic",
            KernelKind::Bit => "bit",
        })
    }
}

/// The protocol stack a scenario runs (`protocol` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolKind {
    /// Plain BFW (the paper's Figure 1 protocol).
    #[default]
    Bfw,
    /// BFW wrapped in the self-healing recovery layer
    /// (`bfw_core::RecoveringProtocol`): heartbeat-based leaderless
    /// detection plus epoch-tagged restart.
    BfwRecovery,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtocolKind::Bfw => "bfw",
            ProtocolKind::BfwRecovery => "bfw+recovery",
        })
    }
}

/// A closed set of named values: the `protocol`, `runtime`,
/// `scheduler` and `kernel` keys. A value's name is its `Display`, so
/// [`Named::ALL`] is the one name list that rendering, the TOML parser,
/// the JSON decoder and the CLI's `--kernel` flag all read.
pub(crate) trait Named: Copy + fmt::Display + 'static {
    /// The key the value is written under (for error messages).
    const KEY: &'static str;
    /// Every value, in the order error messages list them.
    const ALL: &'static [Self];
}

impl Named for ProtocolKind {
    const KEY: &'static str = "protocol";
    const ALL: &'static [Self] = &[ProtocolKind::Bfw, ProtocolKind::BfwRecovery];
}

impl Named for RuntimeKind {
    const KEY: &'static str = "runtime";
    const ALL: &'static [Self] = &[RuntimeKind::Sync, RuntimeKind::Async];
}

impl Named for Scheduler {
    const KEY: &'static str = "scheduler";
    const ALL: &'static [Self] = &[Scheduler::Uniform, Scheduler::Weighted, Scheduler::Replay];
}

impl Named for KernelKind {
    const KEY: &'static str = "kernel";
    const ALL: &'static [Self] = &[KernelKind::Auto, KernelKind::Generic, KernelKind::Bit];
}

/// Parses a [`Named`] value by name; an unknown name gets a "did you
/// mean" hint and the list of valid names.
pub(crate) fn parse_name<T: Named>(name: &str) -> Result<T, String> {
    let names: Vec<String> = T::ALL.iter().map(T::to_string).collect();
    if let Some(i) = names.iter().position(|n| n == name) {
        return Ok(T::ALL[i]);
    }
    let known: Vec<&str> = names.iter().map(String::as_str).collect();
    let valid: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    Err(format!(
        "unknown {} '{name}'{}; valid: {}",
        T::KEY,
        did_you_mean(name, &known),
        valid.join(", ")
    ))
}

impl std::str::FromStr for KernelKind {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        parse_name(name)
    }
}

/// Error parsing a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(String);

impl SpecError {
    /// Crate-internal constructor (spec parsing and recovery-timing
    /// resolution both produce these).
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError(message.into())
    }

    /// The message without the `scenario spec:` prefix (the JSON
    /// decoder reports it at a pointer instead).
    pub(crate) fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<toml_mini::ParseError> for SpecError {
    fn from(e: toml_mini::ParseError) -> Self {
        SpecError(e.to_string())
    }
}

fn err(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// Checks a `graph` value against the workload grammar and returns its
/// canonical spelling. Every parser of a spec calls this, so a
/// misspelled graph fails where the spec enters, at its key.
pub(crate) fn canonical_graph(text: &str) -> Result<String, WorkloadError> {
    text.parse::<GraphSpec>().map(|spec| spec.to_string())
}

impl ScenarioSpec {
    /// Parses a scenario from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for syntax errors, missing required
    /// fields (`graph`), out-of-range probabilities, or unknown event
    /// kinds/fields.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let sections = toml_mini::parse(text)?;
        let mut spec = ScenarioSpec {
            name: "unnamed scenario".to_owned(),
            graph: String::new(),
            p: 0.5,
            rounds: 10_000,
            stability: 50,
            seed: 0,
            protocol: ProtocolKind::Bfw,
            heartbeat: None,
            timeout: None,
            grace: None,
            runtime: RuntimeKind::Sync,
            scheduler: None,
            kernel: KernelKind::Auto,
            threads: None,
            timeline: Timeline::new(),
            trace: None,
        };
        let mut saw_scenario = false;
        for section in &sections {
            match section.name.as_str() {
                "scenario" => {
                    if saw_scenario {
                        return Err(err("duplicate [scenario] section"));
                    }
                    saw_scenario = true;
                    spec.read_scenario_table(&section.table)?;
                }
                "event" => {
                    let (schedule, event) = parse_event(&section.table)?;
                    spec.timeline = spec.timeline.schedule(schedule, event);
                }
                "trace" => {
                    if spec.trace.is_some() {
                        return Err(err("duplicate [trace] section"));
                    }
                    spec.trace = Some(read_trace_table(&section.table)?);
                }
                "" => return Err(err("keys are only allowed inside sections")),
                other => {
                    let hint = did_you_mean(other, &["scenario", "event", "trace"]);
                    return Err(err(format!("unknown section [{other}]{hint}")));
                }
            }
        }
        if !saw_scenario {
            return Err(err("missing [scenario] section"));
        }
        if spec.graph.is_empty() {
            return Err(err("[scenario] must set graph = \"<spec>\""));
        }
        if !(spec.p > 0.0 && spec.p < 1.0) {
            return Err(err(format!("p must be in (0, 1), got {}", spec.p)));
        }
        spec.check_stack()?;
        Ok(spec)
    }

    /// Builds the graph [`graph`](Self::graph) names.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] at the `graph` key when the grammar refuses the
    /// spec or [`GraphSpec::try_build`] cannot build it.
    pub fn build_graph(&self) -> Result<Graph, SpecError> {
        self.graph
            .parse::<GraphSpec>()
            .and_then(|spec| spec.try_build())
            .map_err(|e| err(format!("graph: {e}")))
    }

    /// The stack rules, in one place: the TOML parser, the JSON
    /// decoder, every runner (after its execution overrides) and
    /// [`validate_scenario`](crate::validate_scenario) all call this,
    /// so a combination no engine can execute fails the same way
    /// wherever it enters, instead of running the wrong stack or
    /// silently dropping a key.
    pub(crate) fn check_stack(&self) -> Result<(), SpecError> {
        let recovery = self.protocol == ProtocolKind::BfwRecovery;
        let sync = self.runtime == RuntimeKind::Sync;
        if !recovery {
            for (key, value) in [
                ("heartbeat", self.heartbeat),
                ("timeout", self.timeout),
                ("grace", self.grace),
            ] {
                if value.is_some() {
                    return Err(err(format!(
                        "{key} requires protocol = \"bfw+recovery\" (plain bfw has no recovery layer)"
                    )));
                }
            }
        }
        if !sync && recovery {
            return Err(err(
                "runtime = \"async\" cannot execute protocol = \"bfw+recovery\": the recovery \
                 layer multiplexes election and heartbeat slots over round parity, which only \
                 exists under synchronous rounds (did you mean protocol = \"bfw\"?)",
            ));
        }
        if sync && self.scheduler.is_some() {
            return Err(err(
                "scheduler requires runtime = \"async\" (synchronous rounds have no activation \
                 scheduler)",
            ));
        }
        if self.kernel == KernelKind::Bit {
            if recovery {
                return Err(err(
                    "kernel = \"bit\" cannot execute protocol = \"bfw+recovery\": the bitplane \
                     kernel packs the six plain BFW states; the recovery layer's epoch-tagged \
                     states do not fit (did you mean kernel = \"generic\"?)",
                ));
            }
            if !sync {
                return Err(err(
                    "kernel = \"bit\" requires synchronous rounds: the bitplane kernel advances \
                     whole words per round, which has no meaning under activation-based \
                     scheduling (did you mean runtime = \"sync\"?)",
                ));
            }
        }
        if self.threads.is_some() {
            if self.kernel == KernelKind::Generic {
                return Err(err(
                    "threads requires the bit kernel: the generic engine steps nodes one at a \
                     time; only the bitplane kernel's word-sharded step fans out across worker \
                     threads (did you mean kernel = \"bit\"?)",
                ));
            }
            if !sync {
                return Err(err(
                    "threads requires synchronous rounds: only the bitplane kernel's \
                     word-sharded step fans out across worker threads, and it has no meaning \
                     under activation-based scheduling (did you mean runtime = \"sync\"?)",
                ));
            }
            if recovery {
                return Err(err(
                    "threads requires protocol = \"bfw\": the recovery layer runs on the \
                     generic engine, which steps nodes one at a time (only the bitplane \
                     kernel's word-sharded step fans out across worker threads)",
                ));
            }
        }
        Ok(())
    }

    fn read_scenario_table(&mut self, table: &Table) -> Result<(), SpecError> {
        for (key, value) in table.entries() {
            match key.as_str() {
                "name" => {
                    self.name = value
                        .as_str()
                        .ok_or_else(|| err("name must be a string"))?
                        .to_owned();
                }
                "graph" => {
                    let text = value
                        .as_str()
                        .ok_or_else(|| err("graph must be a string"))?;
                    self.graph = canonical_graph(text).map_err(|e| err(format!("graph: {e}")))?;
                }
                "p" => {
                    self.p = value.as_float().ok_or_else(|| err("p must be a number"))?;
                }
                "rounds" => self.rounds = read_u64(value, "rounds")?,
                "stability" => self.stability = read_u64(value, "stability")?,
                "seed" => self.seed = read_u64(value, "seed")?,
                "protocol" => self.protocol = read_name(value)?,
                "runtime" => self.runtime = read_name(value)?,
                "scheduler" => self.scheduler = Some(read_name(value)?),
                "kernel" => self.kernel = read_name(value)?,
                "threads" => {
                    let threads = read_u64(value, "threads")?;
                    if threads == 0 {
                        return Err(err("threads must be at least 1"));
                    }
                    self.threads = Some(
                        usize::try_from(threads)
                            .map_err(|_| err(format!("threads: {threads} exceeds usize::MAX")))?,
                    );
                }
                "heartbeat" => self.heartbeat = Some(read_u32(value, "heartbeat")?),
                "timeout" => self.timeout = Some(read_u32(value, "timeout")?),
                "grace" => self.grace = Some(read_u32(value, "grace")?),
                other => {
                    let hint = did_you_mean(other, SCENARIO_KEYS);
                    return Err(err(format!("unknown [scenario] key '{other}'{hint}")));
                }
            }
        }
        Ok(())
    }
}

/// Parses the `[trace]` section into a [`TraceSpec`].
fn read_trace_table(table: &Table) -> Result<TraceSpec, SpecError> {
    let mut trace = TraceSpec::default();
    for (key, value) in table.entries() {
        match key.as_str() {
            "file" => {
                trace.file = Some(
                    value
                        .as_str()
                        .ok_or_else(|| err("file must be a string"))?
                        .to_owned(),
                );
            }
            "last" => {
                let last = read_u64(value, "last")?;
                if last == 0 {
                    return Err(err("last must be at least 1"));
                }
                trace.last = usize::try_from(last)
                    .map_err(|_| err(format!("last: {last} exceeds usize::MAX")))?;
            }
            other => {
                let hint = did_you_mean(other, TRACE_KEYS);
                return Err(err(format!("unknown [trace] key '{other}'{hint}")));
            }
        }
    }
    Ok(trace)
}

/// The legal `[trace]` keys (for "did you mean" hints).
const TRACE_KEYS: &[&str] = &["file", "last"];

/// The legal `[scenario]` keys (for "did you mean" hints).
const SCENARIO_KEYS: &[&str] = &[
    "name",
    "graph",
    "p",
    "rounds",
    "stability",
    "seed",
    "protocol",
    "runtime",
    "scheduler",
    "kernel",
    "threads",
    "heartbeat",
    "timeout",
    "grace",
];

/// The legal `kind` values (for "did you mean" hints).
const EVENT_KINDS: &[&str] = &[
    "crash",
    "crash-random",
    "crash-leader",
    "recover",
    "recover-random",
    "recover-all",
    "add-edge",
    "remove-edge",
    "partition",
    "heal",
    "noise-burst",
    "inject-phantom",
    "inject-dead",
];

fn read_u64(value: &Value, key: &str) -> Result<u64, SpecError> {
    value
        .as_int()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| err(format!("{key} must be a non-negative integer")))
}

fn read_name<T: Named>(value: &Value) -> Result<T, SpecError> {
    let name = value
        .as_str()
        .ok_or_else(|| err(format!("{} must be a string", T::KEY)))?;
    parse_name(name).map_err(err)
}

fn read_u32(value: &Value, key: &str) -> Result<u32, SpecError> {
    read_u64(value, key)
        .and_then(|v| u32::try_from(v).map_err(|_| err(format!("{key}: {v} exceeds u32::MAX"))))
}

fn node_id(id: u64, key: &str) -> Result<NodeId, SpecError> {
    u32::try_from(id)
        .map(NodeId::from_u32)
        .map_err(|_| err(format!("{key}: node id {id} exceeds u32::MAX")))
}

fn read_node(table: &Table, key: &str, kind: &str) -> Result<NodeId, SpecError> {
    let value = table
        .get(key)
        .ok_or_else(|| err(format!("{kind} needs {key} = <node id>")))?;
    node_id(read_u64(value, key)?, key)
}

fn read_prob(table: &Table, key: &str, default: f64) -> Result<f64, SpecError> {
    let Some(value) = table.get(key) else {
        return Ok(default);
    };
    let p = value
        .as_float()
        .ok_or_else(|| err(format!("{key} must be a number")))?;
    if !(0.0..1.0).contains(&p) {
        return Err(err(format!("{key} must be in [0, 1), got {p}")));
    }
    Ok(p)
}

fn parse_schedule(table: &Table) -> Result<Schedule, SpecError> {
    let at = table.get("at");
    let every = table.get("every");
    let rate = table.get("rate");
    match (at, every, rate) {
        (Some(v), None, None) => Ok(Schedule::At(read_u64(v, "at")?)),
        (None, Some(v), None) => {
            let period = read_u64(v, "every")?;
            if period == 0 {
                return Err(err("every must be at least 1"));
            }
            let start = match table.get("start") {
                Some(s) => read_u64(s, "start")?,
                None => period,
            };
            let count = match table.get("count") {
                Some(c) => read_u64(c, "count")?,
                None => 0,
            };
            Ok(Schedule::Every {
                start,
                period,
                count,
            })
        }
        (None, None, Some(v)) => {
            let per_round = v.as_float().ok_or_else(|| err("rate must be a number"))?;
            if !(0.0..1.0).contains(&per_round) {
                return Err(err(format!("rate must be in [0, 1), got {per_round}")));
            }
            let start = match table.get("start") {
                Some(s) => read_u64(s, "start")?,
                None => 1,
            };
            Ok(Schedule::Rate { per_round, start })
        }
        _ => Err(err(
            "each [[event]] needs exactly one of: at = N, every = PERIOD, rate = P",
        )),
    }
}

fn parse_event(table: &Table) -> Result<(Schedule, ScenarioEvent), SpecError> {
    let schedule = parse_schedule(table)?;
    let kind = table
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| err("each [[event]] needs kind = \"<event kind>\""))?;
    // Only the keys of the schedule form actually used are legal, so a
    // stray `count` on an `at` event errors instead of being ignored.
    let mut allowed: Vec<&str> = vec!["kind"];
    match &schedule {
        Schedule::At(_) => allowed.push("at"),
        Schedule::Every { .. } => allowed.extend(["every", "start", "count"]),
        Schedule::Rate { .. } => allowed.extend(["rate", "start"]),
    }
    let event = match kind {
        "crash" => {
            allowed.push("node");
            ScenarioEvent::CrashNode(read_node(table, "node", kind)?)
        }
        "crash-random" => ScenarioEvent::CrashRandom,
        "crash-leader" => ScenarioEvent::CrashLeader,
        "recover" => {
            allowed.push("node");
            ScenarioEvent::RecoverNode(read_node(table, "node", kind)?)
        }
        "recover-random" => ScenarioEvent::RecoverRandom,
        "recover-all" => ScenarioEvent::RecoverAll,
        "add-edge" | "remove-edge" => {
            allowed.extend(["u", "v"]);
            let u = read_node(table, "u", kind)?;
            let v = read_node(table, "v", kind)?;
            if kind == "add-edge" {
                ScenarioEvent::AddEdge(u, v)
            } else {
                ScenarioEvent::RemoveEdge(u, v)
            }
        }
        "partition" => {
            allowed.push("cut");
            let cut = table
                .get("cut")
                .and_then(Value::as_array)
                .ok_or_else(|| err("partition needs cut = [node ids]"))?;
            let side = cut
                .iter()
                .map(|v| read_u64(v, "cut").and_then(|id| node_id(id, "cut")))
                .collect::<Result<Vec<_>, _>>()?;
            ScenarioEvent::Partition { side }
        }
        "heal" => ScenarioEvent::Heal,
        "noise-burst" => {
            allowed.extend(["fn", "fp", "rounds"]);
            ScenarioEvent::NoiseBurst {
                fn_rate: read_prob(table, "fn", 0.0)?,
                fp_rate: read_prob(table, "fp", 0.0)?,
                rounds: match table.get("rounds") {
                    Some(v) => read_u64(v, "rounds")?,
                    None => return Err(err("noise-burst needs rounds = N")),
                },
            }
        }
        "inject-phantom" => {
            allowed.push("waves");
            let waves = match table.get("waves") {
                Some(v) => read_u64(v, "waves")? as usize,
                None => 1,
            };
            ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves })
        }
        "inject-dead" => ScenarioEvent::InjectState(InjectKind::Dead),
        other => {
            let hint = did_you_mean(other, EVENT_KINDS);
            return Err(err(format!("unknown event kind '{other}'{hint}")));
        }
    };
    for (key, _) in table.entries() {
        if !allowed.contains(&key.as_str()) {
            let hint = did_you_mean(key, &allowed);
            return Err(err(format!("event '{kind}' has unknown key '{key}'{hint}")));
        }
    }
    Ok((schedule, event))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RING_CHURN: &str = r#"
[scenario]
name = "ring churn"
graph = "cycle:16"
p = 0.5
rounds = 9000
stability = 25
seed = 7

[[event]]
at = 2000
kind = "crash-leader"

[[event]]
at = 2300
kind = "recover-all"

[[event]]
every = 1500
start = 3000
count = 2
kind = "crash-random"

[[event]]
rate = 0.001
kind = "recover-random"

[[event]]
at = 4000
kind = "partition"
cut = [0, 1, 2, 3]

[[event]]
at = 4500
kind = "heal"

[[event]]
at = 6000
kind = "noise-burst"
fn = 0.1
fp = 0.01
rounds = 200
"#;

    #[test]
    fn full_spec_round_trips() {
        let spec = ScenarioSpec::parse(RING_CHURN).unwrap();
        assert_eq!(spec.name, "ring churn");
        assert_eq!(spec.graph, "cycle:16");
        assert_eq!(spec.p, 0.5);
        assert_eq!(spec.rounds, 9_000);
        assert_eq!(spec.stability, 25);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.timeline.entries().len(), 7);
        assert_eq!(spec.timeline.entries()[0].event, ScenarioEvent::CrashLeader);
        assert_eq!(
            spec.timeline.entries()[2].schedule,
            Schedule::Every {
                start: 3_000,
                period: 1_500,
                count: 2
            }
        );
        assert_eq!(
            spec.timeline.entries()[6].event,
            ScenarioEvent::NoiseBurst {
                fn_rate: 0.1,
                fp_rate: 0.01,
                rounds: 200
            }
        );
    }

    #[test]
    fn defaults_are_sensible() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.p, 0.5);
        assert_eq!(spec.rounds, 10_000);
        assert_eq!(spec.stability, 50);
        assert_eq!(spec.seed, 0);
        assert!(spec.timeline.entries().is_empty());
    }

    #[test]
    fn inject_events_parse() {
        let text = "[scenario]\ngraph = \"cycle:9\"\n\
                    [[event]]\nat = 5\nkind = \"inject-phantom\"\nwaves = 2\n\
                    [[event]]\nat = 9\nkind = \"inject-dead\"";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(
            spec.timeline.entries()[0].event,
            ScenarioEvent::InjectState(InjectKind::PhantomWaves { waves: 2 })
        );
        assert_eq!(
            spec.timeline.entries()[1].event,
            ScenarioEvent::InjectState(InjectKind::Dead)
        );
    }

    #[test]
    fn trace_section_round_trips() {
        // No [trace] section: no tracing requested.
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.trace, None);

        // Bare [trace]: defaults (no file, capacity 256).
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[trace]").unwrap();
        assert_eq!(spec.trace, Some(TraceSpec::default()));
        assert_eq!(spec.trace.unwrap().last, 256);

        // Explicit keys.
        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[trace]\nfile = \"out.json\"\nlast = 32",
        )
        .unwrap();
        assert_eq!(
            spec.trace,
            Some(TraceSpec {
                file: Some("out.json".to_owned()),
                last: 32,
            })
        );
    }

    #[test]
    fn trace_section_errors_are_specific() {
        let dup =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[trace]\n[trace]").unwrap_err();
        assert!(dup.to_string().contains("duplicate [trace]"), "{dup}");

        let zero =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[trace]\nlast = 0").unwrap_err();
        assert!(zero.to_string().contains("at least 1"), "{zero}");

        let bad_key =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[trace]\nlst = 9").unwrap_err();
        assert!(
            bad_key
                .to_string()
                .contains("unknown [trace] key 'lst' (did you mean 'last'?)"),
            "{bad_key}"
        );

        // Misspelled section name hints at [trace] too.
        let bad_section =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[tracee]\nlast = 9").unwrap_err();
        assert!(
            bad_section.to_string().contains("did you mean 'trace'?"),
            "{bad_section}"
        );
    }

    #[test]
    fn protocol_key_round_trips() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.protocol, ProtocolKind::Bfw);
        assert_eq!(spec.heartbeat, None);

        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nprotocol = \"bfw+recovery\"\n\
             heartbeat = 12\ntimeout = 40\ngrace = 36",
        )
        .unwrap();
        assert_eq!(spec.protocol, ProtocolKind::BfwRecovery);
        assert_eq!(spec.heartbeat, Some(12));
        assert_eq!(spec.timeout, Some(40));
        assert_eq!(spec.grace, Some(36));
        assert_eq!(spec.protocol.to_string(), "bfw+recovery");
        assert_eq!(ProtocolKind::Bfw.to_string(), "bfw");
    }

    #[test]
    fn runtime_and_scheduler_keys_round_trip() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.runtime, RuntimeKind::Sync);
        assert_eq!(spec.scheduler, None);
        assert_eq!(RuntimeKind::Sync.to_string(), "sync");

        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nruntime = \"async\"\nscheduler = \"replay\"",
        )
        .unwrap();
        assert_eq!(spec.runtime, RuntimeKind::Async);
        assert_eq!(spec.scheduler, Some(Scheduler::Replay));
        assert_eq!(spec.runtime.to_string(), "async");

        // runtime = "sync" is accepted explicitly.
        let spec =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nruntime = \"sync\"").unwrap();
        assert_eq!(spec.runtime, RuntimeKind::Sync);
    }

    #[test]
    fn kernel_key_round_trips() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.kernel, KernelKind::Auto);
        assert_eq!(KernelKind::Auto.to_string(), "auto");

        for (name, kind) in [
            ("auto", KernelKind::Auto),
            ("generic", KernelKind::Generic),
            ("bit", KernelKind::Bit),
        ] {
            let spec = ScenarioSpec::parse(&format!(
                "[scenario]\ngraph = \"path:4\"\nkernel = \"{name}\""
            ))
            .unwrap();
            assert_eq!(spec.kernel, kind);
            assert_eq!(spec.kernel.to_string(), name);
        }
    }

    #[test]
    fn threads_key_round_trips() {
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"").unwrap();
        assert_eq!(spec.threads, None);

        let spec =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nkernel = \"bit\"\nthreads = 4")
                .unwrap();
        assert_eq!(spec.threads, Some(4));

        // The default (auto) kernel accepts threads too: auto resolves
        // to the bit kernel whenever the stack allows it.
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nthreads = 2").unwrap();
        assert_eq!(spec.threads, Some(2));
        assert_eq!(spec.kernel, KernelKind::Auto);

        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nthreads = 0").unwrap_err();
        assert!(e.to_string().contains("threads must be at least 1"), "{e}");
    }

    /// Sets one `[scenario]` key on a built spec, bypassing the parser.
    fn set(spec: &mut ScenarioSpec, key: &str, value: &str) {
        match key {
            "protocol" => spec.protocol = parse_name(value).unwrap(),
            "runtime" => spec.runtime = parse_name(value).unwrap(),
            "scheduler" => spec.scheduler = Some(parse_name(value).unwrap()),
            "kernel" => spec.kernel = parse_name(value).unwrap(),
            "threads" => spec.threads = Some(value.parse().unwrap()),
            "heartbeat" => spec.heartbeat = Some(value.parse().unwrap()),
            "timeout" => spec.timeout = Some(value.parse().unwrap()),
            other => panic!("no stack key {other}"),
        }
    }

    /// One row per invalid stack: its `[scenario]` keys in file order,
    /// and what the refusal must say. Each row goes through all four
    /// entry points — TOML parse, JSON decode, `run_bfw_scenario` and
    /// `validate_scenario` on the spec built in code — and gets the same
    /// message from each, the decoder reporting it at `/config`.
    #[test]
    fn stack_rules_refuse_at_every_entry_point() {
        use crate::{run_bfw_scenario, spec_from_json, spec_to_json, validate_scenario};
        const ASYNC_RECOVERY: &[&str] = &["synchronous rounds", "did you mean protocol = \"bfw\"?"];
        /// A stack's `[scenario]` keys, and what its refusal says.
        type Row = (
            &'static [(&'static str, &'static str)],
            &'static [&'static str],
        );
        let rows: [Row; 10] = [
            (
                &[("heartbeat", "10")],
                &["heartbeat requires protocol = \"bfw+recovery\""],
            ),
            (
                &[("protocol", "bfw"), ("timeout", "10")],
                &["timeout requires protocol"],
            ),
            (
                &[("runtime", "async"), ("protocol", "bfw+recovery")],
                ASYNC_RECOVERY,
            ),
            (
                &[("protocol", "bfw+recovery"), ("runtime", "async")],
                ASYNC_RECOVERY,
            ),
            (
                &[("scheduler", "uniform")],
                &["scheduler requires runtime = \"async\""],
            ),
            (
                &[("kernel", "bit"), ("protocol", "bfw+recovery")],
                &[
                    "bitplane",
                    "epoch-tagged states",
                    "did you mean kernel = \"generic\"?",
                ],
            ),
            (
                &[("kernel", "bit"), ("runtime", "async")],
                &[
                    "requires synchronous rounds",
                    "did you mean runtime = \"sync\"?",
                ],
            ),
            (
                &[("kernel", "generic"), ("threads", "4")],
                &["threads requires", "did you mean kernel = \"bit\"?"],
            ),
            (
                &[("runtime", "async"), ("threads", "4")],
                &["threads requires", "did you mean runtime = \"sync\"?"],
            ),
            (
                &[("protocol", "bfw+recovery"), ("threads", "4")],
                &["threads requires protocol = \"bfw\""],
            ),
        ];
        let head = "[scenario]\ngraph = \"cycle:12\"\nrounds = 200\n";
        let base = ScenarioSpec::parse(head).unwrap();
        let graph = bfw_graph::generators::cycle(12);
        for (keys, pins) in rows {
            let mut text = head.to_owned();
            let mut spec = base.clone();
            for &(key, value) in keys {
                match value.parse::<u32>() {
                    Ok(n) => text.push_str(&format!("{key} = {n}\n")),
                    Err(_) => text.push_str(&format!("{key} = \"{value}\"\n")),
                }
                set(&mut spec, key, value);
            }
            let parsed = ScenarioSpec::parse(&text).unwrap_err();
            for pin in pins {
                assert!(parsed.message().contains(pin), "{keys:?}: {parsed}");
            }
            let decoded = spec_from_json(&spec_to_json(&spec, 0).render()).unwrap_err();
            assert_eq!(decoded.pointer(), "/config", "{keys:?}: {decoded}");
            assert_eq!(decoded.message(), parsed.message(), "{keys:?}");
            assert_eq!(run_bfw_scenario(&spec, &graph, 1).unwrap_err(), parsed);
            assert_eq!(validate_scenario(&spec, &graph).unwrap_err(), parsed);
        }

        // kernel = "auto" with the recovery layer is a valid stack: auto
        // resolves to the generic engine there.
        let spec = ScenarioSpec::parse(&format!("{head}protocol = \"bfw+recovery\"")).unwrap();
        assert_eq!(spec.kernel, KernelKind::Auto);
        assert_eq!(
            spec_from_json(&spec_to_json(&spec, 0).render()).unwrap(),
            spec
        );
        run_bfw_scenario(&spec, &graph, 1).unwrap();
        validate_scenario(&spec, &graph).unwrap();
    }

    #[test]
    fn unknown_kernel_value_gets_hint() {
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nkernel = \"bits\"").unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown kernel 'bits' (did you mean 'bit'?)"),
            "{e}"
        );
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nkernl = \"bit\"").unwrap_err();
        assert!(e.to_string().contains("did you mean 'kernel'?"), "{e}");
    }

    #[test]
    fn unknown_runtime_and_scheduler_values_get_hints() {
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nruntime = \"asink\"").unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown runtime 'asink' (did you mean 'async'?)"),
            "{e}"
        );
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nruntime = \"async\"\nscheduler = \"unifrm\"",
        )
        .unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown scheduler 'unifrm' (did you mean 'uniform'?)"),
            "{e}"
        );
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\nruntime = \"async\"\nscheduler = \"weigted\"",
        )
        .unwrap_err();
        assert!(e.to_string().contains("did you mean 'weighted'?"), "{e}");
        // Misspelled key names hit the generic key hinting.
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nruntme = \"async\"").unwrap_err();
        assert!(e.to_string().contains("did you mean 'runtime'?"), "{e}");
    }

    #[test]
    fn unknown_names_get_did_you_mean_hints() {
        // Misspelled [scenario] key: hard error with a hint, never
        // silently ignored.
        let e =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nprotcol = \"bfw\"").unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown [scenario] key 'protcol' (did you mean 'protocol'?)"),
            "{e}"
        );

        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nstabilty = 5").unwrap_err();
        assert!(e.to_string().contains("did you mean 'stability'?"), "{e}");

        // Misspelled protocol value.
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nprotocol = \"bfw-recovery\"")
            .unwrap_err();
        assert!(
            e.to_string()
                .contains("unknown protocol 'bfw-recovery' (did you mean 'bfw+recovery'?)"),
            "{e}"
        );

        // Misspelled event kind and event key.
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"crash-leadr\"",
        )
        .unwrap_err();
        assert!(
            e.to_string().contains("did you mean 'crash-leader'?"),
            "{e}"
        );
        let e = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"crash\"\nnode = 3\nnodee = 4",
        )
        .unwrap_err();
        assert!(e.to_string().contains("did you mean 'node'?"), "{e}");

        // Misspelled section name.
        let e = ScenarioSpec::parse("[scenaro]\ngraph = \"path:4\"").unwrap_err();
        assert!(e.to_string().contains("did you mean 'scenario'?"), "{e}");

        // Nothing close: no hint.
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\nxyzzy = 1").unwrap_err();
        assert!(!e.to_string().contains("did you mean"), "{e}");
    }

    #[test]
    fn graph_is_checked_at_its_key_and_kept_canonical() {
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"cylce:12\"").unwrap_err();
        assert!(
            e.to_string().starts_with(
                "scenario spec: graph: invalid graph spec: unknown graph kind 'cylce' \
                 (did you mean 'cycle'?)"
            ),
            "{e}"
        );
        let e = ScenarioSpec::parse("[scenario]\ngraph = \"cycle:2\"").unwrap_err();
        assert!(
            e.to_string()
                .contains("graph: invalid graph spec: cycle:2: "),
            "{e}"
        );
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"cycle:012\"").unwrap();
        assert_eq!(spec.graph, "cycle:12");
        assert_eq!(spec.build_graph().unwrap().node_count(), 12);
        // The grammar holds, but the graph cannot be built.
        let spec = ScenarioSpec::parse("[scenario]\ngraph = \"er:10:0:1\"").unwrap();
        let e = spec.build_graph().unwrap_err().to_string();
        assert!(
            e.starts_with("scenario spec: graph: invalid graph spec: er:10:0:1: "),
            "{e}"
        );
    }

    #[test]
    fn errors_are_specific() {
        let missing_graph = ScenarioSpec::parse("[scenario]\nname = \"x\"").unwrap_err();
        assert!(missing_graph.to_string().contains("graph"));

        let no_section = ScenarioSpec::parse("graph = \"path:4\"").unwrap_err();
        assert!(no_section.to_string().contains("inside sections"));

        let bad_kind = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"explode\"",
        )
        .unwrap_err();
        assert!(bad_kind.to_string().contains("unknown event kind"));

        let no_schedule =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[[event]]\nkind = \"heal\"")
                .unwrap_err();
        assert!(no_schedule.to_string().contains("exactly one of"));

        let two_schedules = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nrate = 0.1\nkind = \"heal\"",
        )
        .unwrap_err();
        assert!(two_schedules.to_string().contains("exactly one of"));

        let stray_key = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"heal\"\nnode = 3",
        )
        .unwrap_err();
        assert!(stray_key.to_string().contains("unknown key 'node'"));

        // Schedule keys from the *other* forms are rejected too: a
        // `count` on an `at` event would otherwise be silently ignored.
        let stray_count = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\ncount = 3\nkind = \"crash-random\"",
        )
        .unwrap_err();
        assert!(
            stray_count.to_string().contains("unknown key 'count'"),
            "{stray_count}"
        );
        let stray_start = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nrate = 0.1\ncount = 2\nkind = \"heal\"",
        )
        .unwrap_err();
        assert!(
            stray_start.to_string().contains("unknown key 'count'"),
            "{stray_start}"
        );

        let bad_p = ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\np = 1.5").unwrap_err();
        assert!(bad_p.to_string().contains("p must be in (0, 1)"));

        // Node ids beyond u32::MAX must error, not panic.
        let huge = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"crash\"\nnode = 4294967296",
        )
        .unwrap_err();
        assert!(huge.to_string().contains("exceeds u32::MAX"), "{huge}");
        let huge_cut = ScenarioSpec::parse(
            "[scenario]\ngraph = \"path:4\"\n[[event]]\nat = 1\nkind = \"partition\"\ncut = [4294967296]",
        )
        .unwrap_err();
        assert!(
            huge_cut.to_string().contains("exceeds u32::MAX"),
            "{huge_cut}"
        );

        let bad_section =
            ScenarioSpec::parse("[scenario]\ngraph = \"path:4\"\n[wat]\nx = 1").unwrap_err();
        assert!(bad_section.to_string().contains("unknown section"));
    }
}
