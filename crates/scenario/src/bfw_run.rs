//! BFW-specific wiring: injectors, the one host builder, and the
//! driver every scenario runner — straight run, `step`, resume — goes
//! through. The hosts are the bit kernel's `BitNetwork` and three
//! `TickEngine` models — the beeping `Network`, the recovery layer's
//! network and the asynchronous stone-age network — all driven by the
//! same [`Engine`] through [`DynamicHost`].

use crate::{
    DynamicHost, Engine, EngineSnapshot, InjectKind, Injector, KernelKind, ProtocolKind,
    RuntimeKind, ScenarioEvent, ScenarioOutcome, ScenarioSpec, ScenarioTrace, SpecError,
};
use bfw_core::{
    adversarial, Bfw, BfwState, BitNetwork, RecoveringNetwork, RecoveringProtocol, RecoveryConfig,
    RecoveryState,
};
use bfw_graph::{algo, Graph};
use bfw_sim::stone_age::{AsyncStoneAgeNetwork, BeepingAsStoneAge};
use bfw_sim::{Network, Topology};

/// The injector resolving [`InjectKind`] into BFW configurations from
/// `bfw_core::adversarial` (Section 5 of the paper).
///
/// `PhantomWaves { waves }` resolves only when the wave-spacing
/// preconditions hold (`n ≥ 3·waves`, `waves | n`); otherwise the event
/// is skipped and logged — a scenario typo should not panic a run.
pub fn bfw_injector() -> Injector<BfwState> {
    Box::new(|kind, n| match *kind {
        InjectKind::PhantomWaves { waves } => {
            if waves == 0 || n < 3 * waves || n % waves != 0 {
                None
            } else {
                Some(adversarial::leaderless_wave_cycle(n, waves))
            }
        }
        InjectKind::Dead => Some(adversarial::dead_configuration(n)),
    })
}

/// The [`bfw_injector`] lifted to the recovery layer: the same Section 5
/// configurations, wrapped into fresh [`RecoveryState`]s (normal
/// operation, detection clock reset — the runtime stamps the slot
/// parity on installation, so injection at any round stays
/// phase-synchronized).
pub fn recovering_bfw_injector() -> Injector<RecoveryState<BfwState>> {
    let base = bfw_injector();
    Box::new(move |kind, n| {
        base(kind, n).map(|states| states.into_iter().map(RecoveryState::rejoining).collect())
    })
}

/// The worst-case eccentricity the recovery layer's relay window must
/// cover for this scenario. A timeline containing distance-*stretching*
/// events can push eccentricities past the initial diameter — a window
/// sized to the intact graph would then strand distant nodes outside
/// every sweep and trigger perpetual false restarts — so those
/// scenarios use the graph-independent bound `n - 1` (no connected
/// subgraph on `n` nodes exceeds it). Stretching events are the
/// topology cuts (`remove-edge`, `partition`) **and every crash kind**:
/// a crashed node neither beeps nor relays, so heartbeat sweeps must
/// detour around it through the alive subgraph, whose distances can
/// exceed the intact diameter. Static and distance-shrinking timelines
/// keep the exact initial diameter (disconnected inputs fall back to
/// `n`) unless its all-pairs BFS would pass
/// [`algo::MAX_DIAMETER_WORK`]; such graphs use `n - 1` too, which
/// bounds every eccentricity.
fn eccentricity_bound(spec: &ScenarioSpec, graph: &Graph) -> u32 {
    let n = graph.node_count() as u32;
    let stretching = spec.timeline.entries().iter().any(|entry| {
        matches!(
            entry.event,
            ScenarioEvent::RemoveEdge(..)
                | ScenarioEvent::Partition { .. }
                | ScenarioEvent::CrashNode(..)
                | ScenarioEvent::CrashRandom
                | ScenarioEvent::CrashLeader
        )
    });
    let work = algo::diameter_work(f64::from(n), graph.edge_count() as f64);
    if stretching || work > algo::MAX_DIAMETER_WORK as f64 {
        n.saturating_sub(1)
    } else {
        algo::diameter(graph).unwrap_or(n)
    }
}

/// Resolves a spec's recovery timing against a concrete graph: start
/// from [`RecoveryConfig::for_diameter`] over the scenario's worst-case
/// eccentricity bound — the initial diameter, or `n - 1` when the
/// timeline contains distance-stretching events (`remove-edge`,
/// `partition`, crashes), which can push eccentricities past the
/// intact diameter, or when the graph is too large for an exact
/// diameter — and apply the spec's explicit `heartbeat` / `timeout` /
/// `grace` overrides.
///
/// # Errors
///
/// Returns a [`SpecError`] when the overridden combination violates the
/// layer's timing constraints (see [`RecoveryConfig::try_new`]), or
/// when the resulting relay window cannot cover the scenario's
/// worst-case eccentricity (a heartbeat sweep that cannot reach every
/// node would silently break the election) — a scenario typo must fail
/// with a message, not panic the run or corrupt it.
pub fn scenario_recovery_config(
    spec: &ScenarioSpec,
    graph: &Graph,
) -> Result<RecoveryConfig, SpecError> {
    let bound = eccentricity_bound(spec, graph);
    let auto = RecoveryConfig::for_diameter(bound);
    let config = RecoveryConfig::try_new(
        spec.heartbeat.unwrap_or(auto.heartbeat_period),
        spec.timeout.unwrap_or(auto.timeout),
        spec.grace.unwrap_or(auto.grace),
    )
    .map_err(|message| SpecError::new(format!("recovery timing: {message}")))?;
    if config.relay_window() < bound {
        return Err(SpecError::new(format!(
            "recovery timing: relay window {} (heartbeat {} minus the forbidden zone) \
             cannot cover this scenario's worst-case eccentricity {bound}; \
             raise heartbeat to at least {}",
            config.relay_window(),
            config.heartbeat_period,
            bound + bfw_core::recovery::FORBIDDEN_PHASES
        )));
    }
    Ok(config)
}

/// Node-count threshold above which `kernel = "auto"` picks the
/// bit-parallel kernel for plain synchronous BFW. Below it the generic
/// engine's per-node loop is already fast enough that kernel choice is
/// a wash; above it the bitplane path wins by word-level parallelism.
const AUTO_BIT_THRESHOLD: usize = 4096;

/// Resolves a spec's `kernel` key against a concrete node count:
/// explicit choices pass through; `auto` picks [`KernelKind::Bit`] for
/// plain synchronous BFW on graphs of at least 4096 nodes — **or at any
/// size when the spec carries an explicit `threads` count**, since only
/// the bit kernel shards its step and resolving to the generic engine
/// would silently ignore the requested thread count — and
/// [`KernelKind::Generic`] otherwise. The resolution never changes
/// outcomes — the kernels are byte-identical at a fixed seed.
pub fn resolved_kernel(spec: &ScenarioSpec, n: usize) -> KernelKind {
    match spec.kernel {
        KernelKind::Auto => {
            if spec.protocol == ProtocolKind::Bfw
                && spec.runtime == RuntimeKind::Sync
                && (n >= AUTO_BIT_THRESHOLD || spec.threads.is_some())
            {
                KernelKind::Bit
            } else {
                KernelKind::Generic
            }
        }
        explicit => explicit,
    }
}

/// Cap on the default worker-thread count for the bit kernel's
/// word-sharded step. Beyond ~8 shards the per-step scope spawn/join
/// overhead eats the propagation win on all but the very largest
/// graphs, so auto-detection stops there; an explicit `threads` key or
/// `--threads` flag can still ask for more.
const DEFAULT_THREAD_CAP: usize = 8;

/// Resolves a spec's `threads` key: explicit choices pass through;
/// unset picks the host's available parallelism capped at
/// `DEFAULT_THREAD_CAP` (8). The resolution never changes outcomes — the
/// bit kernel's sharded step is byte-identical at every thread count.
pub fn resolved_threads(spec: &ScenarioSpec) -> usize {
    spec.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(DEFAULT_THREAD_CAP)
    })
}

/// Runs a parsed [`ScenarioSpec`] on `graph`, seeding both the protocol
/// execution and the scenario stream from `seed`.
///
/// The spec's `protocol` key selects the stack: plain BFW on a
/// [`Network`] (or the bit-parallel [`BitNetwork`], see
/// [`resolved_kernel`]), or `bfw+recovery` — BFW wrapped in the
/// self-healing recovery layer — on a [`RecoveringNetwork`] (slot parity
/// kept synchronized for mid-run rejoiners), with the timing resolved by
/// [`scenario_recovery_config`]. The spec's `runtime` key selects the
/// executor: synchronous rounds (the default), or `runtime = "async"`
/// — BFW as a stone-age protocol on the [`AsyncStoneAgeNetwork`], one
/// activation per tick, with the spec's `scheduler` installed and every
/// timeline position (and the horizon) read in **activations**. The
/// caller resolves the spec's `graph` string to a concrete [`Graph`]
/// (the CLI uses `bfw-bench`'s `GraphSpec` syntax); everything else —
/// protocol, timeline, injection, metrics — is wired here. Same
/// `(spec, graph, seed)` ⇒ byte-identical [`ScenarioOutcome`].
///
/// A straight run is the lifecycle's run from round 0 to the horizon:
/// `step N` then resuming to the horizon produces the same outcome.
///
/// # Errors
///
/// Returns a [`SpecError`] when the spec's stack breaks a rule the
/// parser enforces (programmatically built specs fail here, with the
/// parser's message), or when its recovery-timing overrides are invalid
/// for this graph (see [`scenario_recovery_config`]).
pub fn run_bfw_scenario(
    spec: &ScenarioSpec,
    graph: &Graph,
    seed: u64,
) -> Result<ScenarioOutcome, SpecError> {
    run_bfw_scenario_traced(spec, graph, seed, None).map(|(outcome, _)| outcome)
}

/// [`run_bfw_scenario`] with optional complexity instrumentation.
///
/// `trace = Some(capacity)` enables the host's instrumentation seam
/// (see [`bfw_sim::instrument`]) with a flight recorder holding the
/// last `capacity` events, and returns the resulting [`ScenarioTrace`]
/// alongside the outcome; `trace = None` runs exactly like
/// [`run_bfw_scenario`] and returns no trace. Instrumentation is
/// strictly passive — it never draws from an RNG stream — so the
/// [`ScenarioOutcome`] is byte-identical either way at the same seed.
///
/// # Errors
///
/// Same as [`run_bfw_scenario`].
pub fn run_bfw_scenario_traced(
    spec: &ScenarioSpec,
    graph: &Graph,
    seed: u64,
    trace: Option<usize>,
) -> Result<(ScenarioOutcome, Option<ScenarioTrace>), SpecError> {
    let leg = Leg {
        spec,
        graph,
        seed,
        from: None,
        target: spec.rounds,
        kernel: None,
        threads: None,
        trace,
    };
    leg.run(RunTo)
}

/// Receives the host a [`Leg`] runs on.
pub(crate) trait OnHost: Sized {
    /// What the leg produces.
    type Output;
    /// Runs plain BFW on the generic, bit or async engine.
    fn bfw<H: DynamicHost<State = BfwState>>(self, leg: &Leg<'_>, host: H) -> LegResult<Self>;
    /// Runs BFW under the recovery layer.
    fn recovering(self, leg: &Leg<'_>, host: RecoveringNetwork<Bfw>) -> LegResult<Self>;
}

/// What running a [`Leg`] with the finisher `F` returns.
pub(crate) type LegResult<F> = Result<<F as OnHost>::Output, SpecError>;

/// One stretch of a scenario run on `graph`: from round 0, or from the
/// snapshot `from`, up to round `target`.
pub(crate) struct Leg<'a> {
    /// The spec whose timeline, horizon and stability window the engine
    /// follows (a snapshot's embedded spec).
    pub spec: &'a ScenarioSpec,
    pub graph: &'a Graph,
    /// The run's effective seed.
    pub seed: u64,
    pub from: Option<&'a EngineSnapshot>,
    pub target: u64,
    /// Execution overrides of the spec's `kernel` and `threads`: they
    /// pick the engine only, never what a snapshot embeds.
    pub kernel: Option<KernelKind>,
    pub threads: Option<usize>,
    /// Flight-recorder capacity when the leg is traced.
    pub trace: Option<usize>,
}

impl Leg<'_> {
    /// Builds the host the spec selects, execution overrides applied,
    /// and hands it to `finish`: the one place each of the four
    /// scenario hosts is constructed. `runtime = "async"` gets the
    /// asynchronous stone-age network with the spec's scheduler, a
    /// `TickEngine` that moves one node per tick; `bfw+recovery` gets
    /// the recovery layer on the generic engine, timed by
    /// [`scenario_recovery_config`]; plain synchronous BFW gets the bit
    /// kernel on [`resolved_threads`] workers when [`resolved_kernel`]
    /// picks it, the generic [`Network`] otherwise. The stack rules are
    /// checked first, so no host is built for a spec no runner accepts.
    pub fn run<F: OnHost>(&self, finish: F) -> LegResult<F> {
        let spec = ScenarioSpec {
            kernel: self.kernel.unwrap_or(self.spec.kernel),
            threads: self.threads.or(self.spec.threads),
            ..self.spec.clone()
        };
        spec.check_stack()?;
        let topology = Topology::from(self.graph.clone());
        if spec.runtime == RuntimeKind::Async {
            let protocol = BeepingAsStoneAge::new(Bfw::new(spec.p));
            let mut host = AsyncStoneAgeNetwork::new(protocol, topology, self.seed);
            host.set_scheduler(spec.scheduler.unwrap_or_default());
            return finish.bfw(self, host);
        }
        if spec.protocol == ProtocolKind::BfwRecovery {
            let config = scenario_recovery_config(&spec, self.graph)?;
            let protocol = RecoveringProtocol::bfw(spec.p, config);
            return finish.recovering(self, RecoveringNetwork::new(protocol, topology, self.seed));
        }
        if resolved_kernel(&spec, self.graph.node_count()) == KernelKind::Bit {
            let mut host = BitNetwork::new(Bfw::new(spec.p), topology, self.seed);
            host.set_threads(resolved_threads(&spec));
            finish.bfw(self, host)
        } else {
            finish.bfw(self, Network::new(Bfw::new(spec.p), topology, self.seed))
        }
    }

    /// Restores a plain-BFW host to the snapshot the leg resumes (a
    /// fresh leg leaves it as built).
    pub fn restored<H: DynamicHost<State = BfwState>>(&self, mut host: H) -> H {
        if let Some(snap) = self.from {
            host.restore(&snap.checkpoint, snap.states.clone());
        }
        host
    }

    /// Wraps `host` in an engine at the leg's start and runs it to the
    /// leg's target round.
    pub fn drive<H: DynamicHost>(&self, mut host: H, injector: Injector<H::State>) -> Engine<H> {
        if let Some(capacity) = self.trace {
            host.enable_instrumentation(Some(capacity));
        }
        let spec = self.spec;
        let mut engine = match self.from {
            None => Engine::new(
                host,
                self.graph,
                &spec.timeline,
                spec.rounds,
                self.seed,
                spec.stability,
            ),
            Some(snap) => Engine::resume(
                host,
                &spec.timeline,
                spec.rounds,
                self.seed,
                snap.cursor.clone(),
            ),
        }
        .with_injector(injector);
        engine.run_until(self.target);
        engine
    }
}

/// Ends a leg with the run's outcome, and its trace when the leg was
/// traced.
pub(crate) struct RunTo;

impl OnHost for RunTo {
    type Output = (ScenarioOutcome, Option<ScenarioTrace>);

    fn bfw<H: DynamicHost<State = BfwState>>(self, leg: &Leg<'_>, host: H) -> LegResult<Self> {
        Ok(outcome(leg.drive(leg.restored(host), bfw_injector())))
    }

    fn recovering(self, leg: &Leg<'_>, host: RecoveringNetwork<Bfw>) -> LegResult<Self> {
        if leg.from.is_some() {
            return Err(no_snapshot_encoding());
        }
        Ok(outcome(leg.drive(host, recovering_bfw_injector())))
    }
}

fn outcome<H: DynamicHost>(engine: Engine<H>) -> (ScenarioOutcome, Option<ScenarioTrace>) {
    let trace = engine.trace();
    (engine.into_outcome().0, trace)
}

/// The lifecycle refusal for `bfw+recovery`: its states cannot be
/// captured or restored.
pub(crate) fn no_snapshot_encoding() -> SpecError {
    SpecError::new(
        "scenario lifecycle verbs support protocol = \"bfw\" only: the recovery layer's \
         epoch-tagged states have no snapshot encoding (use 'scenario run' for \
         bfw+recovery)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfw_graph::generators;

    const CHURN: &str = r#"
[scenario]
name = "test churn"
graph = "cycle:12"
rounds = 15000
stability = 20

[[event]]
at = 4000
kind = "crash-leader"

[[event]]
at = 4200
kind = "recover-all"
"#;

    #[test]
    fn spec_runner_measures_recovery() {
        let spec = ScenarioSpec::parse(CHURN).unwrap();
        let outcome = run_bfw_scenario(&spec, &generators::cycle(12), 42).unwrap();
        assert_eq!(outcome.rounds_run, 15_000);
        // Two disruptions (crash, rejoin), each with its own window,
        // both answered by the same stable leader.
        assert_eq!(outcome.recoveries.len(), 2, "{outcome:?}");
        assert_eq!(outcome.recoveries[0].disrupted_at, 4_000);
        assert_eq!(outcome.recoveries[1].disrupted_at, 4_200);
        assert!(outcome.recoveries[0].recovered_at >= 4_200);
        assert_eq!(outcome.final_leaders.len(), 1);
    }

    #[test]
    fn spec_runner_is_byte_deterministic() {
        let spec = ScenarioSpec::parse(CHURN).unwrap();
        let g = generators::cycle(12);
        let a = run_bfw_scenario(&spec, &g, 7).unwrap().to_text();
        let b = run_bfw_scenario(&spec, &g, 7).unwrap().to_text();
        assert_eq!(a, b);
        // The report exposes only a few seed-sensitive fields (elected
        // leader identity, latencies), so any single pair of seeds can
        // collide; across several seeds the outcomes must differ.
        let distinct: std::collections::HashSet<String> = (7..15u64)
            .map(|seed| run_bfw_scenario(&spec, &g, seed).unwrap().to_text())
            .collect();
        assert!(distinct.len() > 1, "seeds must matter");
    }

    #[test]
    fn recovery_protocol_spec_runs_and_is_deterministic() {
        let text = CHURN.replace(
            "stability = 20",
            "stability = 20\nprotocol = \"bfw+recovery\"",
        );
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec.protocol, ProtocolKind::BfwRecovery);
        let g = generators::cycle(12);
        let a = run_bfw_scenario(&spec, &g, 42).unwrap();
        assert_eq!(a, run_bfw_scenario(&spec, &g, 42).unwrap());
        assert_eq!(a.final_leaders.len(), 1, "{}", a.to_text());
        assert_eq!(a.pending_disruption, None, "{}", a.to_text());
    }

    #[test]
    fn recovery_config_resolution_uses_diameter_and_overrides() {
        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"cycle:12\"\nprotocol = \"bfw+recovery\"\ntimeout = 99",
        )
        .unwrap();
        let cfg = scenario_recovery_config(&spec, &generators::cycle(12)).unwrap();
        // cycle(12) has diameter 6: auto period 11, auto grace 33.
        assert_eq!(cfg.heartbeat_period, 11);
        assert_eq!(cfg.timeout, 99, "explicit override wins");
        assert_eq!(cfg.grace, 33);
    }

    #[test]
    fn graphs_past_the_bfs_limit_get_the_n_minus_one_timing() {
        // cycle:100000 needs ≈3·10¹⁰ BFS steps for its diameter (50000),
        // past the limit: even a static timeline is timed for n - 1,
        // and no BFS runs (it would take minutes in a debug build).
        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"cycle:100000\"\nprotocol = \"bfw+recovery\"",
        )
        .unwrap();
        let cfg = scenario_recovery_config(&spec, &generators::cycle(100_000)).unwrap();
        assert_eq!(cfg, RecoveryConfig::for_diameter(99_999));
    }

    #[test]
    fn stretching_timelines_size_the_window_to_worst_case() {
        // A remove-edge (or partition) can raise eccentricities past
        // the initial diameter; the auto timing must then cover the
        // graph-independent bound n - 1 instead of the intact diameter
        // (a window sized to the intact cycle would strand the far
        // nodes outside every sweep and restart them forever).
        let text = "[scenario]\ngraph = \"cycle:12\"\nprotocol = \"bfw+recovery\"\n\
                    [[event]]\nat = 100\nkind = \"remove-edge\"\nu = 0\nv = 11";
        let spec = ScenarioSpec::parse(text).unwrap();
        let cfg = scenario_recovery_config(&spec, &generators::cycle(12)).unwrap();
        assert_eq!(
            cfg.heartbeat_period, 16,
            "sized to n - 1 = 11, not diameter 6"
        );
        assert!(cfg.relay_window() >= 11);
        // The run itself must stay stable: the cycle degrades to a
        // path, the leader survives, and nothing ever restarts
        // spuriously.
        for seed in [6u64, 9, 10] {
            let outcome = run_bfw_scenario(&spec, &generators::cycle(12), seed).unwrap();
            assert_eq!(
                outcome.final_leaders.len(),
                1,
                "seed {seed}: {}",
                outcome.to_text()
            );
            assert_eq!(outcome.pending_disruption, None, "seed {seed}");
        }
    }

    #[test]
    fn undersized_override_window_is_rejected() {
        // heartbeat = 6 gives a relay window of 2: a sweep could never
        // cover cycle:32 (diameter 16), so the election would silently
        // shatter into simultaneous restarts. Must be a hard error.
        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"cycle:32\"\nprotocol = \"bfw+recovery\"\n\
             heartbeat = 6\ntimeout = 20",
        )
        .unwrap();
        let err = scenario_recovery_config(&spec, &generators::cycle(32)).unwrap_err();
        assert!(err.to_string().contains("cannot cover"), "{err}");
        assert!(err.to_string().contains("raise heartbeat"), "{err}");
        let err = run_bfw_scenario(&spec, &generators::cycle(32), 1).unwrap_err();
        assert!(err.to_string().contains("eccentricity"), "{err}");
    }

    #[test]
    fn invalid_recovery_timing_is_an_error_not_a_panic() {
        // heartbeat = 3 cannot host the forbidden zone: the run must
        // fail with a message (the CLI prints it), never panic.
        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"cycle:8\"\nprotocol = \"bfw+recovery\"\nheartbeat = 3",
        )
        .unwrap();
        let err = run_bfw_scenario(&spec, &generators::cycle(8), 1).unwrap_err();
        assert!(err.to_string().contains("recovery timing"), "{err}");
        assert!(err.to_string().contains("forbidden zone"), "{err}");
        // timeout below the (diameter-derived) period: same treatment.
        let spec = ScenarioSpec::parse(
            "[scenario]\ngraph = \"cycle:8\"\nprotocol = \"bfw+recovery\"\ntimeout = 2",
        )
        .unwrap();
        let err = scenario_recovery_config(&spec, &generators::cycle(8)).unwrap_err();
        assert!(err.to_string().contains("must exceed"), "{err}");
    }

    #[test]
    fn async_runtime_spec_runs_and_is_deterministic() {
        let text = CHURN.replace(
            "stability = 20",
            "stability = 20\nruntime = \"async\"\nscheduler = \"uniform\"",
        );
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec.runtime, crate::RuntimeKind::Async);
        let g = generators::cycle(12);
        let a = run_bfw_scenario(&spec, &g, 42).unwrap();
        let b = run_bfw_scenario(&spec, &g, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.rounds_run, 15_000, "horizon read in activations");
        // Different schedulers genuinely change the execution.
        let weighted = ScenarioSpec {
            scheduler: Some(bfw_sim::Scheduler::Weighted),
            ..spec.clone()
        };
        let replay = ScenarioSpec {
            scheduler: Some(bfw_sim::Scheduler::Replay),
            ..spec
        };
        let w = run_bfw_scenario(&weighted, &g, 42).unwrap();
        let r = run_bfw_scenario(&replay, &g, 42).unwrap();
        assert!(a != w || a != r, "schedulers must matter");
    }

    #[test]
    fn trace_does_not_perturb_outcomes() {
        // The determinism contract of the instrumentation seam: a
        // traced run's result block is byte-identical to the untraced
        // run at the same seed, on every runtime stack. Samplers only
        // read caches — they never draw from an RNG stream.
        let g = generators::cycle(12);
        let sync_spec = ScenarioSpec::parse(CHURN).unwrap();
        let recovery_spec = ScenarioSpec::parse(&CHURN.replace(
            "stability = 20",
            "stability = 20\nprotocol = \"bfw+recovery\"",
        ))
        .unwrap();
        let async_spec = ScenarioSpec::parse(
            &CHURN.replace("stability = 20", "stability = 20\nruntime = \"async\""),
        )
        .unwrap();
        for (label, spec) in [
            ("sync bfw", &sync_spec),
            ("bfw+recovery", &recovery_spec),
            ("async", &async_spec),
        ] {
            for seed in [7u64, 42] {
                let plain = run_bfw_scenario(spec, &g, seed).unwrap();
                let (traced, trace) = run_bfw_scenario_traced(spec, &g, seed, Some(64)).unwrap();
                assert_eq!(
                    plain.to_text(),
                    traced.to_text(),
                    "{label} seed {seed}: trace must not perturb the outcome"
                );
                assert_eq!(plain, traced, "{label} seed {seed}");
                let trace = trace.expect("instrumentation was on");
                assert!(trace.ledger.steps() > 0, "{label} seed {seed}");
                assert!(trace.ledger.messages() > 0, "{label} seed {seed}");
                let recorder = trace.recorder.expect("recorder was attached");
                assert!(
                    recorder.events().any(|e| e.kind == "scenario-event"),
                    "{label} seed {seed}: scenario events must be recorded"
                );
            }
        }
    }

    #[test]
    fn untraced_runner_returns_no_trace() {
        let spec = ScenarioSpec::parse(CHURN).unwrap();
        let (_, trace) = run_bfw_scenario_traced(&spec, &generators::cycle(12), 42, None).unwrap();
        assert_eq!(trace, None);
    }

    #[test]
    fn traced_runner_measures_recovery_costs() {
        let spec = ScenarioSpec::parse(CHURN).unwrap();
        let g = generators::cycle(12);
        let (outcome, trace) = run_bfw_scenario_traced(&spec, &g, 42, Some(256)).unwrap();
        let trace = trace.unwrap();
        // One cost entry per completed recovery, and recovering costs
        // channel work (the network keeps beeping through recovery).
        assert_eq!(trace.recovery_costs.len(), outcome.recoveries.len());
        assert!(
            trace.recovery_costs.iter().all(|&(b, m)| b > 0 && m > 0),
            "{:?}",
            trace.recovery_costs
        );
        // Determinism extends to the trace artifacts themselves.
        let (_, again) = run_bfw_scenario_traced(&spec, &g, 42, Some(256)).unwrap();
        assert_eq!(trace, again.unwrap());
    }

    #[test]
    fn kernel_resolution_is_size_and_stack_aware() {
        let spec = ScenarioSpec::parse(CHURN).unwrap();
        assert_eq!(spec.kernel, KernelKind::Auto);
        assert_eq!(resolved_kernel(&spec, 12), KernelKind::Generic);
        assert_eq!(resolved_kernel(&spec, 4095), KernelKind::Generic);
        assert_eq!(resolved_kernel(&spec, 4096), KernelKind::Bit);
        assert_eq!(resolved_kernel(&spec, 1_000_000), KernelKind::Bit);

        // Explicit choices pass through regardless of size.
        let bit = ScenarioSpec {
            kernel: KernelKind::Bit,
            ..spec.clone()
        };
        assert_eq!(resolved_kernel(&bit, 12), KernelKind::Bit);
        let generic = ScenarioSpec {
            kernel: KernelKind::Generic,
            ..spec.clone()
        };
        assert_eq!(resolved_kernel(&generic, 1_000_000), KernelKind::Generic);

        // Auto never picks bit on stacks that cannot run it.
        let recovery = ScenarioSpec {
            protocol: ProtocolKind::BfwRecovery,
            ..spec.clone()
        };
        assert_eq!(resolved_kernel(&recovery, 1_000_000), KernelKind::Generic);
        let asynch = ScenarioSpec {
            runtime: RuntimeKind::Async,
            ..spec
        };
        assert_eq!(resolved_kernel(&asynch, 1_000_000), KernelKind::Generic);
    }

    #[test]
    fn bit_kernel_scenario_outcomes_match_generic() {
        // The full scenario stack — churn timeline, injectors, recovery
        // windows — run on both kernels must be byte-identical.
        let base = ScenarioSpec::parse(CHURN).unwrap();
        let g = generators::cycle(12);
        for seed in [7u64, 42] {
            let generic = run_bfw_scenario(
                &ScenarioSpec {
                    kernel: KernelKind::Generic,
                    ..base.clone()
                },
                &g,
                seed,
            )
            .unwrap();
            let bit = run_bfw_scenario(
                &ScenarioSpec {
                    kernel: KernelKind::Bit,
                    ..base.clone()
                },
                &g,
                seed,
            )
            .unwrap();
            assert_eq!(generic, bit, "seed {seed}");
            assert_eq!(generic.to_text(), bit.to_text(), "seed {seed}");
        }
    }

    #[test]
    fn bit_kernel_trace_does_not_perturb_outcomes() {
        let spec = ScenarioSpec {
            kernel: KernelKind::Bit,
            ..ScenarioSpec::parse(CHURN).unwrap()
        };
        let g = generators::cycle(12);
        let plain = run_bfw_scenario(&spec, &g, 42).unwrap();
        let (traced, trace) = run_bfw_scenario_traced(&spec, &g, 42, Some(64)).unwrap();
        assert_eq!(plain, traced);
        let trace = trace.expect("instrumentation was on");
        assert!(trace.ledger.steps() > 0);
        assert!(trace.ledger.messages() > 0);
    }

    #[test]
    fn thread_count_never_changes_scenario_outcomes() {
        // The tentpole determinism contract at the scenario level: the
        // bit kernel's word-sharded step is byte-identical at every
        // thread count, through the full stack — churn timeline,
        // injectors, faults, report text.
        let base = ScenarioSpec {
            kernel: KernelKind::Bit,
            ..ScenarioSpec::parse(CHURN).unwrap()
        };
        let g = generators::cycle(12);
        for seed in [7u64, 42] {
            let serial = run_bfw_scenario(&base, &g, seed).unwrap();
            for threads in [2usize, 7] {
                let spec = ScenarioSpec {
                    threads: Some(threads),
                    ..base.clone()
                };
                let sharded = run_bfw_scenario(&spec, &g, seed).unwrap();
                assert_eq!(serial, sharded, "threads={threads} seed={seed}");
                assert_eq!(
                    serial.to_text(),
                    sharded.to_text(),
                    "threads={threads} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn resolved_threads_defaults_to_capped_parallelism() {
        let spec = ScenarioSpec::parse(CHURN).unwrap();
        let auto = resolved_threads(&spec);
        assert!((1..=DEFAULT_THREAD_CAP).contains(&auto));
        let explicit = ScenarioSpec {
            threads: Some(13),
            ..spec
        };
        assert_eq!(resolved_threads(&explicit), 13, "explicit counts win");
    }

    #[test]
    fn injector_guards_phantom_preconditions() {
        let inj = bfw_injector();
        assert!(inj(&InjectKind::PhantomWaves { waves: 1 }, 9).is_some());
        // 10 is not a multiple of 3; 5 < 3·2.
        assert!(inj(&InjectKind::PhantomWaves { waves: 3 }, 10).is_none());
        assert!(inj(&InjectKind::PhantomWaves { waves: 2 }, 5).is_none());
        assert!(inj(&InjectKind::PhantomWaves { waves: 0 }, 9).is_none());
        let dead = inj(&InjectKind::Dead, 4).unwrap();
        assert_eq!(dead.len(), 4);
        assert!(dead.iter().all(|s| !s.is_leader()));
    }

    #[test]
    fn recovering_injector_wraps_the_same_configurations() {
        let inj = recovering_bfw_injector();
        let states = inj(&InjectKind::PhantomWaves { waves: 1 }, 9).unwrap();
        assert_eq!(states.len(), 9);
        assert!(states.iter().all(|s| !s.inner.is_leader()));
        assert!(states
            .iter()
            .all(|s| s.grace_rounds == 0 && s.since_valid == 0));
        // Same preconditions as the base injector.
        assert!(inj(&InjectKind::PhantomWaves { waves: 2 }, 5).is_none());
    }
}
