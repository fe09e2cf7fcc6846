//! Deterministic fault-injection and dynamic-topology scenarios for the
//! BFW simulators.
//!
//! The paper (Vacus & Ziccardi, PODC 2025) proves BFW solves *eventual*
//! leader election on a **fixed** connected graph, and its Section 5
//! explains why the protocol is not self-stabilizing. This crate builds
//! the environment those statements are about — and then changes it
//! mid-run: nodes crash and rejoin (in fresh `W•`), edges churn,
//! partitions open and heal, perception noise flares up, and the
//! Section 5 adversarial configurations can be injected verbatim.
//!
//! Pieces:
//!
//! * [`ScenarioEvent`] — the perturbation vocabulary (crash / recover /
//!   edge churn / partition / heal / noise bursts / state injection);
//! * [`Timeline`] — fire-at-round, periodic and seeded-random schedules,
//!   compiled deterministically ([`Timeline::compile`]);
//! * [`DynamicHost`] — the runtime seam; one blanket impl covers every
//!   `TickEngine` runtime (the beeping `Network`, the
//!   `StoneAgeNetwork`, and any future model adapter), so one engine
//!   drives all models and every fault hook behaves identically across
//!   them;
//! * [`Engine`] — applies the timeline, maintains the mutable topology,
//!   and measures **re-election latency** (disruption → next
//!   unique-stable-leader) and **leader flaps** via [`ElectionMonitor`];
//! * [`ScenarioSpec`] — a small TOML format (`bfw scenario run
//!   <file>` in the CLI) parsed by an in-crate TOML-subset parser;
//! * [`RunReport`] — one structure, two views of a completed run: the
//!   pinned stdout block ([`RunReport::to_text`]) and the versioned
//!   `bfw/scenario-report` interchange document
//!   ([`RunReport::to_json_value`], checked by [`validate_run_report`]);
//! * [`run_bfw_scenario`] — the one-call BFW runner used by the CLI,
//!   the `churn` bench experiment and the `churn_storm` example.
//!
//! Everything is ChaCha-deterministic: the same spec, graph and seed
//! produce a byte-identical event log and outcome, regardless of
//! platform.
//!
//! # Example
//!
//! ```
//! use bfw_scenario::{Engine, ScenarioEvent, Timeline, bfw_injector};
//! use bfw_core::Bfw;
//! use bfw_graph::generators;
//! use bfw_sim::Network;
//!
//! let graph = generators::cycle(16);
//! let timeline = Timeline::new()
//!     .at(2_000, ScenarioEvent::CrashLeader)
//!     .at(2_200, ScenarioEvent::RecoverAll);
//! let net = Network::new(Bfw::new(0.5), graph.clone().into(), 42);
//! let outcome = Engine::new(net, &graph, &timeline, 20_000, 42, 50)
//!     .with_injector(bfw_injector())
//!     .run();
//! assert_eq!(outcome.final_leaders.len(), 1);
//! // Two disruptions (the crash and the rejoin), each answered by its
//! // own per-disruption recovery window.
//! assert_eq!(outcome.recoveries.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfw_run;
mod engine;
mod event;
mod host;
mod lifecycle;
mod metrics;
mod report;
mod shrink;
mod spec;
mod spec_io;
mod timeline;
pub mod toml_mini;
mod trace;
mod validate;

pub use bfw_run::{
    bfw_injector, recovering_bfw_injector, resolved_kernel, resolved_threads, run_bfw_scenario,
    run_bfw_scenario_traced, scenario_recovery_config,
};
pub use bfw_sim::Scheduler;
pub use engine::{Engine, EngineCursor, Injector, ScenarioOutcome};
pub use event::{InjectKind, ScenarioEvent};
pub use host::DynamicHost;
pub use lifecycle::{
    resume_run_bfw_scenario, resume_step_bfw_scenario, step_bfw_scenario, validate_engine_snapshot,
    EngineSnapshot, SnapshotSummary,
};
pub use metrics::{ElectionMonitor, MonitorState, Recovery};
pub use report::{validate_run_report, RunReport, RunSummary};
pub use shrink::{shrink_wipeout, ShrinkReport};
pub use spec::{KernelKind, ProtocolKind, RuntimeKind, ScenarioSpec, SpecError, TraceSpec};
pub use spec_io::{spec_from_json, spec_to_json, validate_scenario_spec, SpecSummary};
pub use timeline::{Schedule, ScheduledEvent, Timeline, TimelineEntry};
pub use trace::ScenarioTrace;
pub use validate::validate_scenario;
