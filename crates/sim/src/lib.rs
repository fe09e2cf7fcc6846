//! Synchronous simulators for weak communication models.
//!
//! This crate implements the execution environments of the reproduction
//! of *"Minimalist Leader Election Under Weak Communication"* (Vacus &
//! Ziccardi, PODC 2025):
//!
//! * the **beeping model** (Cornejo & Kuhn): per round each node beeps or
//!   listens; a node's next state is drawn from `δ⊤` when it beeps or any
//!   neighbor beeps, from `δ⊥` otherwise — see [`BeepingProtocol`] and
//!   [`Network`];
//! * a synchronous **stone-age model** (Emek & Wattenhofer): nodes
//!   display symbols from a finite alphabet and count neighbors per
//!   symbol only up to a threshold `b`, and its asynchronous variant,
//!   one scheduler-picked activation per step — see [`stone_age`];
//! * a synchronous **message-passing model** used by the strong-model
//!   baseline (`FloodMax`) — see [`message_passing`].
//!
//! Executions are fully deterministic given a seed: every node owns an
//! independent ChaCha stream derived from the run seed, so the same
//! protocol replayed in two runtimes (e.g. beeping vs stone-age) produces
//! bit-identical traces.
//!
//! # Example
//!
//! The paper's protocol lives in the `bfw-core` crate; here is a tiny
//! custom protocol (every node beeps forever) driving the executor:
//!
//! ```
//! use bfw_sim::{BeepingProtocol, Network, NodeCtx, Topology};
//! use bfw_graph::generators;
//!
//! #[derive(Debug, Clone)]
//! struct AlwaysBeep;
//!
//! impl BeepingProtocol for AlwaysBeep {
//!     type State = ();
//!     fn initial_state(&self, _ctx: NodeCtx) {}
//!     fn beeps(&self, _state: &()) -> bool { true }
//!     fn transition(&self, _s: &(), heard: bool, _rng: &mut dyn rand::RngCore) {
//!         assert!(heard); // everyone hears themselves beep
//!     }
//! }
//!
//! let mut net = Network::new(AlwaysBeep, generators::cycle(8).into(), 42);
//! net.step();
//! assert_eq!(net.round(), 1);
//! assert_eq!(net.beeping_node_count(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod bitkernel;
mod error;
mod fault;
pub mod instrument;
pub mod message_passing;
mod monte_carlo;
mod network;
mod pool;
mod protocol;
mod recovering;
mod runner;
mod snapshot;
pub mod stone_age;
mod tick;

pub use activation::Scheduler;
pub use bfw_graph::Topology;
pub use bitkernel::{bernoulli_words, BitEngine, BitModel, PlaneWord};
pub use error::SimError;
pub use fault::FaultLayer;
pub use instrument::{ComplexityLedger, FlightRecorder, Instrumentation, RoundSample, TraceEvent};
pub use monte_carlo::{run_trials, run_trials_sequential};
pub use network::{BeepingModel, Network, RoundView};
pub use pool::{shard_bounds, ShardPool};
pub use protocol::{BeepingProtocol, LeaderElection, NodeCtx};
pub use recovering::{SlotAware, SlotSyncedModel};
pub use runner::{elect_on, run_election, ElectionConfig, ElectionHost, ElectionOutcome};
pub use snapshot::{EngineCheckpoint, SchedulerCheckpoint};
pub use tick::{LeaderModel, TickEngine, TickModel};
