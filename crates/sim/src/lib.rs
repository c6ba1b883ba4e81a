//! # bss-sim — a peer-to-peer simulation engine (PeerSim equivalent)
//!
//! The paper evaluates the bootstrapping service on PeerSim, a cycle-driven
//! peer-to-peer simulator. This crate is a from-scratch Rust substitute providing
//! the same execution model plus an event-driven engine for latency realism:
//!
//! * [`network`] — the global node registry: identifiers, alive/dead status,
//!   dense [`NodeIndex`](network::NodeIndex) addresses and descriptor creation.
//! * [`transport`] — message delivery: the [`LatencyModel`](transport::LatencyModel)
//!   link description (constant, uniform, distance-dependent WAN) and the one
//!   [`Transport`](transport::Transport) both engines hold by value — that
//!   model plus scripted windows of loss (the paper's 20 % experiment),
//!   partitions, regional outages and slow links — with the order and number
//!   of RNG draws each decision consumes.
//! * [`link`] — the WAN latency formula: [`WanParams`](link::WanParams) and
//!   its pure per-`(src, dst)` evaluation over a node placement.
//! * [`engine`] — the [`cycle`](engine::cycle) engine (each node acts once per
//!   cycle, in a random order, exchanging request/response pairs synchronously,
//!   exactly like PeerSim's cycle-driven mode) and the [`event`](engine::event)
//!   engine (a discrete-event scheduler with per-message latency).
//! * [`churn`] — the one membership timeline, [`Churn`](churn::Churn): an
//!   ordered list of plain-data steps (replacement churn over a window, kill,
//!   join, re-bootstrap order, Byzantine conversion) applied at cycle
//!   boundaries, with the order and number of RNG draws each step consumes.
//! * [`adversary`] — the Byzantine adversary model: which nodes were converted,
//!   the active attack window, and the configured behavior (descriptor forgery,
//!   eclipse sprays, hub attacks), consulted at message-composition time.
//! * [`pool`] — the persistent worker pool behind the parallel cycle engine:
//!   long-lived threads fed over channels, so a million-cycle run pays the
//!   thread-spawn cost once instead of once per wave.
//!
//! # Example: a trivial cycle-driven protocol
//!
//! ```rust
//! use bss_sim::engine::cycle::{CycleEngine, CycleProtocol, EngineContext};
//! use bss_sim::network::{Network, NodeIndex};
//! use bss_util::rng::SimRng;
//!
//! /// Counts how many times every node was scheduled.
//! struct Counter {
//!     executions: Vec<u64>,
//! }
//!
//! impl CycleProtocol for Counter {
//!     fn execute_node(&mut self, node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {
//!         self.executions[node.as_usize()] += 1;
//!     }
//! }
//!
//! let mut rng = SimRng::seed_from(1);
//! let network = Network::with_random_ids(16, &mut rng);
//! let mut engine = CycleEngine::new(network, rng);
//! let mut protocol = Counter { executions: vec![0; 16] };
//! engine.run(&mut protocol, 10);
//! assert!(protocol.executions.iter().all(|&count| count == 10));
//! ```

// `deny` instead of `forbid`: the worker pool needs one audited lifetime
// transmute (see `pool`); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod churn;
pub mod engine;
pub mod link;
pub mod network;
pub mod pool;
pub mod transport;

pub use engine::cycle::PhaseProfile;
