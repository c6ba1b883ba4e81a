//! # bss-net — the bootstrapping service over real UDP sockets
//!
//! The paper designs the protocol for "a cheap, unreliable transport layer (UDP)"
//! but evaluates it only in simulation. This crate runs the very same node-local
//! logic ([`BootstrapNode`](bss_core::node::BootstrapNode), which is generic over
//! the address type) on real sockets, so a localhost cluster can be bootstrapped
//! end to end outside the simulator:
//!
//! * [`codec`] — a compact binary wire format for descriptor lists (identifier,
//!   IPv4 address, port, timestamp), big-endian, with optional keyed identity
//!   stamps for the descriptor-verifier countermeasure.
//! * `node` — the *clocked* protocol glue between a node and the wire: the
//!   active thread of Fig. 2 composed on a timer and the passive thread on
//!   receipt (millisecond-derived cycle clock, descriptor aging, heartbeat
//!   re-stamping, stamp verification), the sampling pool, and the
//!   [`PeerHandle`] callers read a running peer through.
//! * `driver` — the one way to run the wire: [`NetDriver`] binds one socket
//!   per in-process peer and the caller polls it from its own thread, one
//!   sweep at a time ([`NetDriver::poll_once`]) or until a condition holds
//!   ([`NetDriver::poll_until`]). A sweep runs on every available core at
//!   once: the caller's thread and a persistent worker per further core
//!   claim small chunks of the peers from one queue, and every datagram is
//!   sent as soon as it is composed. Between sweeps it owns every peer again, measures
//!   convergence with the same
//!   [`ConvergenceOracle`](bss_core::convergence::ConvergenceOracle) the
//!   simulator uses, kills peers, and renders a watched run as a
//!   [`NetReport`] ([`NetDriver::monitor`]).
//! * `report` — shared traffic counters and the wire-side run report:
//!   `RunReport`'s `Series` type, key names and JSON writer, keyed by elapsed
//!   milliseconds instead of cycles.
//!
//! The peer sampling service the paper assumes is "already functional" runs here
//! as its own lightweight gossip layer: every peer keeps a bounded, NEWSCAST-style
//! sample pool (seeded from its static start-up contacts) and piggybacks one
//! sampling exchange — [`codec::MessageKind::SampleRequest`] /
//! [`codec::MessageKind::SampleResponse`] — on every active firing, aimed at a
//! uniformly random pool member. Sampling messages feed pools only and never the
//! protocol tables, keeping the two layers separate exactly as in the paper's
//! architecture; the `cr` random samples of Fig. 2 are drawn from the pool on both
//! the active and the passive path. Everything above that — message content,
//! leaf-set and prefix-table updates, peer selection, aging, verification — is the
//! same clocked code path the simulator engines exercise, which is what the
//! sim-vs-net parity tests in the workspace root assert.
//!
//! # Example
//!
//! ```rust,no_run
//! use bss_net::{DriverConfig, NetDriver};
//! use bss_util::config::BootstrapParams;
//! use std::time::Duration;
//!
//! let mut driver = NetDriver::bind(DriverConfig {
//!     size: 256,
//!     params: BootstrapParams {
//!         leaf_set_size: 6,
//!         random_samples: 8,
//!         cycle_millis: 50,
//!         ..BootstrapParams::paper_default()
//!     },
//!     contacts_per_peer: 4,
//!     seed: 1,
//! })
//! .expect("sockets available");
//! let report = driver.monitor(Duration::from_millis(50), Duration::from_secs(30));
//! println!("{}", report.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod driver;
mod node;
mod report;

pub use driver::{DriverConfig, NetDriver};
pub use node::PeerHandle;
pub use report::{NetReport, NetStats, NetTraffic};
