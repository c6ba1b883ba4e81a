//! # bss-net — the bootstrapping service over real UDP sockets
//!
//! The paper designs the protocol for "a cheap, unreliable transport layer (UDP)"
//! but evaluates it only in simulation. This crate runs the very same node-local
//! logic ([`BootstrapNode`](bss_core::node::BootstrapNode), which is generic over
//! the address type) on real sockets, so a localhost cluster can be bootstrapped
//! end to end outside the simulator:
//!
//! * [`codec`] — a compact binary wire format for descriptor lists (identifier,
//!   IPv4 address, port, timestamp), built on [`bytes`], with optional keyed
//!   identity stamps for the descriptor-verifier countermeasure.
//! * `node` — the *clocked* protocol glue between a node and the wire: the
//!   active thread of Fig. 2 composed on a timer and the passive thread on
//!   receipt (millisecond-derived cycle clock, descriptor aging, heartbeat
//!   re-stamping, stamp verification), the sampling pool, and the
//!   [`PeerHandle`] supervisors read a running peer through.
//! * `driver` — the one deployment shape: a batched single-loop datagram
//!   driver that owns the sockets and multiplexes one peer or thousands of
//!   in-process peers over one poll loop and one thread.
//! * [`cluster`] — spawns and supervises a set of peers on the loopback interface
//!   (one driver loop on one thread), checks their convergence with the same
//!   [`ConvergenceOracle`](bss_core::convergence::ConvergenceOracle) the simulator
//!   uses, and renders runs as [`report::NetReport`]s.
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
//! use bss_net::cluster::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::spawn(ClusterConfig {
//!     size: 256,
//!     ..ClusterConfig::default()
//! })
//! .expect("sockets available");
//! let report = cluster.monitor(
//!     std::time::Duration::from_millis(50),
//!     std::time::Duration::from_secs(30),
//! );
//! println!("{}", report.to_json());
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod codec;
mod driver;
mod node;
mod report;

pub use cluster::{Cluster, ClusterConfig};
pub use driver::{DriverConfig, NetDriver};
pub use node::PeerHandle;
pub use report::{NetReport, NetStats, NetTraffic};
