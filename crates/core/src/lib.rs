//! # bss-core — the Bootstrapping Service
//!
//! This crate implements the paper's contribution (§4): a gossip protocol that
//! builds, *simultaneously at every node and from scratch*, the two data
//! structures on which prefix-based routing substrates (Pastry, Kademlia,
//! Tapestry, Bamboo) rely:
//!
//! * a **leaf set** — the `c` nearest neighbours on the sorted ring of node
//!   identifiers, balanced between successors and predecessors
//!   ([`leafset::LeafSet`]);
//! * a **prefix routing table** — up to `k` descriptors for every
//!   `(common-prefix length, first differing digit)` pair
//!   ([`prefix_table::PrefixTable`]).
//!
//! The protocol (Fig. 2 of the paper) is a T-Man-style epidemic: each cycle a node
//! picks a peer from the closer half of its leaf set ([`node::BootstrapNode::select_peer_with`]),
//! sends it an optimised digest of everything it knows
//! ([`message::create_message`]), receives the peer's digest in return, and both
//! sides run `UPDATELEAFSET` and `UPDATEPREFIXTABLE`. The gradually improving
//! prefix tables feed back into ring construction so the two structures boost each
//! other.
//!
//! Module map:
//!
//! * [`leafset`] — `UPDATELEAFSET` and the balanced successor/predecessor set.
//! * [`prefix_table`] — `UPDATEPREFIXTABLE` and the `(i, j, k)` slot structure.
//! * [`message`] — `CREATEMESSAGE`: the peer-targeted message optimisation.
//! * [`node`] — one node's protocol state and the active/passive thread logic.
//! * [`compact`] — the packed per-node storage the simulation drivers keep
//!   their population in (8-byte descriptors over a shared identifier arena),
//!   rehydrated into fat [`node::BootstrapNode`]s on the exchange hot path and
//!   read in place by lookup routing.
//! * `protocol` — the cycle-driven simulation driver running every node over a
//!   [`PeerSampler`](bss_sampling::sampler::PeerSampler).
//! * [`convergence`] — the global oracle computing the *perfect* leaf sets and
//!   prefix tables and the proportion of missing entries (the quantity plotted in
//!   Figures 3 and 4).
//! * [`scenario`] — engine-agnostic run descriptions: a composable timeline of
//!   [`ScenarioEvent`]s (loss windows, churn bursts,
//!   catastrophic failures, massive joins, partitions that merge), the
//!   [`Engine`] selection (cycle, parallel cycle,
//!   discrete-event) and the pluggable [`Observer`] trait.
//! * [`experiment`] — a batteries-included experiment runner combining all of the
//!   above behind the engine-agnostic [`Experiment`] entry point; this is what
//!   the examples and the benchmark harness drive.
//!
//! # Example
//!
//! ```rust
//! use bss_core::experiment::{Experiment, ExperimentConfig};
//!
//! let config = ExperimentConfig::builder()
//!     .network_size(128)
//!     .seed(7)
//!     .max_cycles(60)
//!     .build()
//!     .expect("valid configuration");
//! let outcome = Experiment::new(config).run();
//! assert!(outcome.converged());
//! println!(
//!     "perfect tables after {} cycles",
//!     outcome.convergence_cycle().unwrap()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compact;
pub mod convergence;
pub mod experiment;
pub mod leafset;
pub mod message;
pub mod node;
pub mod prefix_table;
mod protocol;
pub mod routing;
pub mod scenario;
pub mod traffic;

pub use compact::CompactNode;
pub use convergence::ConvergenceOracle;
pub use experiment::{Experiment, ExperimentConfig, PopulationSnapshot, RunReport};
pub use leafset::LeafSet;
pub use message::create_message;
pub use node::BootstrapNode;
pub use prefix_table::PrefixTable;
pub use routing::{Contact, RouterKind};
pub use scenario::{
    Engine, KeyDist, LatencyModel, Observer, PartitionSpec, Phase, PlacementSpec, Scenario,
    ScenarioEvent, WanParams,
};
