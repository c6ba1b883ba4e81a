//! # bootstrapping-service — facade crate
//!
//! A from-scratch Rust reproduction of *"The Bootstrapping Service"* (Jelasity,
//! Montresor, Babaoglu; ICDCS Workshops 2006): a gossip protocol that jump-starts
//! prefix-table based routing substrates (Pastry / Kademlia / Tapestry / Bamboo
//! style) on top of the NEWSCAST peer sampling service.
//!
//! This crate simply re-exports the workspace crates under friendlier names so that
//! downstream users and the runnable examples only need a single dependency:
//!
//! * [`util`] — identifiers, geometry, descriptors, deterministic RNG, statistics.
//! * [`sim`] — the cycle-driven / event-driven simulation engine (PeerSim
//!   equivalent) with failure and churn models.
//! * [`sampling`] — the NEWSCAST peer sampling service and an idealised oracle.
//! * [`core`] — the bootstrapping service itself: leaf sets, prefix tables,
//!   the gossip protocol of Fig. 2 and the convergence oracle.
//! * [`overlay`] — the lookup evaluator: routes lookups over a bootstrapped
//!   population under the Pastry, Kademlia and Chord-style rules of
//!   `core::routing`.
//! * [`traffic`] — sustained key-lookup workloads served against the live
//!   overlay mid-run, with per-cycle success/hop/latency series.
//! * [`net`] — the protocol on real UDP sockets: one driver multiplexes many
//!   in-process peers, and the caller polls it on its own thread.
//!
//! # Quickstart
//!
//! ```rust
//! use bootstrapping_service::core::experiment::{Experiment, ExperimentConfig};
//!
//! // Bootstrap a 256-node network from scratch and report convergence.
//! let config = ExperimentConfig::builder()
//!     .network_size(256)
//!     .seed(42)
//!     .build()
//!     .expect("valid configuration");
//! let outcome = Experiment::new(config).run();
//! assert!(outcome.converged());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bss_core as core;
pub use bss_net as net;
pub use bss_overlay as overlay;
pub use bss_sampling as sampling;
pub use bss_sim as sim;
pub use bss_traffic as traffic;
pub use bss_util as util;
