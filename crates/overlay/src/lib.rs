//! # bss-overlay — routing substrates that consume bootstrapped tables
//!
//! The paper's claim is that the leaf sets and prefix tables built by the
//! bootstrapping service are exactly what prefix-based routing substrates (Pastry,
//! Kademlia, Tapestry, Bamboo) need, so that "existing, well-tuned protocols [can
//! be used] without modification to maintain the overlays once they have been
//! formed" (§1). The paper never actually routes over the constructed tables; this
//! crate closes that loop as a validation step:
//!
//! * [`pastry`] — Pastry-style greedy prefix routing over a bootstrapped
//!   [`BootstrapNode`](bss_core::node::BootstrapNode) population.
//! * [`kademlia`] — Kademlia-style iterative XOR routing over the same tables
//!   (a prefix table with `b = 1..=4` is a bucket view of the XOR metric space).
//! * [`chord`] — a small Chord implementation (successor ring + fingers) used as
//!   the "Chord on demand" related-work baseline: it is built instantly from
//!   global knowledge and serves as the routing-quality yardstick.
//! * [`lookup`] — lookup workload generation and hop-count / success statistics.
//!
//! # Example
//!
//! ```rust
//! use bss_core::experiment::{Experiment, ExperimentConfig};
//! use bss_overlay::lookup::LookupEvaluator;
//!
//! // Bootstrap a small network, then route lookups over the resulting tables.
//! let config = ExperimentConfig::builder()
//!     .network_size(64)
//!     .seed(5)
//!     .build()
//!     .unwrap();
//! // The evaluator re-runs the bootstrap internally so it can keep the node states.
//! let report = LookupEvaluator::bootstrap_and_evaluate(&config, 200);
//! assert_eq!(report.success_rate(), 1.0);
//! assert!(report.mean_hops() < 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chord;
pub mod kademlia;
pub mod lookup;
pub mod pastry;

pub use chord::ChordRing;
pub use lookup::{LookupEvaluator, LookupReport};
pub use pastry::SnapshotRouter;
