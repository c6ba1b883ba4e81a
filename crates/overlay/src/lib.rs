//! # bss-overlay — routing substrates that consume bootstrapped tables
//!
//! The paper's claim is that the leaf sets and prefix tables built by the
//! bootstrapping service are exactly what prefix-based routing substrates (Pastry,
//! Kademlia, Tapestry, Bamboo) need, so that "existing, well-tuned protocols [can
//! be used] without modification to maintain the overlays once they have been
//! formed" (§1). The paper never actually routes over the constructed tables; this
//! crate closes that loop as a validation step:
//!
//! * [`lookup`] — the one public entry: [`LookupEvaluator`] routes lookup
//!   workloads over a bootstrapped population under every router and reports
//!   hop-count / success statistics ([`LookupReport`](lookup::LookupReport)).
//! * `pastry` — the snapshot router behind it: one greedy loop over a
//!   [`PopulationSnapshot`](bss_core::experiment::PopulationSnapshot) under the
//!   per-hop rule its `RouterKind` selects (Pastry's prefix-then-distance step,
//!   Kademlia's XOR-closest contact, Chord-style clockwise progress). The rules
//!   themselves live once, in [`bss_core::routing`], shared with the live
//!   traffic driver.
//! * `kademlia` — the XOR rule's checks (a prefix table with `b = 1..=4` is a
//!   bucket view of the XOR metric space).
//! * `chord` — a small Chord implementation (successor ring + fingers) used as
//!   the "Chord on demand" related-work baseline: it is built instantly from
//!   global knowledge and serves as the routing-quality yardstick.
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

mod chord;
pub mod lookup;
mod pastry;

pub use lookup::LookupEvaluator;

#[cfg(test)]
mod kademlia;
