//! # bss-sampling — the peer sampling service
//!
//! The bottom layer of the paper's architecture (§3): a service that returns
//! (approximately) uniform random peer addresses from the set of participating
//! nodes, implicitly defining membership, and that keeps working through massive
//! joins, departures and catastrophic failures.
//!
//! This crate provides:
//!
//! * [`sampler::PeerSampler`] — the service abstraction the bootstrapping protocol
//!   consumes (`cr` random samples per message, §4).
//! * [`newscast`] — the NEWSCAST gossip implementation described in §3: every node
//!   keeps a small cache of node descriptors with timestamps, periodically sends it
//!   to a random cache member, and both sides keep the freshest entries.
//! * [`sampler::OracleSampler`] — an idealised, globally uniform sampler used for
//!   ablations (the paper assumes "the sampling service is already functional",
//!   which the oracle models exactly).
//! * [`quality`] — diagnostics for sampling quality: in-degree distribution,
//!   self-containment of views, and connectivity of the overlay induced by the
//!   caches.
//!
//! # Example
//!
//! ```rust
//! use bss_sampling::newscast::NewscastProtocol;
//! use bss_sampling::sampler::PeerSampler;
//! use bss_sim::engine::cycle::CycleEngine;
//! use bss_sim::network::Network;
//! use bss_util::config::NewscastParams;
//! use bss_util::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from(7);
//! let network = Network::with_random_ids(64, &mut rng);
//! let mut engine = CycleEngine::new(network, rng);
//! let mut newscast = NewscastProtocol::new(NewscastParams::paper_default());
//! newscast.init_all(engine.context_mut());
//! engine.run(&mut newscast, 20);
//!
//! // After a few cycles every node can produce random samples.
//! let node = bss_sim::network::NodeIndex::new(0);
//! let samples = newscast.sample(node, 10, 20, engine.context_mut());
//! assert!(!samples.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod newscast;
pub mod quality;
pub mod sampler;
