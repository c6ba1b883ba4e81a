//! # bss-util — foundations for the Bootstrapping Service reproduction
//!
//! This crate collects the small, dependency-free building blocks shared by every
//! other crate in the workspace:
//!
//! * [`id`] — [`NodeId`](id::NodeId): 64-bit node identifiers with base-2^b digit
//!   views, common-prefix computation, ring distances and XOR distances.
//! * [`geometry`] — [`TableGeometry`](geometry::TableGeometry): the `(b, k)`
//!   parameters that define the shape of a prefix routing table.
//! * [`descriptor`] — [`Descriptor`](descriptor::Descriptor): a node descriptor
//!   (identifier + address + freshness timestamp) as exchanged by the gossip
//!   protocols, generic over the address type via the [`Address`](descriptor::Address)
//!   trait.
//! * [`rng`] — [`SimRng`](rng::SimRng): a small deterministic pseudo-random number
//!   generator (SplitMix64 seeding a Xoshiro256**) so that every simulation run is
//!   exactly reproducible from its seed.
//! * [`stats`] — time series, summaries and histograms used by the experiment
//!   harness to report the paper's figures.
//! * [`view`] — [`ViewArena`](view::ViewArena): flat, allocation-free storage for
//!   the bounded per-node views kept by every gossip protocol, plus
//!   [`rank_top_by`](view::rank_top_by), the partial-selection ranking used on the
//!   merge hot path.
//! * [`config`] — protocol parameter sets ([`BootstrapParams`](config::BootstrapParams),
//!   [`NewscastParams`](config::NewscastParams)) with the paper's defaults.
//! * [`coords`] — 2-D node placement ([`PlacementSpec`](coords::PlacementSpec),
//!   [`Placement`](coords::Placement)): seeded coordinate/region generators for
//!   WAN topology modelling (not to be confused with [`geometry`], which is
//!   routing-*table* geometry).
//!
//! # Example
//!
//! ```rust
//! use bss_util::id::NodeId;
//! use bss_util::geometry::TableGeometry;
//!
//! let geometry = TableGeometry::new(4, 3).unwrap();
//! let a = NodeId::new(0xDEAD_BEEF_0000_0000);
//! let b = NodeId::new(0xDEAD_BEEF_8000_0000);
//! // The two identifiers share the first eight hexadecimal digits.
//! assert_eq!(a.common_prefix_len(b, geometry.bits_per_digit()), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod coords;
pub mod descriptor;
pub mod geometry;
pub mod id;
pub mod rng;
pub mod stats;
pub mod view;
