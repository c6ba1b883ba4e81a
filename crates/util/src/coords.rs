//! 2-D node placement: coordinates and region ids for WAN topology modelling.
//!
//! The simulators historically treated the network as homogeneous — one global
//! latency model, no geography. This module supplies the missing layer: every
//! node gets a point on a plane and a region id, generated deterministically
//! from a [`PlacementSpec`] and a seed. Link models (see `bss_sim::link`) then
//! derive per-`(src, dst)` latency from coordinate distance, and scenario
//! events can target whole regions.
//!
//! Note this is unrelated to [`crate::geometry`], which describes the shape of
//! a prefix *routing table* (`(b, k)` parameters), not physical space.
//!
//! # Determinism
//!
//! Placement never touches the simulation's main RNG stream. Every coordinate
//! is a pure function of `(spec, seed, node index)`: the generators seed a
//! private [`SimRng`] per node from a salted hash of the index. This has two
//! consequences that the rest of the stack relies on:
//!
//! * enabling placement cannot perturb an existing run's RNG stream (goldens
//!   stay byte-identical with topology off), and
//! * nodes that join *after* the initial population (`MassiveJoin`) get
//!   deterministic coordinates too — `Placement::coord` accepts any raw
//!   index, computing coordinates past the precomputed prefix on the fly.

use crate::config::InvalidParams;
use crate::rng::SimRng;

/// Salt mixed into the placement seed so coordinate draws can never collide
/// with any other derived stream (spells `"coords!!"`).
pub(crate) const COORDS_SALT: u64 = 0x636f_6f72_6473_2121;

/// Odd multiplier (the golden-ratio increment from SplitMix64) used to spread
/// node indices across the seed space before the per-node RNG is seeded.
const NODE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A point on the placement plane, in abstract distance units.
///
/// The unit is whatever the [`PlacementSpec`] says it is; the WAN link model
/// converts units to milliseconds via its `millis_per_unit` factor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Coord {
    /// Horizontal position.
    pub x: f64,
    /// Vertical position.
    pub y: f64,
}

impl Coord {
    /// Euclidean distance to another point.
    #[must_use]
    pub(crate) fn distance(self, other: Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A seeded recipe for placing nodes on the plane.
///
/// All three generators are deterministic per `(spec, seed, node index)` and
/// assign regions round-robin (`node % region_count`), so regions stay
/// balanced no matter how many nodes join later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementSpec {
    /// Nodes uniform over a `width × height` rectangle; a single region.
    UniformPlane {
        /// Plane width in distance units.
        width: f64,
        /// Plane height in distance units.
        height: f64,
    },
    /// `regions` cluster centers drawn uniformly over the plane, each node
    /// placed in a uniform disc of radius `spread` around its region's center.
    Clustered {
        /// Number of cluster regions (must be at least 1).
        regions: u32,
        /// Plane width in distance units.
        width: f64,
        /// Plane height in distance units.
        height: f64,
        /// Radius of the uniform disc around each cluster center.
        spread: f64,
    },
    /// Two data centers `separation` apart (regions 0 and 1), each node in a
    /// uniform disc of radius `spread` around its center — the classic
    /// dumbbell used to study cross-DC traffic.
    Dumbbell {
        /// Distance between the two data-center centers.
        separation: f64,
        /// Radius of the uniform disc around each center.
        spread: f64,
    },
}

impl Default for PlacementSpec {
    /// A 1000 × 1000 uniform plane.
    fn default() -> Self {
        PlacementSpec::UniformPlane {
            width: 1000.0,
            height: 1000.0,
        }
    }
}

/// Validates that `value` is a finite, strictly positive length.
fn positive(field: &'static str, value: f64) -> Result<(), InvalidParams> {
    if !value.is_finite() || value <= 0.0 {
        return Err(InvalidParams::OutOfRange {
            field,
            value,
            min: f64::MIN_POSITIVE,
            max: f64::MAX,
        });
    }
    Ok(())
}

/// Validates that `value` is a finite, non-negative length.
fn non_negative(field: &'static str, value: f64) -> Result<(), InvalidParams> {
    if !value.is_finite() || value < 0.0 {
        return Err(InvalidParams::OutOfRange {
            field,
            value,
            min: 0.0,
            max: f64::MAX,
        });
    }
    Ok(())
}

impl PlacementSpec {
    /// Number of regions this spec partitions nodes into.
    #[must_use]
    pub fn region_count(&self) -> u32 {
        match *self {
            PlacementSpec::UniformPlane { .. } => 1,
            PlacementSpec::Clustered { regions, .. } => regions.max(1),
            PlacementSpec::Dumbbell { .. } => 2,
        }
    }

    /// Upper bound on the distance between any two placed nodes. Link models
    /// use this to declare latency bounds without enumerating pairs.
    #[must_use]
    pub fn max_distance(&self) -> f64 {
        match *self {
            PlacementSpec::UniformPlane { width, height } => width.hypot(height),
            PlacementSpec::Clustered {
                width,
                height,
                spread,
                ..
            } => width.hypot(height) + 2.0 * spread,
            PlacementSpec::Dumbbell { separation, spread } => separation + 2.0 * spread,
        }
    }

    /// Rejects degenerate specs: zero-area planes, zero regions, negative or
    /// non-finite spreads. Errors are the typed
    /// [`InvalidParams::OutOfRange`], matching the validation convention used
    /// by scenario events.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        match *self {
            PlacementSpec::UniformPlane { width, height } => {
                positive("placement width", width)?;
                positive("placement height", height)?;
            }
            PlacementSpec::Clustered {
                regions,
                width,
                height,
                spread,
            } => {
                if regions == 0 {
                    return Err(InvalidParams::OutOfRange {
                        field: "placement regions",
                        value: 0.0,
                        min: 1.0,
                        max: f64::from(u32::MAX),
                    });
                }
                positive("placement width", width)?;
                positive("placement height", height)?;
                non_negative("placement spread", spread)?;
            }
            PlacementSpec::Dumbbell { separation, spread } => {
                positive("placement separation", separation)?;
                non_negative("placement spread", spread)?;
            }
        }
        Ok(())
    }

    /// Generates a placement for an initial population of `size` nodes.
    ///
    /// The first `size` coordinates are precomputed; `Placement::coord`
    /// computes later indices (late joiners) on demand from the same pure
    /// per-node derivation, so a node's position never depends on when it was
    /// asked for.
    #[must_use]
    pub fn generate(&self, size: usize, seed: u64) -> Placement {
        let centers = self.centers(seed);
        let mut placement = Placement {
            spec: *self,
            seed,
            centers,
            coords: Vec::with_capacity(size),
        };
        for node in 0..size {
            let coord = placement.derive(node);
            placement.coords.push(coord);
        }
        placement
    }

    /// Region centers shared by every node of a region.
    fn centers(&self, seed: u64) -> Vec<Coord> {
        match *self {
            PlacementSpec::UniformPlane { width, height } => vec![Coord {
                x: width / 2.0,
                y: height / 2.0,
            }],
            PlacementSpec::Clustered {
                regions,
                width,
                height,
                ..
            } => {
                let mut rng = SimRng::seed_from(seed ^ COORDS_SALT);
                (0..regions.max(1))
                    .map(|_| Coord {
                        x: rng.unit_f64() * width,
                        y: rng.unit_f64() * height,
                    })
                    .collect()
            }
            PlacementSpec::Dumbbell { separation, .. } => vec![
                Coord { x: 0.0, y: 0.0 },
                Coord {
                    x: separation,
                    y: 0.0,
                },
            ],
        }
    }
}

/// Concrete node placement: coordinates and region ids for a population.
///
/// Produced by [`PlacementSpec::generate`]; cheap to clone behind an `Arc`.
/// Indices are the simulator's raw node indices, so the placement stays valid
/// as nodes die and join — positions are never reassigned.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    spec: PlacementSpec,
    seed: u64,
    centers: Vec<Coord>,
    coords: Vec<Coord>,
}

impl Placement {
    /// Number of regions nodes are partitioned into.
    #[must_use]
    pub fn region_count(&self) -> u32 {
        self.spec.region_count()
    }

    /// Region id of a raw node index (round-robin, so valid for any index).
    #[must_use]
    pub fn region(&self, node: usize) -> u32 {
        (node as u64 % u64::from(self.region_count())) as u32
    }

    /// Coordinate of a raw node index. Indices beyond the precomputed prefix
    /// (late joiners) are derived on the fly from the same pure function.
    #[must_use]
    pub(crate) fn coord(&self, node: usize) -> Coord {
        match self.coords.get(node) {
            Some(coord) => *coord,
            None => self.derive(node),
        }
    }

    /// Euclidean distance between two nodes' coordinates.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.coord(a).distance(self.coord(b))
    }

    /// Pure per-node coordinate derivation: a private RNG seeded from
    /// `(seed, node)` draws the position, so the result is independent of
    /// every other stream in the run and of generation order.
    fn derive(&self, node: usize) -> Coord {
        let mixed = (self.seed ^ COORDS_SALT).wrapping_add((node as u64).wrapping_mul(NODE_SALT));
        let mut rng = SimRng::seed_from(mixed);
        match self.spec {
            PlacementSpec::UniformPlane { width, height } => Coord {
                x: rng.unit_f64() * width,
                y: rng.unit_f64() * height,
            },
            PlacementSpec::Clustered { spread, .. } | PlacementSpec::Dumbbell { spread, .. } => {
                let center = self.centers[self.region(node) as usize];
                disc(center, spread, &mut rng)
            }
        }
    }
}

/// Uniform draw from a disc of radius `spread` around `center`.
fn disc(center: Coord, spread: f64, rng: &mut SimRng) -> Coord {
    let angle = rng.unit_f64() * std::f64::consts::TAU;
    let radius = spread * rng.unit_f64().sqrt();
    Coord {
        x: center.x + radius * angle.cos(),
        y: center.y + radius * angle.sin(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = PlacementSpec::Clustered {
            regions: 4,
            width: 500.0,
            height: 400.0,
            spread: 25.0,
        };
        let a = spec.generate(64, 7);
        let b = spec.generate(64, 7);
        assert_eq!(a, b);
        let c = spec.generate(64, 8);
        assert_ne!(a, c, "a different seed must move the nodes");
    }

    #[test]
    fn late_joiners_match_a_larger_initial_population() {
        // A node's coordinate must not depend on whether it was part of the
        // precomputed prefix: index 100 of a 64-node placement (derived
        // lazily) equals index 100 of a 128-node placement (precomputed).
        for spec in [
            PlacementSpec::UniformPlane {
                width: 300.0,
                height: 300.0,
            },
            PlacementSpec::Clustered {
                regions: 3,
                width: 300.0,
                height: 300.0,
                spread: 10.0,
            },
            PlacementSpec::Dumbbell {
                separation: 200.0,
                spread: 15.0,
            },
        ] {
            let small = spec.generate(64, 42);
            let large = spec.generate(128, 42);
            assert_eq!(small.coord(100), large.coord(100));
            assert_eq!(small.region(100), large.region(100));
        }
    }

    #[test]
    fn regions_are_balanced_round_robin() {
        let spec = PlacementSpec::Clustered {
            regions: 3,
            width: 100.0,
            height: 100.0,
            spread: 5.0,
        };
        let placement = spec.generate(9, 1);
        let mut counts = [0usize; 3];
        for node in 0..9 {
            counts[placement.region(node) as usize] += 1;
        }
        assert_eq!(counts, [3, 3, 3]);
    }

    #[test]
    fn coordinates_respect_max_distance() {
        for spec in [
            PlacementSpec::UniformPlane {
                width: 120.0,
                height: 90.0,
            },
            PlacementSpec::Clustered {
                regions: 5,
                width: 120.0,
                height: 90.0,
                spread: 30.0,
            },
            PlacementSpec::Dumbbell {
                separation: 80.0,
                spread: 12.0,
            },
        ] {
            let placement = spec.generate(128, 3);
            let bound = spec.max_distance();
            for a in 0..128 {
                for b in 0..128 {
                    assert!(
                        placement.distance(a, b) <= bound,
                        "{spec:?}: distance({a}, {b}) exceeds max_distance {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn dumbbell_separates_the_two_regions() {
        let spec = PlacementSpec::Dumbbell {
            separation: 1000.0,
            spread: 10.0,
        };
        let placement = spec.generate(32, 5);
        // Cross-region pairs are far apart; same-region pairs are close.
        assert!(placement.distance(0, 1) > 900.0);
        assert!(placement.distance(0, 2) < 100.0);
        assert!(placement.distance(1, 3) < 100.0);
    }

    #[test]
    fn zero_area_and_empty_region_specs_are_rejected_with_typed_errors() {
        let zero_width = PlacementSpec::UniformPlane {
            width: 0.0,
            height: 10.0,
        };
        assert_eq!(
            zero_width.validate(),
            Err(InvalidParams::OutOfRange {
                field: "placement width",
                value: 0.0,
                min: f64::MIN_POSITIVE,
                max: f64::MAX,
            })
        );
        let no_regions = PlacementSpec::Clustered {
            regions: 0,
            width: 10.0,
            height: 10.0,
            spread: 1.0,
        };
        assert_eq!(
            no_regions.validate(),
            Err(InvalidParams::OutOfRange {
                field: "placement regions",
                value: 0.0,
                min: 1.0,
                max: f64::from(u32::MAX),
            })
        );
        let negative_spread = PlacementSpec::Dumbbell {
            separation: 10.0,
            spread: -1.0,
        };
        assert!(matches!(
            negative_spread.validate(),
            Err(InvalidParams::OutOfRange {
                field: "placement spread",
                ..
            })
        ));
        let nan_separation = PlacementSpec::Dumbbell {
            separation: f64::NAN,
            spread: 1.0,
        };
        assert!(nan_separation.validate().is_err());
    }

    #[test]
    fn valid_specs_pass_validation() {
        assert_eq!(PlacementSpec::default().validate(), Ok(()));
        assert_eq!(
            PlacementSpec::Clustered {
                regions: 8,
                width: 1.0,
                height: 1.0,
                spread: 0.0,
            }
            .validate(),
            Ok(())
        );
    }
}
