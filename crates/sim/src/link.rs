//! The distance-dependent WAN latency formula: its parameters and the one
//! pure function that evaluates it.
//!
//! Latency of a link is `base_millis + distance × millis_per_unit + jitter`,
//! where `distance` is the Euclidean distance between the endpoints'
//! coordinates ([`bss_util::coords`]) and `jitter` is a hash of
//! `(seed, src, dst)` — never a draw from the engine RNG — so the latency of
//! a link is a deterministic function of the pair, independent of message
//! order. [`Transport`](crate::transport::Transport) charges it per message;
//! the traffic layer charges the same value per lookup hop.

use crate::network::NodeIndex;
use bss_util::config::InvalidParams;
use bss_util::coords::Placement;

/// Salt mixed into the seed of the per-pair jitter hash (spells
/// `"linkjit!"`), keeping it disjoint from every other derived stream.
pub(crate) const LINK_JITTER_SALT: u64 = 0x6c69_6e6b_6a69_7421;

/// Parameters of the distance-dependent WAN latency model.
///
/// The jitter hash is ordered, so `a → b` and `b → a` generally differ —
/// links are asymmetric, as in heterogeneous-link architectures. Messages
/// crossing a region boundary are additionally dropped with probability
/// `inter_region_loss`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanParams {
    /// Fixed per-link cost in milliseconds (propagation floor).
    pub base_millis: u64,
    /// Milliseconds added per coordinate distance unit.
    pub millis_per_unit: f64,
    /// Upper bound (inclusive) of the deterministic per-pair jitter, ms.
    pub jitter_millis: u64,
    /// Drop probability for messages whose endpoints lie in different regions.
    pub inter_region_loss: f64,
}

impl Default for WanParams {
    /// 5 ms floor, 0.05 ms per unit, 3 ms jitter, lossless.
    fn default() -> Self {
        WanParams {
            base_millis: 5,
            millis_per_unit: 0.05,
            jitter_millis: 3,
            inter_region_loss: 0.0,
        }
    }
}

/// SplitMix64 finalizer: the bijective mixer behind the jitter hash.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl WanParams {
    /// Rejects non-finite or negative rates and out-of-unit loss with the
    /// typed [`InvalidParams::OutOfRange`].
    pub fn validate(&self) -> Result<(), InvalidParams> {
        if !self.millis_per_unit.is_finite() || self.millis_per_unit < 0.0 {
            return Err(InvalidParams::OutOfRange {
                field: "wan millis_per_unit",
                value: self.millis_per_unit,
                min: 0.0,
                max: f64::MAX,
            });
        }
        if !self.inter_region_loss.is_finite() || !(0.0..=1.0).contains(&self.inter_region_loss) {
            return Err(InvalidParams::OutOfRange {
                field: "wan inter_region_loss",
                value: self.inter_region_loss,
                min: 0.0,
                max: 1.0,
            });
        }
        Ok(())
    }

    /// Latency of the ordered link `from → to` over `placement`, floored at
    /// 1 ms. Pure: the same `(seed, from, to)` always answers the same.
    pub(crate) fn latency(
        &self,
        placement: &Placement,
        seed: u64,
        from: NodeIndex,
        to: NodeIndex,
    ) -> u64 {
        let distance = placement.distance(from.as_usize(), to.as_usize());
        let jitter = if self.jitter_millis == 0 {
            0
        } else {
            let pair = (u64::from(from.raw()) << 32) | u64::from(to.raw());
            mix(seed ^ LINK_JITTER_SALT ^ pair) % (self.jitter_millis + 1)
        };
        (self.base_millis + self.propagation(distance) + jitter).max(1)
    }

    /// Inclusive `(min, max)` bounds of [`WanParams::latency`] over a
    /// placement whose largest pairwise distance is `max_distance`.
    pub(crate) fn bounds(&self, max_distance: f64) -> (u64, u64) {
        let max = self.base_millis + self.propagation(max_distance) + self.jitter_millis;
        (self.base_millis.max(1), max.max(1))
    }

    fn propagation(&self, distance: f64) -> u64 {
        (distance * self.millis_per_unit).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{outage, slow};
    use crate::transport::{LatencyModel, Transport};
    use bss_util::coords::PlacementSpec;
    use bss_util::rng::SimRng;
    use std::sync::Arc;

    const DUMBBELL: PlacementSpec = PlacementSpec::Dumbbell {
        separation: 500.0,
        spread: 20.0,
    };

    fn idx(i: u32) -> NodeIndex {
        NodeIndex::new(i)
    }

    fn dumbbell() -> Arc<Placement> {
        Arc::new(DUMBBELL.generate(16, 7))
    }

    fn wan_transport(params: WanParams, seed: u64) -> Transport {
        let model = LatencyModel::Wan {
            placement: DUMBBELL,
            params,
        };
        Transport::new(model, Some(dumbbell()), seed)
    }

    #[test]
    fn wan_latency_is_deterministic_and_draws_nothing() {
        let wan = wan_transport(WanParams::default(), 99);
        let mut rng = SimRng::seed_from(1);
        let fingerprint = rng.clone();
        let first = wan.latency_millis(idx(0), idx(1), &mut rng);
        let second = wan.latency_millis(idx(0), idx(1), &mut rng);
        assert_eq!(first, second);
        assert_eq!(rng, fingerprint, "WAN latency must not consume engine RNG");
    }

    #[test]
    fn wan_latency_is_asymmetric_but_bounded() {
        let placement = dumbbell();
        let params = WanParams {
            jitter_millis: 10,
            ..WanParams::default()
        };
        let (min, max) = params.bounds(DUMBBELL.max_distance());
        let mut saw_asymmetry = false;
        for a in 0..16u32 {
            for b in 0..16u32 {
                let forward = params.latency(&placement, 3, idx(a), idx(b));
                assert!((min..=max).contains(&forward));
                if a != b && forward != params.latency(&placement, 3, idx(b), idx(a)) {
                    saw_asymmetry = true;
                }
            }
        }
        assert!(saw_asymmetry, "ordered jitter should split some pair");
    }

    #[test]
    fn wan_cross_region_links_cost_more_than_local_ones() {
        let placement = dumbbell();
        let params = WanParams::default();
        // Dumbbell: even indices are region 0, odd are region 1.
        let local = params.latency(&placement, 5, idx(0), idx(2));
        let cross = params.latency(&placement, 5, idx(0), idx(1));
        assert!(
            cross > local,
            "separation 500 must dominate: local {local}, cross {cross}"
        );
    }

    #[test]
    fn wan_inter_region_loss_applies_only_across_regions() {
        let params = WanParams {
            inter_region_loss: 0.25,
            ..WanParams::default()
        };
        let mut wan = wan_transport(params, 1);
        let mut rng = SimRng::seed_from(4);
        let quiet = rng.clone();
        assert!(wan.should_deliver(idx(0), idx(2), &mut rng));
        assert_eq!(rng, quiet, "a local link flips no structural coin");
        let mut coin = rng.clone();
        assert_eq!(
            wan.should_deliver(idx(0), idx(1), &mut rng),
            !coin.chance(0.25)
        );
        assert_eq!(rng, coin, "a cross-region link flips exactly one");
    }

    #[test]
    fn outage_window_drops_only_matching_region_and_window() {
        let mut transport = Transport::new(LatencyModel::default(), Some(dumbbell()), 0)
            .with_timeline(&[outage(5, 10, 1, 1.0)], 16);
        let mut rng = SimRng::seed_from(2);
        // Outside the window: everything flows, no coins flipped.
        let fingerprint = rng.clone();
        assert!(transport.should_deliver(idx(0), idx(1), &mut rng));
        assert_eq!(rng, fingerprint);
        // Inside: region-1 traffic dies, region-0-local traffic survives
        // untouched.
        transport.advance_to_cycle(5);
        assert!(!transport.should_deliver(idx(0), idx(1), &mut rng));
        assert!(!transport.should_deliver(idx(1), idx(3), &mut rng));
        let quiet = rng.clone();
        assert!(transport.should_deliver(idx(0), idx(2), &mut rng));
        assert_eq!(rng, quiet, "region-0 traffic must not flip outage coins");
        // Past the window: region 1 recovers.
        transport.advance_to_cycle(10);
        assert!(transport.should_deliver(idx(0), idx(1), &mut rng));
        assert_eq!(transport.messages_dropped(), 2);
    }

    #[test]
    fn slow_window_scales_latency_and_heals() {
        let mut transport =
            Transport::new(LatencyModel::Constant { millis: 10 }, Some(dumbbell()), 0)
                .with_timeline(
                    &[slow(3, 6, Some(1), 2.5), slow(0, u64::MAX, None, 1.0)],
                    16,
                );
        let mut rng = SimRng::seed_from(3);
        assert_eq!(transport.latency_millis(idx(0), idx(1), &mut rng), 10);
        transport.advance_to_cycle(3);
        assert_eq!(transport.latency_millis(idx(0), idx(1), &mut rng), 25);
        assert_eq!(
            transport.latency_millis(idx(0), idx(2), &mut rng),
            10,
            "region-0-local links are unaffected"
        );
        transport.advance_to_cycle(6);
        assert_eq!(transport.latency_millis(idx(0), idx(1), &mut rng), 10);
    }

    #[test]
    fn wan_params_validation_is_typed() {
        let bad_rate = WanParams {
            millis_per_unit: -1.0,
            ..WanParams::default()
        };
        assert!(matches!(
            bad_rate.validate(),
            Err(InvalidParams::OutOfRange {
                field: "wan millis_per_unit",
                ..
            })
        ));
        let bad_loss = WanParams {
            inter_region_loss: 1.5,
            ..WanParams::default()
        };
        assert!(matches!(
            bad_loss.validate(),
            Err(InvalidParams::OutOfRange {
                field: "wan inter_region_loss",
                ..
            })
        ));
        assert_eq!(WanParams::default().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn uniform_link_rejects_inverted_range() {
        let inverted = LatencyModel::Uniform {
            min_millis: 10,
            max_millis: 5,
        };
        let _ = Transport::new(inverted, None, 0);
    }
}
