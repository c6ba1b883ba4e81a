//! Property tests for the WAN link model.
//!
//! Pins the two guarantees the rest of the stack builds on: `Wan` latency is
//! a *pure function* of `(src, dst, seed)` — same answer on every call, no
//! engine RNG consumed — and every answer respects the bounds the model
//! declares from its placement spec.

use bss_sim::link::WanParams;
use bss_sim::network::NodeIndex;
use bss_sim::transport::{LatencyModel, Transport};
use bss_util::coords::PlacementSpec;
use bss_util::rng::SimRng;
use proptest::prelude::*;

/// Builds one of the three placement shapes from generated raw knobs.
fn spec(kind: u8, extent: u32, regions: u32, spread: u32) -> PlacementSpec {
    let extent = f64::from(extent % 5000 + 1);
    let spread = f64::from(spread % 500);
    match kind % 3 {
        0 => PlacementSpec::UniformPlane {
            width: extent,
            height: extent / 2.0 + 1.0,
        },
        1 => PlacementSpec::Clustered {
            regions: regions % 8 + 1,
            width: extent,
            height: extent,
            spread,
        },
        _ => PlacementSpec::Dumbbell {
            separation: extent,
            spread,
        },
    }
}

proptest! {
    #[test]
    fn wan_latency_is_deterministic_and_within_bounds(
        kind in any::<u8>(),
        extent in any::<u32>(),
        geo in any::<u64>(),
        seed in any::<u64>(),
        pair in any::<u32>(),
        knobs in any::<u64>(),
    ) {
        // Unpack the generated knobs (the proptest shim caps tuple arity).
        let regions = (geo & 0xFFFF_FFFF) as u32;
        let spread = (geo >> 32) as u32;
        let src = pair & 0xFF;
        let dst = (pair >> 8) & 0xFF;
        let base = knobs % 100;
        let per_unit_centi = (knobs >> 8) % 500;
        let jitter = (knobs >> 24) % 50;
        let spec = spec(kind, extent, regions, spread);
        prop_assert!(spec.validate().is_ok(), "generated spec must be valid: {spec:?}");
        let params = WanParams {
            base_millis: base,
            millis_per_unit: per_unit_centi as f64 / 100.0,
            jitter_millis: jitter,
            inter_region_loss: 0.0,
        };
        prop_assert!(params.validate().is_ok());
        let model = LatencyModel::Wan { placement: spec, params };
        let placement = model.build_placement(64, seed);

        let wan = Transport::new(model, placement.clone(), seed);
        let (from, to) = (NodeIndex::new(src), NodeIndex::new(dst));
        let mut rng = SimRng::seed_from(seed ^ 0xABCD);
        let fingerprint = rng.clone();

        // Deterministic per (src, dst, seed): repeated queries agree, a
        // rebuilt model agrees, and the engine RNG is never consumed.
        let latency = wan.latency_millis(from, to, &mut rng);
        prop_assert_eq!(latency, wan.latency_millis(from, to, &mut rng));
        let rebuilt = Transport::new(model, placement, seed);
        prop_assert_eq!(latency, rebuilt.latency_millis(from, to, &mut rng));
        prop_assert_eq!(rng, fingerprint);

        // Declared bounds hold — including for lazily-derived late joiners
        // (src/dst range past the 64 precomputed coordinates).
        let (min, max) = model.bounds();
        prop_assert!(min <= max);
        prop_assert!(
            (min..=max).contains(&latency),
            "latency {} outside declared bounds [{}, {}]", latency, min, max
        );
    }
}
