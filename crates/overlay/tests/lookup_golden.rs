//! Golden pin for the snapshot lookup evaluator.
//!
//! The per-hop routing decisions and the route loop are shared with the live
//! traffic router in `bss_core::routing`; this suite pins the exact output of
//! a bootstrap followed by `LookupEvaluator::evaluate` (and of every router
//! on the same snapshot) so any behavioural drift in the shared step
//! functions is caught as a hard diff, not a statistical wobble. The Pastry
//! and Kademlia numbers were recorded before the step functions moved to
//! `bss_core`, the Chord row when Chord began routing over the bootstrapped
//! tables like the other two. A number changes only by a deliberate re-pin.

use bss_core::experiment::{Experiment, ExperimentConfig};
use bss_core::routing::RouterKind;
use bss_overlay::LookupEvaluator;

fn golden_config() -> ExperimentConfig {
    ExperimentConfig::builder()
        .network_size(192)
        .seed(29)
        .max_cycles(80)
        .build()
        .unwrap()
}

#[test]
fn bootstrap_and_evaluate_output_is_pinned() {
    let config = golden_config();
    let (_, population) = Experiment::new(config.clone()).run_with_snapshot();
    let report =
        LookupEvaluator::new(population, config.seed ^ 0x5eed).evaluate(RouterKind::Pastry, 400);
    assert_eq!(report.router(), RouterKind::Pastry);
    assert_eq!(report.attempted(), 400);
    assert_eq!(report.delivered(), 400);
    // 686 total hops over 400 delivered lookups: the exact trace recorded
    // before the routing step moved into bss_core.
    assert_eq!(report.mean_hops(), 686.0 / 400.0);
    assert_eq!(report.max_hops(), 3);
}

#[test]
fn every_router_over_the_bootstrapped_tables_is_pinned() {
    let (_, population) = Experiment::new(golden_config()).run_with_snapshot();
    let mut evaluator = LookupEvaluator::new(population, 0xfeed);
    let golden: [(RouterKind, usize, u64, u64); 3] = [
        (RouterKind::Pastry, 250, 417, 2),
        (RouterKind::Kademlia, 250, 427, 2),
        (RouterKind::Chord, 250, 416, 3),
    ];
    for (router, delivered, total_hops, max_hops) in golden {
        let report = evaluator.evaluate(router, 250);
        assert_eq!(report.router(), router);
        assert_eq!(report.attempted(), 250);
        assert_eq!(report.delivered(), delivered, "{router}");
        assert_eq!(
            report.mean_hops(),
            total_hops as f64 / delivered as f64,
            "{router}"
        );
        assert_eq!(report.max_hops(), max_hops, "{router}");
    }
}
