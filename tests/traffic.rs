//! Serving lookup traffic against the live overlay: the service-level
//! regression suite for the `bss-traffic` workload layer.
//!
//! The headline these tests pin, at N = 1024 on both engines: a calm converged
//! overlay sustains over 10^5 lookups without dropping one; a mid-run churn
//! burst visibly dents the per-cycle success series and descriptor aging
//! repairs the service back above 0.99; and a 20 % id-spray conversion guts
//! undefended lookups while the descriptor verifier plus the view diversity
//! quota keep every window at or above 0.99.

use bootstrapping_service::core::experiment::{
    Experiment, ExperimentConfig, ExperimentConfigBuilder, RunReport, SamplerChoice,
};
use bootstrapping_service::core::scenario::{
    AdversaryBehavior, Engine, KeyDist, LatencyModel, Phase, ScenarioEvent,
};
use bootstrapping_service::traffic::{TrafficSummary, TrafficWorkload};
use bootstrapping_service::util::config::{BootstrapParams, NewscastParams};

const SIZE: usize = 1024;
const SEED: u64 = 5;
const VERIFIER_KEY: u64 = 0xbeef;

/// Cycle plus a non-degenerate event-engine latency model, so the hop charges
/// feeding the latency percentiles differ per hop.
const BOTH_ENGINES: [Engine; 2] = [
    Engine::Cycle,
    Engine::Event {
        latency: LatencyModel::Uniform {
            min_millis: 20,
            max_millis: 180,
        },
    },
];

fn run(builder: &mut ExperimentConfigBuilder, engine: Engine) -> (RunReport, TrafficSummary) {
    let mut config = builder.build().expect("valid traffic configuration");
    config.engine = engine;
    let report = Experiment::new(config).run();
    let summary = TrafficSummary::from_report(&report).expect("traffic was scheduled");
    (report, summary)
}

fn window_values(report: &RunReport) -> Vec<(u64, f64)> {
    report
        .lookups()
        .expect("traffic was scheduled")
        .success_series()
        .points()
        .to_vec()
}

/// A calm 1024-node overlay, converged before the workload starts, serves
/// 104 000 lookups (2600 per cycle for 40 cycles) without losing a single
/// one — on the cycle engine and through the event engine's latency model
/// alike.
#[test]
fn calm_converged_overlay_sustains_1e5_lookups_at_n1024() {
    let workload = TrafficWorkload::new(Phase::new(30, 70)).lookups_per_cycle(2600);
    for engine in BOTH_ENGINES {
        let label = engine.label();
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(SIZE)
            .seed(SEED)
            .max_cycles(70)
            .stop_when_perfect(false);
        workload.install(&mut builder);
        let (report, summary) = run(&mut builder, engine);
        assert!(
            report.convergence_cycle().is_some_and(|c| c < 30),
            "[{label}] the overlay must converge before the workload starts"
        );
        assert_eq!(summary.issued, 2600 * 40, "[{label}]");
        assert_eq!(summary.delivered, summary.issued, "[{label}]");
        assert_eq!(summary.success_rate, 1.0, "[{label}]");
        assert!(
            window_values(&report).iter().all(|&(_, v)| v == 1.0),
            "[{label}] every measured window must be perfect"
        );
    }
}

/// A churn burst in the middle of the serving window visibly drops per-cycle
/// success (nodes die holding in-flight routes and their stale descriptors
/// linger), and the aging failure detector repairs the service to >= 0.99 by
/// the end of the run.
#[test]
fn churn_burst_dents_the_service_and_aging_repairs_it_at_n1024() {
    for engine in BOTH_ENGINES {
        let label = engine.label();
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(SIZE)
            .seed(SEED)
            .max_cycles(60)
            .stop_when_perfect(false)
            .descriptor_max_age(Some(8))
            .event(ScenarioEvent::ChurnBurst {
                phase: Phase::new(28, 36),
                rate: 0.02,
            });
        TrafficWorkload::new(Phase::new(20, 60))
            .lookups_per_cycle(200)
            .install(&mut builder);
        let (report, summary) = run(&mut builder, engine);
        let windows = window_values(&report);
        assert!(
            windows
                .iter()
                .filter(|&&(cycle, _)| cycle < 28)
                .all(|&(_, v)| v == 1.0),
            "[{label}] the pre-burst service must be perfect"
        );
        let dip = summary.worst_window_success.expect("windows were measured");
        assert!(
            dip < 0.95,
            "[{label}] the burst must visibly dent the service (worst window {dip:.3})"
        );
        let last = summary.final_window_success.expect("windows were measured");
        assert!(
            last >= 0.99,
            "[{label}] the service must recover to >= 0.99 (final window {last:.3})"
        );
    }
}

/// The eclipse attack as the users see it: 20 % of the network converts to
/// id-spraying node 0 while Zipf-skewed lookups hammer exactly that region.
/// Aging is on, so honest descriptors crowded out by forgeries expire instead
/// of limping along stale — undefended success visibly degrades. Switching on
/// both countermeasures (descriptor verifier + view diversity quota) holds
/// every window at or above 0.99.
#[test]
fn id_spray_guts_undefended_lookups_and_countermeasures_restore_them_at_n1024() {
    for engine in BOTH_ENGINES {
        let label = engine.label();
        let mut summaries = Vec::new();
        for defended in [false, true] {
            let mut builder = ExperimentConfig::builder();
            builder
                .network_size(SIZE)
                .seed(SEED)
                .max_cycles(60)
                .stop_when_perfect(false)
                .event(ScenarioEvent::ByzantineConvert {
                    phase: Phase::new(5, 45),
                    fraction: 0.2,
                    behavior: AdversaryBehavior::IdSpray { target: 0 },
                })
                .sampler(SamplerChoice::Newscast(NewscastParams {
                    view_size: 20,
                    period_millis: 1000,
                    view_diversity_quota: defended.then_some(2),
                    ..NewscastParams::paper_default()
                }))
                .params(BootstrapParams {
                    descriptor_verifier: defended.then_some(VERIFIER_KEY),
                    ..BootstrapParams::paper_default()
                })
                .descriptor_max_age(Some(8));
            TrafficWorkload::new(Phase::new(10, 60))
                .lookups_per_cycle(200)
                .key_dist(KeyDist::Zipf { exponent: 1.1 })
                .install(&mut builder);
            let (report, summary) = run(&mut builder, engine);
            if defended {
                assert!(
                    summary.success_rate >= 0.99,
                    "[{label}] defended lookups must stay whole ({:.4})",
                    summary.success_rate
                );
                assert!(
                    window_values(&report).iter().all(|&(_, v)| v >= 0.99),
                    "[{label}] every defended window must hold >= 0.99"
                );
            } else {
                assert!(
                    summary.success_rate < 0.95,
                    "[{label}] undefended lookups must degrade ({:.4})",
                    summary.success_rate
                );
                let dip = summary.worst_window_success.expect("windows were measured");
                assert!(
                    dip < 0.9,
                    "[{label}] the attack must gut whole windows (worst {dip:.3})"
                );
            }
            summaries.push(summary);
        }
        assert!(
            summaries[1].success_rate > summaries[0].success_rate,
            "[{label}] the countermeasures must beat the undefended run"
        );
    }
}
