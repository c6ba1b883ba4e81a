//! Byzantine fault injection: the regression suite for the
//! `ByzantineConvert` scenario event, the eclipse/poisoning metrics and the
//! two config-gated countermeasures (descriptor verification and the view
//! diversity quota).
//!
//! The headline these tests pin: at N = 1024 with NEWSCAST sampling, a 20 %
//! id-spray conversion fully eclipses its undefended target on both engines,
//! while switching both countermeasures on keeps the eclipse fraction below
//! 0.5 for the whole run and the network still converges.

use bootstrapping_service::core::experiment::{
    Experiment, ExperimentConfig, RunReport, SamplerChoice,
};
use bootstrapping_service::core::scenario::{
    AdversaryBehavior, Engine, LatencyModel, Phase, ScenarioEvent,
};
use bootstrapping_service::util::config::{BootstrapParams, NewscastParams};

const ATTACK_START: u64 = 5;
const ATTACK_END: u64 = 45;
const VERIFIER_KEY: u64 = 0x0ff1_cec0_ffee;

/// The headline configuration: 20 % of a 1024-node network converts to
/// id-spraying node 0 during cycles [5, 45). `defended` switches on *both*
/// countermeasures — the descriptor verifier on the bootstrap layer and the
/// per-origin view diversity quota on the NEWSCAST layer.
fn spray_config(engine: Engine, defended: bool) -> ExperimentConfig {
    let newscast = NewscastParams {
        view_size: 20,
        view_diversity_quota: defended.then_some(2),
        ..NewscastParams::paper_default()
    };
    let params = BootstrapParams {
        descriptor_verifier: defended.then_some(VERIFIER_KEY),
        ..BootstrapParams::paper_default()
    };
    let mut builder = ExperimentConfig::builder();
    builder
        .network_size(1024)
        .seed(7)
        .max_cycles(120)
        .engine(engine)
        .params(params)
        .sampler(SamplerChoice::Newscast(newscast))
        .event(ScenarioEvent::ByzantineConvert {
            phase: Phase::new(ATTACK_START, ATTACK_END),
            fraction: 0.2,
            behavior: AdversaryBehavior::IdSpray { target: 0 },
        });
    builder.build().expect("valid adversarial configuration")
}

/// The largest value of one of the report's series.
fn series_peak(report: &RunReport, series: &str) -> f64 {
    report.series(series).expect("a series of the run").peak()
}

const BOTH_ENGINES: [Engine; 2] = [
    Engine::Cycle,
    Engine::Event {
        latency: LatencyModel::Constant { millis: 1 },
    },
];

/// The acceptance pin: undefended, the sprayers take every leaf-set slot of
/// their victim (`eclipsed`, with a finite time-to-eclipse inside the attack
/// window); with the verifier and the quota on, the eclipse fraction never
/// reaches 0.5 and the network still converges — on both engines.
#[test]
fn id_spray_eclipses_undefended_target_and_countermeasures_hold_at_n1024() {
    for engine in BOTH_ENGINES {
        let label = engine.label();

        let undefended = Experiment::new(spray_config(engine, false)).run();
        assert!(
            undefended.eclipsed(),
            "[{label}] 20% id-spray must fully eclipse the undefended target \
             (peak eclipse fraction {:.3})",
            series_peak(&undefended, "eclipse_series")
        );
        let time_to_eclipse = undefended.time_to_eclipse().expect("eclipsed");
        assert!(
            (ATTACK_START..ATTACK_END).contains(&time_to_eclipse),
            "[{label}] time-to-eclipse {time_to_eclipse} outside the attack window"
        );
        // The attack leaves the conversion visible in the fired-event log and
        // the poisoning metric live.
        assert_eq!(undefended.events_fired().len(), 1, "[{label}]");
        assert_eq!(undefended.events_fired()[0].0, ATTACK_START, "[{label}]");
        assert!(
            series_peak(&undefended, "poisoned_series") > 0.0,
            "[{label}]"
        );

        let defended = Experiment::new(spray_config(engine, true)).run();
        let peak = series_peak(&defended, "eclipse_series");
        assert!(
            peak < 0.5,
            "[{label}] countermeasures must keep the eclipse fraction below \
             0.5 for the whole run (peak {peak:.3})"
        );
        assert!(!defended.eclipsed(), "[{label}]");
        assert_eq!(defended.time_to_eclipse(), None, "[{label}]");
        assert!(
            defended.converged(),
            "[{label}] the defended network must still converge: {defended}"
        );

        // The report JSON carries the verdict CI gates on.
        assert!(undefended.to_json().contains("\"eclipsed\": true"));
        let defended_json = defended.to_json();
        assert!(defended_json.contains("\"eclipsed\": false"));
        assert!(defended_json.contains("\"time_to_eclipse\": null"));
    }
}

/// Cycle-vs-event consistency for descriptor forgery: the poisoning surge and
/// its repair must not be artifacts of the synchronous cycle abstraction. The
/// same 10 % forge scenario runs on both engines at N = 512; both must show
/// the poisoned-descriptor fraction rising above the adversaries' natural 10 %
/// address share during the attack, and both must converge after it ends.
///
/// Descriptor aging is on: forged identifiers are indistinguishable from
/// departed nodes (no honest peer ever re-stamps them), so the failure
/// detector's expiry is the mechanism that actually evicts them once the
/// forgers stop refreshing their fabrications. Without it the forged entries
/// squat in the tables forever and the overlay never recovers.
#[test]
fn both_engines_agree_on_forge_poisoning_at_n512() {
    let forge_end = 30u64;
    let mut peaks = Vec::new();
    for engine in BOTH_ENGINES {
        let label = engine.label();
        let config = {
            let mut builder = ExperimentConfig::builder();
            builder
                .network_size(512)
                .seed(42)
                .max_cycles(100)
                .descriptor_max_age(Some(8))
                .engine(engine)
                .event(ScenarioEvent::ByzantineConvert {
                    phase: Phase::new(ATTACK_START, forge_end),
                    fraction: 0.1,
                    behavior: AdversaryBehavior::ForgeDescriptors,
                });
            builder.build().unwrap()
        };
        let report = Experiment::new(config).run();
        // Before the conversion fires the poisoned fraction is structurally
        // zero; during the attack the forged copies push it above the 10 %
        // share the adversaries' addresses hold naturally.
        assert_eq!(
            report.series("poisoned_series").unwrap().value_at(0),
            Some(0.0),
            "[{label}]"
        );
        let peak = series_peak(&report, "poisoned_series");
        assert!(
            peak > 0.1,
            "[{label}] forging must over-represent adversary addresses \
             (peak poisoned fraction {peak:.3})"
        );
        // Forgery names no eclipse target, so the eclipse metric stays zero.
        assert_eq!(report.time_to_eclipse(), None, "[{label}]");
        assert!(
            report
                .series("eclipse_series")
                .unwrap()
                .points()
                .iter()
                .all(|&(_, value)| value == 0.0),
            "[{label}] a targetless attack must not register an eclipse"
        );
        // Once the attack window closes, honest gossip repairs the tables.
        assert!(
            report.converged(),
            "[{label}] the overlay must recover from the forge window: {report}"
        );
        assert!(
            report.convergence_cycle().unwrap() >= forge_end - 1,
            "[{label}] the recorded convergence must postdate the attack"
        );
        peaks.push(peak);
    }
    // Same scenario, same qualitative story: the two engines' poisoning peaks
    // agree to well within the attack's own magnitude.
    assert!(
        (peaks[0] - peaks[1]).abs() < 0.1,
        "engines disagree on the poisoning surge: cycle {:.3} vs event {:.3}",
        peaks[0],
        peaks[1]
    );
}

/// The hub attack end to end: sybil flooding from 5 % of a 256-node network
/// concentrates the sampling overlay's in-degree on the attackers (visible in
/// the per-cycle Gini and max in-degree series); the view diversity quota caps
/// the concentration without touching honest traffic.
#[test]
fn hub_attack_spikes_in_degree_and_quota_flattens_it() {
    let run = |quota: Option<usize>| {
        let config = ExperimentConfig::builder()
            .network_size(256)
            .seed(9)
            .max_cycles(60)
            .stop_when_perfect(false)
            .sampler(SamplerChoice::Newscast(NewscastParams {
                view_size: 20,
                view_diversity_quota: quota,
                ..NewscastParams::paper_default()
            }))
            .event(ScenarioEvent::ByzantineConvert {
                phase: Phase::new(ATTACK_START, 60),
                fraction: 0.05,
                behavior: AdversaryBehavior::HubAttack,
            })
            .build()
            .unwrap();
        Experiment::new(config).run()
    };
    let undefended = run(None);
    let defended = run(Some(2));
    // The quality series are live on both runs (NEWSCAST maintains an overlay
    // to measure) and cover every measured cycle.
    assert_eq!(
        undefended.series("in_degree_gini_series").unwrap().len(),
        undefended.cycles_executed() as usize
    );
    let gini_undefended = series_peak(&undefended, "in_degree_gini_series");
    let gini_defended = series_peak(&defended, "in_degree_gini_series");
    let max_undefended = series_peak(&undefended, "in_degree_max_series");
    let max_defended = series_peak(&defended, "in_degree_max_series");
    assert!(
        gini_undefended > gini_defended,
        "quota must flatten the in-degree distribution \
         (gini {gini_undefended:.3} vs {gini_defended:.3})"
    );
    assert!(
        max_undefended > max_defended,
        "quota must cap the hubs' in-degree \
         (max {max_undefended:.1} vs {max_defended:.1})"
    );
    // The undefended hubs really dominate: the heaviest node holds several
    // times the mean in-degree (≈ the view size).
    assert!(
        max_undefended > 3.0 * 20.0,
        "hub attack should concentrate in-degree (max {max_undefended:.1})"
    );
    let json = undefended.to_json();
    assert!(json.contains("\"in_degree_gini_series\""));
    assert!(json.contains("\"dead_pointer_series\""));
}
