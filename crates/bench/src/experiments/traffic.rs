//! The live-traffic sweep: N × scenario × router × engine, each cell serving
//! a sustained lookup workload against the overlay *while* it converges,
//! churns or is attacked.
//!
//! For every cell the sweep writes the full serializable `RunReport` as JSON
//! (`<out-dir>/<scenario>_<router>_<engine>.json` — sweeps with several sizes
//! prefix `n<size>_`), prints a one-line summary per run, and appends every
//! measured cycle of the traffic series to a long-format timeline TSV
//! (`<out-dir>/traffic_timeline.tsv`: scenario, router, engine, N, cycle,
//! success rate, hop mean/max, latency p50/p95/p99) — the data behind the
//! "Serve real traffic" numbers in the roadmap.
//!
//! With `--link wan[:placement]` the sweep runs over a WAN topology and also
//! writes `<out-dir>/traffic_regions.tsv`, the same timeline split by client
//! region, so the latency percentiles show their geography.

use crate::cli::Args;
use crate::sweep::{Cell, Sweep};
use bss_core::scenario::{AdversaryBehavior, KeyDist, Phase, ScenarioEvent};
use bss_core::RouterKind;
use bss_traffic::{
    append_region_timeline, append_timeline, region_timeline_header, timeline_header,
    TrafficSummary, TrafficWorkload,
};

/// The service scenarios of the sweep: name, the events layered under the
/// traffic phase, the key distribution, and whether the cell runs over
/// NEWSCAST — `Some(defended)` — instead of the oracle.
fn scenarios(cycles: u64) -> [(&'static str, Vec<ScenarioEvent>, KeyDist, Option<bool>); 4] {
    let churn = ScenarioEvent::ChurnBurst {
        phase: Phase::new(cycles / 4, cycles * 2 / 5),
        rate: 0.02,
    };
    let attack = ScenarioEvent::ByzantineConvert {
        phase: Phase::new(5, cycles * 3 / 4),
        fraction: 0.2,
        behavior: AdversaryBehavior::IdSpray { target: 0 },
    };
    // The adversarial cells skew the keys towards the victim's region (Zipf
    // rank 0 is node 0, the id-spray target), so the lookups actually
    // exercise the poisoned tables.
    let skewed = KeyDist::Zipf { exponent: 1.1 };
    [
        ("calm", vec![], KeyDist::Uniform, None),
        ("churn", vec![churn], KeyDist::Uniform, None),
        ("adversary", vec![attack.clone()], skewed, Some(false)),
        ("adversary_defended", vec![attack], skewed, Some(true)),
    ]
}

pub(super) fn run(args: &Args) -> super::Outcome {
    let link = args.link_model_arg()?;
    let sweep = Sweep::from_args(args, "Traffic sweep", false)?;
    let rate = if args.flag("smoke") { 50 } else { 100 };

    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (name, events, key_dist, newscast) in scenarios(sweep.cycles) {
        for router in RouterKind::ALL {
            let mut cell = Cell::new(format!("{name}_{router}"), []);
            if let Some(model) = link {
                cell.config.link_model(model);
            }
            TrafficWorkload::new(Phase::new(0, sweep.cycles))
                .lookups_per_cycle(rate)
                .key_dist(key_dist)
                .router(router)
                .install(&mut cell.config);
            for event in &events {
                cell.config.event(event.clone());
            }
            if let Some(defended) = newscast {
                cell.over_newscast(defended.then_some(2), defended.then_some(0x7faf_f1c5));
            }
            // Every disturbed cell ages its descriptors. The churn cell needs
            // the failure detector to recover; for the adversarial ones expiry
            // is what arms the attack — honest descriptors crowded out by
            // forgeries stop being refreshed and fall out of the tables, so
            // undefended lookups start dying on forged contacts instead of
            // limping along on stale honest entries.
            if !events.is_empty() {
                cell.config.descriptor_max_age(Some(8));
            }
            cells.push(cell);
            labels.push((name, router));
        }
    }

    println!(
        "scenario\trouter\tengine\tn\tissued\tdelivered\tsuccess_rate\tmean_hops\tmax_hops\
         \tworst_window\tfinal_window"
    );
    let mut timeline = String::from(timeline_header());
    let mut regions = String::from(region_timeline_header());
    sweep.run(&cells, |run| {
        let (scenario, router) = labels[run.cell];
        let (engine, n) = (run.engine, run.network_size);
        let summary = TrafficSummary::from_report(run.report).expect("traffic was scheduled");
        println!(
            "{scenario}\t{router}\t{engine}\t{n}\t{}\t{}\t{:.4}\t{:.2}\t{}\t{:.4}\t{:.4}",
            summary.issued,
            summary.delivered,
            summary.success_rate,
            summary.mean_hops,
            summary.max_hops,
            summary.worst_window_success.unwrap_or(0.0),
            summary.final_window_success.unwrap_or(0.0),
        );
        append_timeline(&mut timeline, scenario, router, engine, n, run.report);
        append_region_timeline(&mut regions, scenario, router, engine, n, run.report);
    });
    sweep.write("traffic_timeline.tsv", &timeline);
    if regions.len() > region_timeline_header().len() {
        sweep.write("traffic_regions.tsv", &regions);
    }
    Ok(())
}
