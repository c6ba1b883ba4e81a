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
use bss_core::traffic::LookupTrafficReport;
use bss_core::RouterKind;
use bss_traffic::{TrafficSummary, TrafficWorkload};
use bss_util::stats::append_cycle_rows;

/// Header row of the long-format traffic timeline (one row per measured cycle
/// per run): the sweep coordinates, so the file concatenates across the whole
/// sweep and plots with a single group-by, then [`append_rows`]' columns.
const HEADER: &str = "scenario\trouter\tengine\tn\tcycle\tsuccess_rate\thop_mean\thop_max\
                      \tlatency_p50\tlatency_p95\tlatency_p99\n";

/// Header row of the per-client-region timeline (one row per region per
/// measured window; see [`append_region_rows`]).
pub(super) const REGIONS_HEADER: &str =
    "scenario\trouter\tengine\tn\tregion\tcycle\tsuccess_rate\tlatency_p50\tlatency_p99\n";

/// Appends one run's measured cycles to the traffic timeline.
fn append_rows(timeline: &mut String, coordinates: &str, lookups: &LookupTrafficReport) {
    append_cycle_rows(
        timeline,
        coordinates,
        &[
            (lookups.series("lookup_success_series"), 6),
            (lookups.series("lookup_hop_mean_series"), 6),
            (lookups.series("lookup_hop_max_series"), 1),
            (lookups.series("lookup_latency_p50_series"), 1),
            (lookups.series("lookup_latency_p95_series"), 1),
            (lookups.series("lookup_latency_p99_series"), 1),
        ],
    );
}

/// Appends one WAN run's per-client-region windows to the region timeline:
/// every row carries the sweep coordinates plus the *client's* region id, so
/// a single group-by surfaces which geography eats the tail latency. Runs
/// without a node placement (no `Wan` link model) have no region series and
/// contribute nothing.
pub(super) fn append_region_rows(
    timeline: &mut String,
    coordinates: &str,
    lookups: &LookupTrafficReport,
) {
    for region in 0.. {
        let of_region = |key: &str| lookups.series(&format!("{key}_r{region}"));
        let Some(success) = of_region("lookup_success_series") else {
            break;
        };
        append_cycle_rows(
            timeline,
            &format!("{coordinates}\t{region}"),
            &[
                (Some(success), 6),
                (of_region("lookup_latency_p50_series"), 1),
                (of_region("lookup_latency_p99_series"), 1),
            ],
        );
    }
}

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
    let mut timeline = String::from(HEADER);
    let mut regions = String::from(REGIONS_HEADER);
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
        let lookups = run.report.lookups().expect("traffic was scheduled");
        let coordinates = format!("{scenario}\t{router}\t{engine}\t{n}");
        append_rows(&mut timeline, &coordinates, lookups);
        append_region_rows(&mut regions, &coordinates, lookups);
    })?;
    sweep.write("traffic_timeline.tsv", &timeline)?;
    if regions.len() > REGIONS_HEADER.len() {
        sweep.write("traffic_regions.tsv", &regions)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_core::experiment::{Experiment, ExperimentConfig, RunReport};

    fn run_workload(workload: TrafficWorkload, wan: bool) -> RunReport {
        let mut builder = ExperimentConfig::builder();
        builder.network_size(64).seed(5).max_cycles(40);
        if wan {
            builder.link_model(bss_core::LatencyModel::Wan {
                placement: crate::cli::wan_placement("clustered", 3).unwrap(),
                params: Default::default(),
            });
        }
        workload.install(&mut builder);
        Experiment::new(builder.build().unwrap()).run()
    }

    #[test]
    fn region_timeline_splits_rows_by_client_region() {
        let workload = TrafficWorkload::new(Phase::new(20, 30)).lookups_per_cycle(30);
        let report = run_workload(workload, true);
        let mut timeline = String::from(REGIONS_HEADER);
        append_region_rows(
            &mut timeline,
            "wan\tpastry\tcycle\t64",
            report.lookups().unwrap(),
        );
        let rows: Vec<&str> = timeline.lines().skip(1).collect();
        assert!(!rows.is_empty(), "wan runs must produce region rows");
        let regions: std::collections::BTreeSet<&str> = rows
            .iter()
            .map(|row| row.split('\t').nth(4).expect("region column"))
            .collect();
        assert!(regions.len() > 1, "rows should span regions: {regions:?}");
        assert_eq!(REGIONS_HEADER.split('\t').count(), 9);
        for row in &rows {
            assert!(row.starts_with("wan\tpastry\tcycle\t64\t"), "{row}");
            assert_eq!(row.split('\t').count(), 9, "{row}");
        }

        // A placement-free run contributes no region rows.
        let calm = run_workload(TrafficWorkload::new(Phase::new(20, 25)), false);
        let mut empty = String::new();
        append_region_rows(&mut empty, "calm", calm.lookups().unwrap());
        assert!(empty.is_empty());
    }

    #[test]
    fn timeline_rows_carry_the_sweep_coordinates() {
        let workload = TrafficWorkload::new(Phase::new(20, 25)).lookups_per_cycle(10);
        let report = run_workload(workload, false);
        let mut timeline = String::from(HEADER);
        append_rows(
            &mut timeline,
            "calm\tpastry\tcycle\t64",
            report.lookups().unwrap(),
        );
        let rows: Vec<&str> = timeline.lines().skip(1).collect();
        assert_eq!(rows.len(), 5, "one row per measured active cycle");
        assert_eq!(HEADER.split('\t').count(), 11);
        for row in rows {
            assert!(row.starts_with("calm\tpastry\tcycle\t64\t"), "{row}");
            assert_eq!(row.split('\t').count(), 11, "{row}");
        }
    }
}
