//! The WAN-realism sweep: placement × link model × engine, measuring how much
//! topology skews the convergence story and whether the bootstrapped overlay
//! is proximity-aware for free.
//!
//! Each cell bootstraps a network under one per-link latency model — the two
//! legacy global models (`constant`, `uniform` matched to the WAN's latency
//! bounds) and the distance-dependent `wan` model over the three canonical
//! placements (uniform plane, clustered regions, two-DC dumbbell) — while a
//! lookup workload runs over the converging overlay. Two extra cells replay
//! regional scenario events over the clustered placement: a full
//! `RegionalOutage` of region 1 and a `SlowLinks` window multiplying region
//! 1's latencies.
//!
//! Outputs, all deterministic (bit-for-bit identical at any `--threads`):
//!
//! * a summary TSV on stdout — one row per cell × engine with convergence
//!   cycle, final missing proportions, leaf-set proximity vs. the
//!   random-pairs baseline, and the traffic latency percentiles;
//! * `<out-dir>/wan_timeline.tsv` — the per-cycle convergence + service
//!   timeline (the canonical golden under `ci/golden/wan_small.tsv`);
//! * `<out-dir>/wan_regions.tsv` — the traffic timeline split by client
//!   region (the same file the `traffic` experiment writes under `--link wan`);
//! * `<out-dir>/<cell>_<engine>.json` — the full `RunReport` per cell, the
//!   artifact the CI jq gate inspects for the outage dip and recovery.

use super::traffic::{append_region_rows, REGIONS_HEADER};
use crate::cli::{wan_placement, Args};
use crate::sweep::{Cell, Sweep};
use bss_core::scenario::{LatencyModel, Phase, ScenarioEvent, WanParams};
use bss_traffic::TrafficWorkload;
use bss_util::stats::{append_cycle_rows, Series};

/// The affected region of the regional-event cells (and the one the CI gate
/// watches).
const EVENT_REGION: u32 = 1;

/// The sweep: legacy baselines, the three placements, and the two regional
/// scenario events over the clustered placement — each serving 50 lookups a
/// cycle for the whole run.
fn cells(cycles: u64) -> Vec<Cell> {
    let wan = |placement| LatencyModel::Wan {
        placement: wan_placement(placement, 4).expect("a canonical placement name"),
        params: WanParams::default(),
    };
    let clustered = wan("clustered");
    // The uniform baseline spans the clustered WAN's latency bounds, so the
    // cycle-vs-WAN comparison isolates *structure* (distance-dependence) from
    // *magnitude*.
    let (min_millis, max_millis) = clustered.bounds();
    let uniform = LatencyModel::Uniform {
        min_millis,
        max_millis,
    };
    let phase = Phase::new(cycles / 4, cycles / 2);
    let outage = ScenarioEvent::RegionalOutage {
        phase,
        region: EVENT_REGION,
        loss: 1.0,
    };
    let slow = ScenarioEvent::SlowLinks {
        phase,
        region: Some(EVENT_REGION),
        factor: 4.0,
    };
    let cell = |name, link, event: Option<ScenarioEvent>| {
        let mut cell = Cell::new(name, []);
        cell.config.link_model(link);
        TrafficWorkload::new(Phase::new(0, cycles))
            .lookups_per_cycle(50)
            .install(&mut cell.config);
        if let Some(event) = event {
            cell.config.event(event);
        }
        cell
    };
    vec![
        cell("constant", LatencyModel::Constant { millis: 1 }, None),
        cell("uniform", uniform, None),
        cell("wan_plane", wan("plane"), None),
        cell("wan_clustered", clustered, None),
        cell("wan_dumbbell", wan("dumbbell"), None),
        cell("wan_outage", clustered, Some(outage)),
        cell("wan_slow", clustered, Some(slow)),
    ]
}

pub(super) fn run(args: &Args) -> super::Outcome {
    let sweep = Sweep::from_args(args, "WAN sweep", false)?;
    println!(
        "cell\tlink\tengine\tn\tconverged_cycle\tfinal_leaf_missing\tfinal_prefix_missing\
         \tleaf_link_distance\trandom_link_distance\tproximity_ratio\tlookup_success\
         \tlookup_p50\tlookup_p99"
    );
    let mut timeline = String::from(
        "cell\tengine\tn\tcycle\tleaf_missing\tprefix_missing\tlookup_success\tlookup_p50\
         \tlookup_p99\n",
    );
    let mut regions = String::from(REGIONS_HEADER);
    sweep.run(&cells(sweep.cycles), |run| {
        let (cell, engine, n, report) = (run.name, run.engine, run.network_size, run.report);
        let final_state = report.final_state();
        let lookups = report.lookups().expect("traffic was scheduled");
        let (p50, p99) = (
            lookups.series("lookup_latency_p50_series"),
            lookups.series("lookup_latency_p99_series"),
        );
        let last = |series: Option<&Series>| series.and_then(Series::final_value).unwrap_or(0.0);
        let (leaf_distance, random_distance, ratio) =
            report.proximity().map_or((0.0, 0.0, 0.0), |proximity| {
                (
                    proximity.mean_leaf_distance,
                    proximity.mean_random_distance,
                    proximity.ratio(),
                )
            });
        println!(
            "{cell}\t{}\t{engine}\t{n}\t{}\t{:.6}\t{:.6}\t{leaf_distance:.2}\
             \t{random_distance:.2}\t{ratio:.4}\t{:.4}\t{:.1}\t{:.1}",
            report.config().link_model().label(),
            report.convergence_cycle().map_or(-1, |cycle| cycle as i64),
            final_state.leaf_proportion(),
            final_state.prefix_proportion(),
            lookups.success_rate(),
            last(p50),
            last(p99),
        );
        append_cycle_rows(
            &mut timeline,
            &format!("{cell}\t{engine}\t{n}"),
            &[
                (Some(report.leaf_series()), 6),
                (Some(report.prefix_series()), 6),
                (Some(lookups.success_series()), 6),
                (p50, 1),
                (p99, 1),
            ],
        );
        let router = lookups.router();
        append_region_rows(
            &mut regions,
            &format!("{cell}\t{router}\t{engine}\t{n}"),
            lookups,
        );
    })?;
    sweep.write("wan_timeline.tsv", &timeline)?;
    sweep.write("wan_regions.tsv", &regions)?;
    Ok(())
}
