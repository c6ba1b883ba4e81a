//! The live-traffic sweep: N × router × scenario × engine, each cell serving
//! a sustained lookup workload against the overlay *while* it converges,
//! churns or is attacked.
//!
//! For every cell the binary writes the full serializable `RunReport` as JSON
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

use bss_bench::cli::{Args, CommonDefaults, COMMON_OPTIONS_HELP};
use bss_core::experiment::{Experiment, ExperimentConfig, SamplerChoice};
use bss_core::scenario::{AdversaryBehavior, Engine, KeyDist, LatencyModel, Phase, ScenarioEvent};
use bss_core::RouterKind;
use bss_traffic::{
    append_region_timeline, append_timeline, region_timeline_header, timeline_header,
    TrafficSummary, TrafficWorkload,
};
use bss_util::config::{BootstrapParams, NewscastParams};

const HELP: &str = "\
traffic — live lookup workload sweep: N x router x scenario x engines

USAGE:
    cargo run --release -p bss-bench --bin traffic [-- OPTIONS]

OPTIONS:
    --sizes <list>   network size exponents (N = 2^exp)      [default: 8]
    --cycles <n>     cycle budget per run                    [default: 60]
    --rate <n>       lookups issued per active cycle         [default: 100]
    --link <spec>    per-link latency override: constant:<ms>, uniform:<min>,<max>,
                     wan:plane|clustered[:<regions>]|dumbbell (adds the
                     per-client-region timeline traffic_regions.tsv)
    --out-dir <dir>  directory for JSONs and the timeline    [default: traffic-reports]
    --smoke          tiny CI sweep (N=2^7, 40 cycles, rate 50)
";

const VERIFIER_KEY: u64 = 0x7faf_f1c5;
const QUOTA: usize = 2;

/// One service scenario of the sweep: a timeline to serve traffic through,
/// plus the knobs its repair story needs.
struct TrafficCell {
    name: &'static str,
    /// Extra events layered under the traffic phase.
    events: Vec<ScenarioEvent>,
    key_dist: KeyDist,
    /// Descriptor aging (the churn cell needs the failure detector to
    /// recover).
    max_age: Option<u64>,
    /// Run over NEWSCAST with countermeasures (the defended adversary cell).
    defended: bool,
    /// Run over NEWSCAST without countermeasures (the undefended one).
    newscast: bool,
}

fn cells(cycles: u64) -> Vec<TrafficCell> {
    let churn = ScenarioEvent::ChurnBurst {
        phase: Phase::new(cycles / 4, cycles * 2 / 5),
        rate: 0.02,
    };
    let attack = ScenarioEvent::ByzantineConvert {
        phase: Phase::new(5, cycles * 3 / 4),
        fraction: 0.2,
        behavior: AdversaryBehavior::IdSpray { target: 0 },
    };
    vec![
        TrafficCell {
            name: "calm",
            events: Vec::new(),
            key_dist: KeyDist::Uniform,
            max_age: None,
            defended: false,
            newscast: false,
        },
        TrafficCell {
            name: "churn",
            events: vec![churn],
            key_dist: KeyDist::Uniform,
            max_age: Some(8),
            defended: false,
            newscast: false,
        },
        // The adversarial cells skew the keys towards the victim's region
        // (Zipf rank 0 is node 0, the id-spray target), so the lookups
        // actually exercise the poisoned tables. Aging is on: expiry is what
        // arms the attack — honest descriptors crowded out by forgeries stop
        // being refreshed and fall out of the tables, so undefended lookups
        // start dying on forged contacts instead of limping along on stale
        // honest entries.
        TrafficCell {
            name: "adversary",
            events: vec![attack.clone()],
            key_dist: KeyDist::Zipf { exponent: 1.1 },
            max_age: Some(8),
            defended: false,
            newscast: true,
        },
        TrafficCell {
            name: "adversary_defended",
            events: vec![attack],
            key_dist: KeyDist::Zipf { exponent: 1.1 },
            max_age: Some(8),
            defended: true,
            newscast: true,
        },
    ]
}

#[allow(clippy::too_many_arguments)]
fn config(
    cell: &TrafficCell,
    network_size: usize,
    seed: u64,
    cycles: u64,
    rate: u32,
    router: RouterKind,
    engine: Engine,
    link: Option<LatencyModel>,
) -> ExperimentConfig {
    let mut builder = ExperimentConfig::builder();
    builder
        .network_size(network_size)
        .seed(seed)
        .max_cycles(cycles)
        .stop_when_perfect(false)
        .engine(engine);
    if let Some(model) = link {
        builder.link_model(model);
    }
    TrafficWorkload::new(Phase::new(0, cycles))
        .lookups_per_cycle(rate)
        .key_dist(cell.key_dist)
        .router(router)
        .install(&mut builder);
    for event in &cell.events {
        builder.event(event.clone());
    }
    if cell.newscast {
        builder.sampler(SamplerChoice::Newscast(NewscastParams {
            view_size: 20,
            period_millis: 1000,
            view_diversity_quota: cell.defended.then_some(QUOTA),
            ..NewscastParams::paper_default()
        }));
    }
    if cell.defended {
        builder.params(BootstrapParams {
            descriptor_verifier: Some(VERIFIER_KEY),
            ..BootstrapParams::paper_default()
        });
    }
    builder.descriptor_max_age(cell.max_age);
    builder.build().expect("valid traffic sweep configuration")
}

fn main() {
    let args = Args::from_env();
    if args.wants_help() {
        print!("{HELP}{COMMON_OPTIONS_HELP}");
        return;
    }
    let smoke = args.get("smoke").is_some();
    let common = args.common(CommonDefaults {
        sizes: if smoke { &[7] } else { &[8] },
        runs: 1,
        cycles: if smoke { 40 } else { 60 },
        seed: 1,
    });
    let rate = args.parsed_or("rate", if smoke { 50u32 } else { 100u32 });
    let link = args.link_model_arg();
    let out_dir = args.get("out-dir").unwrap_or("traffic-reports").to_owned();
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let engines: [(&'static str, Engine); 2] = [
        ("cycle", Engine::with_threads(common.threads)),
        (
            "event",
            Engine::Event {
                latency: args.latency_model(),
            },
        ),
    ];

    eprintln!(
        "# Traffic sweep: sizes {:?} (exponents), {} cycles budget, {rate} lookups/cycle",
        common.sizes, common.cycles
    );
    println!(
        "scenario\trouter\tengine\tn\tissued\tdelivered\tsuccess_rate\tmean_hops\tmax_hops\
         \tworst_window\tfinal_window"
    );
    let mut timeline = String::from(timeline_header());
    let mut regions = String::from(region_timeline_header());
    for &exponent in &common.sizes {
        let network_size = 1usize << exponent;
        for cell in cells(common.cycles) {
            for router in RouterKind::ALL {
                for (engine_name, engine) in engines {
                    let report = Experiment::new(config(
                        &cell,
                        network_size,
                        common.seed,
                        common.cycles,
                        rate,
                        router,
                        engine,
                        link,
                    ))
                    .run();
                    let summary =
                        TrafficSummary::from_report(&report).expect("traffic was scheduled");
                    println!(
                        "{}\t{router}\t{engine_name}\t{network_size}\t{}\t{}\t{:.4}\t{:.2}\t{}\
                         \t{:.4}\t{:.4}",
                        cell.name,
                        summary.issued,
                        summary.delivered,
                        summary.success_rate,
                        summary.mean_hops,
                        summary.max_hops,
                        summary.worst_window_success.unwrap_or(0.0),
                        summary.final_window_success.unwrap_or(0.0),
                    );
                    append_timeline(
                        &mut timeline,
                        cell.name,
                        router,
                        engine_name,
                        network_size,
                        &report,
                    );
                    append_region_timeline(
                        &mut regions,
                        cell.name,
                        router,
                        engine_name,
                        network_size,
                        &report,
                    );
                    let prefix = if common.sizes.len() > 1 {
                        format!("n{network_size}_")
                    } else {
                        String::new()
                    };
                    let path = format!(
                        "{out_dir}/{prefix}{}_{router}_{engine_name}.json",
                        cell.name
                    );
                    std::fs::write(&path, report.to_json()).expect("write RunReport JSON");
                    if !common.quiet {
                        eprintln!("#   wrote {path}");
                    }
                }
            }
        }
    }
    let timeline_path = format!("{out_dir}/traffic_timeline.tsv");
    std::fs::write(&timeline_path, timeline).expect("write timeline TSV");
    eprintln!("# wrote {timeline_path}");
    if regions.len() > region_timeline_header().len() {
        let regions_path = format!("{out_dir}/traffic_regions.tsv");
        std::fs::write(&regions_path, regions).expect("write region timeline TSV");
        eprintln!("# wrote {regions_path}");
    }
}
