//! The experiment table: every figure, claim and extension `bss-bench` can
//! run, with the options each one reads. [`run`] dispatches over it and
//! generates both levels of `--help` from it.

use crate::cli::{usage, Args, Opt};
use std::fmt::Write as _;

mod ablation;
mod adversary;
mod churn;
mod cluster_net;
mod figure;
mod golden_diff;
mod merge_split;
mod recovery;
mod scenarios;
mod traffic;
mod wan;

/// What an experiment returns: an error is an option value, or a
/// configuration built from the options, that was rejected before any run.
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// One row of the table.
#[derive(Debug)]
pub struct Experiment {
    pub(crate) name: &'static str,
    pub(crate) about: &'static str,
    options: &'static [Opt],
    run: fn(&Args) -> Outcome,
}

const fn sizes(default: &'static str) -> Opt {
    Opt::new(
        "sizes <list>",
        default,
        "comma-separated size exponents (N = 2^exp)",
    )
}
const fn size(default: &'static str) -> Opt {
    Opt::new("size <exp>", default, "network size exponent (N = 2^exp)")
}
const fn runs(default: &'static str) -> Opt {
    Opt::new("runs <n>", default, "independent runs per configuration")
}
const fn cycles(default: &'static str) -> Opt {
    Opt::new("cycles <n>", default, "cycle budget per run")
}
const fn seed(default: &'static str) -> Opt {
    Opt::new("seed <n>", default, "base random seed")
}
const fn out_dir(default: &'static str) -> Opt {
    Opt::new(
        "out-dir <dir>",
        default,
        "directory for the JSON reports and timelines",
    )
}
const THREADS: Opt = Opt::new(
    "threads <n>",
    "",
    "pin the cycle engine to n threads; absent, it runs on every core, as the event engine always does (output is bit-for-bit identical either way)",
);
const ENGINE: Opt = Opt::new(
    "engine <name>",
    "cycle",
    "cycle, or event: the discrete-event engine with per-link latency and timer-driven nodes",
);
const LATENCY: Opt = Opt::new(
    "latency <spec>",
    "1",
    "event-engine latency in ms: one value for constant, min,max for uniform",
);
const QUIET: Opt = Opt::new("quiet", "", "suppress progress output");
const fn smoke(expands: &'static str) -> Opt {
    Opt::new(
        "smoke",
        expands,
        "tiny CI-sized variant, finishes in seconds",
    )
}

/// Every experiment, in the order `--help` lists them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3",
        about: "Figure 3: missing leaf-set and prefix-table entries vs. cycles, no failures",
        options: &[
            sizes("10,12,14"),
            runs("3"),
            cycles("60"),
            seed("1"),
            THREADS,
            ENGINE,
            LATENCY,
            QUIET,
        ],
        run: |args| figure::run(args, 3, 0.0),
    },
    Experiment {
        name: "fig4",
        about: "Figure 4: the same two panels with 20% uniform message loss",
        options: &[
            sizes("10,12,14"),
            runs("3"),
            cycles("100"),
            seed("1"),
            THREADS,
            ENGINE,
            LATENCY,
            QUIET,
        ],
        run: |args| figure::run(args, 4, 0.2),
    },
    Experiment {
        name: "churn",
        about: "the churn claim of §5: table quality under continuous replacement churn",
        options: &[
            size("12"),
            cycles("40"),
            seed("1"),
            THREADS,
            ENGINE,
            LATENCY,
        ],
        run: churn::run,
    },
    Experiment {
        name: "merge_split",
        about: "§1-2 scenario: two partitions bootstrap independently, then merge",
        options: &[
            size("12"),
            cycles("80"),
            seed("1"),
            THREADS,
            ENGINE,
            LATENCY,
        ],
        run: merge_split::run,
    },
    Experiment {
        name: "ablation",
        about: "design-choice sweeps: cr, c, sampler quality, message loss",
        options: &[
            size("11"),
            runs("3"),
            cycles("150"),
            seed("1"),
            THREADS,
            ENGINE,
            LATENCY,
        ],
        run: ablation::run,
    },
    Experiment {
        name: "scenarios",
        about: "the scenario smoke suite: one timeline per event kind on both engines",
        options: &[
            size("8"),
            cycles("40"),
            out_dir("scenario-reports"),
            seed("1"),
            THREADS,
            LATENCY,
            QUIET,
        ],
        run: scenarios::run,
    },
    Experiment {
        name: "recovery",
        about: "catastrophe-then-recover: aging + re-bootstrap against the detector-free protocol",
        options: &[
            size("10"),
            cycles("60"),
            out_dir("scenario-reports"),
            Opt::new(
                "require-recovery",
                "",
                "exit non-zero unless every aged run recovered",
            ),
            seed("7"),
            THREADS,
            LATENCY,
            QUIET,
        ],
        run: recovery::run,
    },
    Experiment {
        name: "adversary",
        about: "the Byzantine sweep: behaviour x converted fraction x countermeasures x engines",
        options: &[
            size("8"),
            cycles("60"),
            Opt::new("fractions <list>", "10,20", "attacker fractions in percent"),
            out_dir("adversary-reports"),
            seed("1"),
            THREADS,
            LATENCY,
            QUIET,
        ],
        run: adversary::run,
    },
    Experiment {
        name: "traffic",
        about: "live lookup workloads: scenario x router x engines",
        options: &[
            sizes("8"),
            cycles("60"),
            Opt::new(
                "link <spec>",
                "",
                "per-link latency: constant:<ms>, uniform:<min>,<max>, or \
                 wan:plane|clustered[:<regions>]|dumbbell (adds traffic_regions.tsv)",
            ),
            out_dir("traffic-reports"),
            smoke("--sizes 7 --cycles 40"),
            seed("1"),
            THREADS,
            LATENCY,
            QUIET,
        ],
        run: traffic::run,
    },
    Experiment {
        name: "wan",
        about:
            "WAN realism: placement x link model x engines, with a regional outage and slow links",
        options: &[
            sizes("8"),
            cycles("60"),
            out_dir("wan-reports"),
            smoke("--sizes 7 --cycles 40"),
            seed("1"),
            THREADS,
            LATENCY,
            QUIET,
        ],
        run: wan::run,
    },
    Experiment {
        name: "cluster_net",
        about: "loopback UDP clusters on the datagram driver, one per size",
        options: &[
            sizes("6,8,9"),
            seed("7"),
            out_dir("net-reports"),
            smoke("--sizes 6"),
        ],
        run: cluster_net::run,
    },
    Experiment {
        name: "golden-diff",
        about: "what moved between two directories of goldens, per file, row and column",
        options: golden_diff::OPTIONS,
        run: golden_diff::run,
    },
];

/// `--help` of one experiment, or the overview of all of them.
pub(crate) fn usage_of(experiment: Option<&Experiment>) -> String {
    if let Some(experiment) = experiment {
        return usage(experiment.name, experiment.about, experiment.options);
    }
    let mut text = String::from(
        "bss-bench — the paper's evaluation and its extensions, one experiment each\n\n\
         USAGE:\n    cargo run --release -p bss-bench -- <EXPERIMENT> [OPTIONS]\n    \
         cargo run --release -p bss-bench -- <EXPERIMENT> --help\n\nEXPERIMENTS:\n",
    );
    for experiment in EXPERIMENTS {
        let _ = writeln!(text, "    {:12} {}", experiment.name, experiment.about);
    }
    text
}

/// Runs `bss-bench <args>` and returns the process exit code: 0 on success
/// and for `--help`, 2 (with the usage on stderr) for an unknown experiment
/// or option, an option value that does not read as what it should, or a
/// configuration built from the options that `validate()` rejects. An
/// experiment whose own gate fails exits the process itself.
pub fn run(args: impl IntoIterator<Item = String>) -> i32 {
    let mut args = args.into_iter();
    let name = args.next().unwrap_or_else(|| "--help".to_owned());
    if name == "--help" || name == "-h" {
        print!("{}", usage_of(None));
        return 0;
    }
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        eprintln!("unknown experiment {name:?}\n\n{}", usage_of(None));
        return 2;
    };
    let outcome = Args::parse(experiment.options, args).and_then(|args| {
        if args.wants_help() {
            print!("{}", usage_of(Some(experiment)));
            return Ok(());
        }
        (experiment.run)(&args).map_err(|error| error.to_string())
    });
    match outcome {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("{name}: {error}\n\n{}", usage_of(Some(experiment)));
            2
        }
    }
}
