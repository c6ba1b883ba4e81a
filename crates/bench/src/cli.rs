//! A minimal command-line argument parser for the experiment binaries.
//!
//! The binaries only need `--flag value` pairs and `--help`; pulling in a full
//! argument-parsing dependency for that would violate the project's
//! minimal-dependency policy, so this module implements exactly what is needed.
//!
//! Beyond the raw [`Args`] map, [`CommonArgs`] factors out the option set every
//! experiment binary shares — sizes, run counts, cycle budgets, seed, engine
//! selection (threads / event latency), output path and verbosity — so the
//! eleven simulation binaries share one copy of their argument plumbing
//! (`cluster_net` runs real sockets and reads only the raw map).

use bss_core::scenario::{Engine, LatencyModel, PlacementSpec, WanParams};
use std::collections::BTreeMap;

/// The canonical WAN placements the bench binaries sweep, by name — shared so
/// `--link wan:<placement>` and the `wan` bin's sweep agree on the geometry
/// (a 1000×1000 plane, four 60-unit-spread clusters on it, or two DCs 1000
/// units apart).
///
/// # Panics
///
/// Panics on an unknown placement name.
pub fn wan_placement(name: &str, regions: u32) -> PlacementSpec {
    match name {
        "plane" => PlacementSpec::UniformPlane {
            width: 1000.0,
            height: 1000.0,
        },
        "clustered" => PlacementSpec::Clustered {
            regions,
            width: 1000.0,
            height: 1000.0,
            spread: 60.0,
        },
        "dumbbell" => PlacementSpec::Dumbbell {
            separation: 1000.0,
            spread: 60.0,
        },
        other => panic!("unknown WAN placement {other:?}: expected plane, clustered or dumbbell"),
    }
}

/// Parsed `--key value` arguments.
#[derive(Debug, Default, Clone)]
pub struct Args {
    values: BTreeMap<String, String>,
    help: bool,
}

impl Args {
    /// Parses the process arguments (everything after the binary name).
    pub fn from_env() -> Self {
        Self::parse_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests).
    pub fn parse_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut values = BTreeMap::new();
        let mut help = false;
        let mut iterator = args.into_iter().peekable();
        while let Some(argument) = iterator.next() {
            if argument == "--help" || argument == "-h" {
                help = true;
                continue;
            }
            if let Some(key) = argument.strip_prefix("--") {
                if let Some((key, value)) = key.split_once('=') {
                    values.insert(key.to_owned(), value.to_owned());
                } else if let Some(value) = iterator.peek() {
                    if value.starts_with("--") {
                        values.insert(key.to_owned(), String::from("true"));
                    } else {
                        values.insert(key.to_owned(), iterator.next().expect("peeked"));
                    }
                } else {
                    values.insert(key.to_owned(), String::from("true"));
                }
            }
        }
        Args { values, help }
    }

    /// Whether `--help` was requested.
    pub fn wants_help(&self) -> bool {
        self.help
    }

    /// The raw value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A parsed value of `--key`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value cannot be parsed.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                panic!("--{key} expects a value like the default, got {raw:?}")
            }),
        }
    }

    /// A comma-separated list of `u32` exponents (e.g. `--sizes 10,12,14`), or
    /// `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics when an element cannot be parsed.
    pub fn u32_list_or(&self, key: &str, default: &[u32]) -> Vec<u32> {
        match self.get(key) {
            None => default.to_vec(),
            Some(raw) => raw
                .split(',')
                .filter(|piece| !piece.is_empty())
                .map(|piece| {
                    piece.trim().parse().unwrap_or_else(|_| {
                        panic!("--{key} expects comma-separated integers, got {piece:?}")
                    })
                })
                .collect(),
        }
    }
}

/// Per-binary defaults for the shared option set.
#[derive(Debug, Clone, Copy)]
pub struct CommonDefaults {
    /// Default `--sizes` (network-size exponents).
    pub sizes: &'static [u32],
    /// Default `--runs`.
    pub runs: usize,
    /// Default `--cycles`.
    pub cycles: u64,
    /// Default `--seed`.
    pub seed: u64,
}

impl Default for CommonDefaults {
    fn default() -> Self {
        CommonDefaults {
            sizes: &[12],
            runs: 3,
            cycles: 60,
            seed: 1,
        }
    }
}

/// The options shared by every experiment binary, parsed once by
/// [`Args::common`]:
///
/// * `--sizes a,b,c` / `--size n` — network-size exponents (the singular form
///   overrides the list with one entry, for the single-size binaries);
/// * `--runs`, `--cycles`, `--seed` — sweep shape;
/// * `--threads n` — worker threads (selects the parallel cycle engine);
/// * `--engine cycle|event` and `--latency min[,max]` — engine selection;
/// * `--out path` — output artifact path;
/// * `--quiet` — suppress progress output.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Network-size exponents to sweep (`N = 2^exponent`).
    pub sizes: Vec<u32>,
    /// Independent runs per configuration.
    pub runs: usize,
    /// Cycle budget per run.
    pub cycles: u64,
    /// Base random seed.
    pub seed: u64,
    /// Worker thread count (1 = sequential).
    pub threads: usize,
    /// The engine selection derived from `--engine`, `--threads`, `--latency`.
    pub engine: Engine,
    /// Output path for the binary's artifact, when given.
    pub out: Option<String>,
    /// Whether progress output is suppressed.
    pub quiet: bool,
}

impl CommonArgs {
    /// The first (often only) size exponent.
    pub fn size(&self) -> u32 {
        self.sizes.first().copied().unwrap_or(12)
    }
}

/// The usage text describing the shared options, appended to every binary's
/// `--help` output.
pub const COMMON_OPTIONS_HELP: &str = "\
SHARED OPTIONS:
    --seed <n>       base random seed
    --threads <n>    worker threads (parallel cycle engine; output is
                     bit-for-bit identical at any value)
    --engine <name>  cycle (default) or event (discrete-event engine with
                     per-link latency and timer-driven nodes)
    --latency <spec> event-engine latency in ms: one value for constant,
                     min,max for uniform                  [default: 1]
    --quiet          suppress progress output
";

impl Args {
    /// Parses the shared option set with the given per-binary defaults.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when a value cannot be parsed (same
    /// policy as [`Args::parsed_or`]).
    pub fn common(&self, defaults: CommonDefaults) -> CommonArgs {
        let sizes = match self.get("size") {
            Some(raw) => vec![raw
                .parse()
                .unwrap_or_else(|_| panic!("--size expects an exponent, got {raw:?}"))],
            None => self.u32_list_or("sizes", defaults.sizes),
        };
        let threads = self.parsed_or("threads", 1usize).max(1);
        let engine = match self.get("engine").unwrap_or("cycle") {
            "cycle" => Engine::with_threads(threads),
            "event" => Engine::Event {
                latency: self.latency_model(),
            },
            other => panic!("--engine expects cycle or event, got {other:?}"),
        };
        CommonArgs {
            sizes,
            runs: self.parsed_or("runs", defaults.runs),
            cycles: self.parsed_or("cycles", defaults.cycles),
            seed: self.parsed_or("seed", defaults.seed),
            threads,
            engine,
            out: self.get("out").map(str::to_owned),
            quiet: self.get("quiet").is_some(),
        }
    }

    /// Parses `--link` into a per-link latency model override, or `None` when
    /// absent (the engine's own latency model applies). Accepted specs:
    /// `constant:<ms>`, `uniform:<min>,<max>`, and `wan:<placement>` where
    /// placement is `plane`, `clustered[:<regions>]` (default 4) or
    /// `dumbbell` (see [`wan_placement`]).
    ///
    /// # Panics
    ///
    /// Panics with a readable message on a malformed spec.
    pub fn link_model_arg(&self) -> Option<LatencyModel> {
        let raw = self.get("link")?;
        let (kind, rest) = raw.split_once(':').unwrap_or((raw, ""));
        let model = match kind {
            "constant" => LatencyModel::Constant {
                millis: rest
                    .parse()
                    .unwrap_or_else(|_| panic!("--link constant:<ms>, got {raw:?}")),
            },
            "uniform" => {
                let (min, max) = rest
                    .split_once(',')
                    .unwrap_or_else(|| panic!("--link uniform:<min>,<max>, got {raw:?}"));
                LatencyModel::Uniform {
                    min_millis: min
                        .trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--link uniform:<min>,<max>, got {raw:?}")),
                    max_millis: max
                        .trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--link uniform:<min>,<max>, got {raw:?}")),
                }
            }
            "wan" => {
                let (placement, regions) = match rest.split_once(':') {
                    Some((placement, count)) => (
                        placement,
                        count.parse().unwrap_or_else(|_| {
                            panic!("--link wan:clustered:<regions>, got {raw:?}")
                        }),
                    ),
                    None => (if rest.is_empty() { "clustered" } else { rest }, 4),
                };
                LatencyModel::Wan {
                    placement: wan_placement(placement, regions),
                    params: WanParams::default(),
                }
            }
            other => panic!("--link expects constant, uniform or wan specs, got {other:?}"),
        };
        Some(model)
    }

    /// Parses `--latency` into a [`LatencyModel`]: a single value is a
    /// constant latency, `min,max` is uniform.
    pub fn latency_model(&self) -> LatencyModel {
        match self.get("latency") {
            None => LatencyModel::Constant { millis: 1 },
            Some(raw) => {
                let parts: Vec<u64> = raw
                    .split(',')
                    .filter(|piece| !piece.is_empty())
                    .map(|piece| {
                        piece.trim().parse().unwrap_or_else(|_| {
                            panic!("--latency expects ms values like 5 or 5,50, got {raw:?}")
                        })
                    })
                    .collect();
                match parts.as_slice() {
                    [millis] => LatencyModel::Constant { millis: *millis },
                    [min, max] => LatencyModel::Uniform {
                        min_millis: *min,
                        max_millis: *max,
                    },
                    _ => panic!("--latency expects one or two ms values, got {raw:?}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_value_pairs_and_flags() {
        let parsed = args(&["--runs", "5", "--sizes", "10,12", "--verbose", "--seed=9"]);
        assert_eq!(parsed.parsed_or("runs", 0usize), 5);
        assert_eq!(parsed.u32_list_or("sizes", &[14]), vec![10, 12]);
        assert_eq!(parsed.get("verbose"), Some("true"));
        assert_eq!(parsed.parsed_or("seed", 0u64), 9);
        assert_eq!(parsed.parsed_or("missing", 7u64), 7);
        assert!(!parsed.wants_help());
    }

    #[test]
    fn help_flag_is_detected() {
        assert!(args(&["--help"]).wants_help());
        assert!(args(&["-h"]).wants_help());
        assert!(!args(&[]).wants_help());
    }

    #[test]
    fn trailing_flag_without_value_defaults_to_true() {
        let parsed = args(&["--fast"]);
        assert_eq!(parsed.get("fast"), Some("true"));
    }

    #[test]
    #[should_panic(expected = "expects a value")]
    fn unparseable_values_panic_with_context() {
        let parsed = args(&["--runs", "many"]);
        let _ = parsed.parsed_or("runs", 0usize);
    }

    #[test]
    fn default_size_list_is_used_when_absent() {
        let parsed = args(&[]);
        assert_eq!(parsed.u32_list_or("sizes", &[10, 11]), vec![10, 11]);
    }

    #[test]
    fn common_args_apply_defaults_and_overrides() {
        let defaults = CommonDefaults {
            sizes: &[10, 12],
            runs: 3,
            cycles: 60,
            seed: 1,
        };
        let parsed = args(&[]).common(defaults);
        assert_eq!(parsed.sizes, vec![10, 12]);
        assert_eq!(parsed.runs, 3);
        assert_eq!(parsed.cycles, 60);
        assert_eq!(parsed.seed, 1);
        assert_eq!(parsed.threads, 1);
        assert_eq!(parsed.engine, Engine::Cycle);
        assert!(parsed.out.is_none());
        assert!(!parsed.quiet);
        assert_eq!(parsed.size(), 10);

        let parsed = args(&[
            "--sizes",
            "8,9",
            "--runs",
            "5",
            "--cycles",
            "40",
            "--seed",
            "7",
            "--threads",
            "4",
            "--out",
            "x.json",
            "--quiet",
        ])
        .common(defaults);
        assert_eq!(parsed.sizes, vec![8, 9]);
        assert_eq!(parsed.runs, 5);
        assert_eq!(parsed.engine, Engine::ParallelCycle { threads: 4 });
        assert_eq!(parsed.out.as_deref(), Some("x.json"));
        assert!(parsed.quiet);
    }

    #[test]
    fn singular_size_overrides_the_list() {
        let parsed = args(&["--size", "11"]).common(CommonDefaults::default());
        assert_eq!(parsed.sizes, vec![11]);
        assert_eq!(parsed.size(), 11);
    }

    #[test]
    fn engine_and_latency_flags_select_the_event_engine() {
        let parsed = args(&["--engine", "event"]).common(CommonDefaults::default());
        assert_eq!(
            parsed.engine,
            Engine::Event {
                latency: LatencyModel::Constant { millis: 1 }
            }
        );
        let parsed =
            args(&["--engine", "event", "--latency", "5,50"]).common(CommonDefaults::default());
        assert_eq!(
            parsed.engine,
            Engine::Event {
                latency: LatencyModel::Uniform {
                    min_millis: 5,
                    max_millis: 50
                }
            }
        );
        let parsed = args(&["--engine", "event", "--latency", "20"]);
        assert_eq!(
            parsed.latency_model(),
            LatencyModel::Constant { millis: 20 }
        );
    }

    #[test]
    #[should_panic(expected = "cycle or event")]
    fn unknown_engine_names_panic() {
        let _ = args(&["--engine", "quantum"]).common(CommonDefaults::default());
    }

    #[test]
    fn link_specs_parse_into_latency_models() {
        assert_eq!(args(&[]).link_model_arg(), None);
        assert_eq!(
            args(&["--link", "constant:7"]).link_model_arg(),
            Some(LatencyModel::Constant { millis: 7 })
        );
        assert_eq!(
            args(&["--link", "uniform:2,40"]).link_model_arg(),
            Some(LatencyModel::Uniform {
                min_millis: 2,
                max_millis: 40
            })
        );
        let wan = args(&["--link", "wan:clustered:6"])
            .link_model_arg()
            .unwrap();
        assert_eq!(wan.placement_spec(), Some(wan_placement("clustered", 6)));
        // Bare `wan` defaults to the four-region clustered placement.
        assert_eq!(
            args(&["--link", "wan"]).link_model_arg(),
            Some(LatencyModel::Wan {
                placement: wan_placement("clustered", 4),
                params: WanParams::default(),
            })
        );
        for name in ["plane", "dumbbell"] {
            assert!(wan_placement(name, 4).validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "constant, uniform or wan")]
    fn unknown_link_specs_panic() {
        let _ = args(&["--link", "telepathy"]).link_model_arg();
    }
}
