//! The command line of `bss-bench`: `<experiment> [--option value]…`.
//!
//! Every experiment declares the options it reads as a table of [`Opt`]s. The
//! table is the single source of three things: the parser rejects any
//! `--name` that is not in it (a mistyped `--cycle 20` used to regenerate a
//! golden at the default budget without a word), an absent option reads as
//! the table's default, and [`usage`] renders `--help` from the same rows.
//! A value that does not read as what its option expects is an error the
//! accessor returns, naming the option, and takes the same exit as an unknown
//! option — usage on stderr, status 2 — instead of a panic inside the run.
//! Pulling in a full argument-parsing dependency for that would violate the
//! project's minimal-dependency policy, so this module implements exactly
//! what is needed.

use bss_core::scenario::{Engine, LatencyModel, PlacementSpec, WanParams};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The canonical WAN placements the experiments sweep, by name — shared so
/// `--link wan:<placement>` and the `wan` sweep agree on the geometry (a
/// 1000×1000 plane, four 60-unit-spread clusters on it, or two DCs 1000 units
/// apart).
///
/// # Errors
///
/// Rejects an unknown placement name.
pub(crate) fn wan_placement(name: &str, regions: u32) -> Result<PlacementSpec, String> {
    Ok(match name {
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
        other => {
            return Err(format!(
                "unknown WAN placement {other:?}: expected plane, clustered or dumbbell"
            ))
        }
    })
}

/// One option of an experiment: its `--name` followed, unless it is a flag,
/// by the placeholder `--help` shows for its value (`"cycles <n>"`); the value
/// it has when absent (empty for none; for a flag, the `--option value` pairs
/// it is shorthand for, each of which an explicit `--option` still beats);
/// and its one-line description.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Opt {
    spec: &'static str,
    default: &'static str,
    help: &'static str,
}

impl Opt {
    /// See the type's description for the three parts.
    pub(crate) const fn new(spec: &'static str, default: &'static str, help: &'static str) -> Self {
        Opt {
            spec,
            default,
            help,
        }
    }

    fn name(&self) -> &'static str {
        self.spec.split(' ').next().unwrap_or(self.spec)
    }

    fn is_flag(&self) -> bool {
        !self.spec.contains(' ')
    }
}

/// Renders an experiment's `--help` from its option table.
pub(crate) fn usage(name: &str, about: &str, options: &[Opt]) -> String {
    let mut text = format!(
        "{name} — {about}\n\nUSAGE:\n    cargo run --release -p bss-bench -- {name} [OPTIONS]\n\nOPTIONS:\n"
    );
    let width = options.iter().map(|o| o.spec.len()).max().unwrap_or(0);
    for option in options {
        let _ = write!(text, "    --{:width$}  {}", option.spec, option.help);
        if !option.default.is_empty() {
            let label = if option.is_flag() { "=" } else { "default:" };
            let _ = write!(text, " [{label} {}]", option.default);
        }
        text.push('\n');
    }
    text
}

/// The arguments of one invocation, parsed against the experiment's table.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    options: &'static [Opt],
    values: BTreeMap<&'static str, String>,
    help: bool,
}

impl Args {
    /// Parses `--name value`, `--name=value` and bare `--flag` arguments.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an option the table does not list, a
    /// valued option without its value, or a stray positional argument.
    pub(crate) fn parse(
        options: &'static [Opt],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let find = |key: &str| {
            let found = options.iter().find(|option| option.name() == key);
            found.ok_or_else(|| format!("unknown option --{key}"))
        };
        let mut values = BTreeMap::new();
        let mut implied = Vec::new();
        let mut help = false;
        let mut iterator = args.into_iter().peekable();
        while let Some(argument) = iterator.next() {
            if argument == "--help" || argument == "-h" {
                help = true;
                continue;
            }
            let Some(key) = argument.strip_prefix("--") else {
                return Err(format!("unexpected argument {argument:?}"));
            };
            let (key, inline) = match key.split_once('=') {
                Some((key, value)) => (key, Some(value.to_owned())),
                None => (key, None),
            };
            let option = find(key)?;
            let value = if option.is_flag() {
                implied.extend(option.default.split_whitespace());
                inline.unwrap_or_else(|| String::from("true"))
            } else {
                inline
                    .or_else(|| iterator.next_if(|next| !next.starts_with("--")))
                    .ok_or_else(|| format!("--{} expects a value", option.spec))?
            };
            values.insert(option.name(), value);
        }
        for pair in implied.chunks(2) {
            let option = find(pair[0].trim_start_matches("--"))?;
            values
                .entry(option.name())
                .or_insert_with(|| pair[1].to_owned());
        }
        Ok(Args {
            options,
            values,
            help,
        })
    }

    /// Whether `--help` was requested.
    pub(crate) fn wants_help(&self) -> bool {
        self.help
    }

    /// Whether the flag `--key` was given.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// The value of `--key`: as given, else the table's default, else `None`
    /// (also for a key the experiment does not list).
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str).or_else(|| {
            let option = self.options.iter().find(|option| option.name() == key)?;
            (!option.is_flag() && !option.default.is_empty()).then_some(option.default)
        })
    }

    /// The parsed value of `--key`.
    ///
    /// # Errors
    ///
    /// Rejects a value that cannot be parsed, and an option that has neither
    /// a value nor a default.
    pub(crate) fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self
            .get(key)
            .ok_or_else(|| format!("--{key} has no value and no default"))?;
        raw.parse()
            .map_err(|_| format!("--{key} expects a value like the default, got {raw:?}"))
    }

    /// The comma-separated values of `--key` (e.g. `--sizes 10,12,14`).
    ///
    /// # Errors
    ///
    /// Rejects an element that cannot be parsed.
    pub(crate) fn list<T: std::str::FromStr>(&self, key: &str) -> Result<Vec<T>, String> {
        parse_list(key, self.get(key).unwrap_or(""))
    }

    /// The network-size exponents to run (`N = 2^exponent`): the one `--size`
    /// of a single-size experiment, else the `--sizes` list. An exponent no
    /// experiment can run is rejected like one that does not parse: 0 (one
    /// node is not a network) and what does not fit the `u32` a `NodeIndex`
    /// and a packed descriptor's address are.
    pub(crate) fn sizes(&self) -> Result<Vec<u32>, String> {
        let (key, sizes) = if self.get("size").is_some() {
            ("size", vec![self.parsed("size")?])
        } else {
            ("sizes", self.list("sizes")?)
        };
        match sizes.iter().find(|&&exp| exp == 0 || exp >= u32::BITS) {
            Some(exp) => Err(format!(
                "--{key} expects exponents from 1 to {} (N = 2^exp), got {exp}",
                u32::BITS - 1
            )),
            None => Ok(sizes),
        }
    }

    /// Independent runs per configuration (`--runs`): at least 1, a sweep of
    /// no runs having nothing to report.
    pub(crate) fn runs(&self) -> Result<usize, String> {
        match self.parsed("runs")? {
            0 => Err("--runs expects at least 1, got 0".to_owned()),
            runs => Ok(runs),
        }
    }

    /// The cycle engine `--threads` selects: absent, [`Engine::Cycle`], which
    /// runs on every core; `--threads n` pins exactly n, from 1 to the
    /// smallest network the invocation runs — at most N/2 disjoint exchanges
    /// can run at once, so the bound comes from the input.
    fn cycle_engine(&self) -> Result<Engine, String> {
        if self.get("threads").is_none() {
            return Ok(Engine::Cycle);
        }
        let threads = self.parsed("threads")?;
        let smallest = self.sizes()?.iter().map(|&exp| 1usize << exp).min();
        if threads == 0 || smallest.is_some_and(|nodes| threads > nodes) {
            return Err(format!(
                "--threads expects 1 to the network size, got {threads}"
            ));
        }
        Ok(Engine::ParallelCycle { threads })
    }

    /// The cycle + event engine pair every sweep runs its cells on: the cycle
    /// engine `--threads` selects, the event engine at `--latency`.
    pub(crate) fn engine_pair(&self) -> Result<[(&'static str, Engine); 2], String> {
        let latency = self.latency_model()?;
        Ok([
            ("cycle", self.cycle_engine()?),
            ("event", Engine::Event { latency }),
        ])
    }

    /// The one engine `--engine` selects for a single-engine experiment.
    ///
    /// # Errors
    ///
    /// Rejects a name other than `cycle` or `event`.
    pub(crate) fn engine(&self) -> Result<Engine, String> {
        let [(_, cycle), (_, event)] = self.engine_pair()?;
        match self.get("engine") {
            Some("cycle") => Ok(cycle),
            Some("event") => Ok(event),
            other => Err(format!("--engine expects cycle or event, got {other:?}")),
        }
    }

    /// Parses `--link` into a per-link latency model override, or `None` when
    /// absent (the engine's own latency model applies). Accepted specs:
    /// `constant:<ms>`, `uniform:<min>,<max>`, and `wan:<placement>` where
    /// placement is `plane`, `clustered[:<regions>]` (default 4) or
    /// `dumbbell` (see [`wan_placement`]).
    ///
    /// # Errors
    ///
    /// Rejects a malformed spec.
    pub(crate) fn link_model_arg(&self) -> Result<Option<LatencyModel>, String> {
        let Some(raw) = self.get("link") else {
            return Ok(None);
        };
        let (kind, rest) = raw.split_once(':').unwrap_or((raw, ""));
        let model = match kind {
            "constant" | "uniform" => {
                let model = millis_model("link", &parse_list("link", rest)?)?;
                if model.label() != kind {
                    return Err(format!("--link {kind}: wrong value count in {raw:?}"));
                }
                model
            }
            "wan" => {
                let (placement, regions) = match rest.split_once(':') {
                    Some((placement, count)) => (
                        placement,
                        count
                            .parse()
                            .map_err(|_| format!("--link wan:clustered:<regions>, got {raw:?}"))?,
                    ),
                    None => (if rest.is_empty() { "clustered" } else { rest }, 4),
                };
                LatencyModel::Wan {
                    placement: wan_placement(placement, regions)?,
                    params: WanParams::default(),
                }
            }
            other => {
                return Err(format!(
                    "--link expects constant, uniform or wan specs, got {other:?}"
                ))
            }
        };
        Ok(Some(model))
    }

    /// Parses `--latency` into a [`LatencyModel`]: a single value is a
    /// constant latency, `min,max` is uniform.
    pub(crate) fn latency_model(&self) -> Result<LatencyModel, String> {
        millis_model("latency", &self.list("latency")?)
    }
}

/// Parses comma-separated `values` given for `--key`.
fn parse_list<T: std::str::FromStr>(key: &str, values: &str) -> Result<Vec<T>, String> {
    let pieces = values.split(',').filter(|piece| !piece.is_empty());
    let parse = |piece: &str| {
        piece.trim().parse().map_err(|_| {
            format!("--{key} expects comma-separated values like the default, got {piece:?}")
        })
    };
    pieces.map(parse).collect()
}

/// The placement-free latency model `millis` describes: one value is a
/// constant latency, two are the bounds of a uniform one.
fn millis_model(key: &str, millis: &[u64]) -> Result<LatencyModel, String> {
    match *millis {
        [millis] => Ok(LatencyModel::Constant { millis }),
        [min_millis, max_millis] => Ok(LatencyModel::Uniform {
            min_millis,
            max_millis,
        }),
        _ => Err(format!(
            "--{key} expects one or two ms values, got {millis:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An option table shaped like an experiment's: a size list with its
    /// singular override, valued options with defaults, two without, a flag.
    const TABLE: &[Opt] = &[
        Opt::new("sizes <list>", "10,12", "size exponents"),
        Opt::new("size <exp>", "", "one size exponent"),
        Opt::new("runs <n>", "3", "runs per size"),
        Opt::new("cycles <n>", "60", "cycle budget"),
        Opt::new("seed <n>", "1", "base seed"),
        Opt::new("threads <n>", "", "worker threads"),
        Opt::new("engine <name>", "cycle", "cycle or event"),
        Opt::new("latency <spec>", "1", "event latency"),
        Opt::new("link <spec>", "", "link model"),
        Opt::new("out <path>", "", "output path"),
        Opt::new("quiet", "", "no progress output"),
        Opt::new("smoke", "--sizes 7 --cycles 40", "tiny variant"),
    ];

    fn args(list: &[&str]) -> Args {
        Args::parse(TABLE, list.iter().map(|s| s.to_string())).expect("valid arguments")
    }

    #[test]
    fn parses_key_value_pairs_and_flags() {
        let parsed = args(&["--runs", "5", "--sizes", "10,12", "--quiet", "--seed=9"]);
        assert_eq!(parsed.parsed::<usize>("runs").unwrap(), 5);
        assert_eq!(parsed.list::<u32>("sizes").unwrap(), vec![10, 12]);
        assert!(parsed.flag("quiet"));
        assert_eq!(parsed.parsed::<u64>("seed").unwrap(), 9);
        assert_eq!(
            parsed.parsed::<u64>("cycles").unwrap(),
            60,
            "absent: the table's default"
        );
        assert_eq!(parsed.get("out"), None);
        assert!(!parsed.wants_help());
    }

    #[test]
    fn unknown_options_are_rejected() {
        let parse = |list: &[&str]| Args::parse(TABLE, list.iter().map(|s| s.to_string()));
        // The typo that used to regenerate a golden at the default budget.
        let error = parse(&["--cycle", "20"]).unwrap_err();
        assert!(error.contains("unknown option --cycle"), "{error}");
        assert!(parse(&["--cycles=20", "--verbose"]).is_err());
        assert!(parse(&["stray"]).is_err());
        // A valued option must come with its value.
        assert!(parse(&["--cycles"]).is_err());
        assert!(parse(&["--cycles", "--quiet"]).is_err());
        assert_eq!(
            parse(&["--cycles", "20"])
                .unwrap()
                .parsed::<u64>("cycles")
                .unwrap(),
            20
        );
    }

    #[test]
    fn a_shorthand_flag_implies_its_options_unless_they_are_given() {
        let parsed = args(&["--smoke"]);
        assert!(parsed.flag("smoke"));
        assert_eq!(parsed.sizes().unwrap(), vec![7]);
        assert_eq!(parsed.parsed::<u64>("cycles").unwrap(), 40);
        let parsed = args(&["--smoke", "--cycles", "25"]);
        assert_eq!(parsed.sizes().unwrap(), vec![7]);
        assert_eq!(parsed.parsed::<u64>("cycles").unwrap(), 25);
        let parsed = args(&["--sizes", "5,6", "--smoke"]);
        assert_eq!(parsed.sizes().unwrap(), vec![5, 6]);
        assert_eq!(args(&[]).get("smoke"), None);
    }

    #[test]
    fn usage_lists_every_option_with_its_default() {
        let text = usage("demo", "a demonstration", TABLE);
        assert!(text.starts_with("demo — a demonstration\n"));
        assert!(text.contains("-- demo [OPTIONS]"));
        for option in TABLE {
            assert!(text.contains(&format!("--{} ", option.spec)), "{text}");
        }
        assert!(text.contains("cycle budget [default: 60]"));
        assert!(text.contains("no progress output\n"));
        assert!(text.contains("tiny variant [= --sizes 7 --cycles 40]"));
    }

    #[test]
    fn help_flag_is_detected() {
        assert!(args(&["--help"]).wants_help());
        assert!(args(&["-h"]).wants_help());
        assert!(!args(&[]).wants_help());
    }

    #[test]
    fn trailing_flag_without_value_defaults_to_true() {
        let parsed = args(&["--quiet"]);
        assert_eq!(parsed.get("quiet"), Some("true"));
        // A flag never swallows the option after it.
        let parsed = args(&["--quiet", "--runs", "2"]);
        assert!(parsed.flag("quiet"));
        assert_eq!(parsed.parsed::<usize>("runs").unwrap(), 2);
        assert!(!args(&[]).flag("quiet"));
    }

    #[test]
    #[should_panic(expected = "expects a value")]
    fn unparseable_values_panic_with_context() {
        let parsed = args(&["--runs", "many"]);
        let _ = parsed.parsed::<usize>("runs").unwrap();
    }

    #[test]
    fn malformed_values_are_rejected() {
        // The same exit as an unknown option — status 2 and the usage — not a
        // panic inside the run, and not a "0 runs, not converged" row.
        for bad in [
            ["--runs", "x"],
            ["--sizes", "abc"],
            ["--sizes", "0"],
            ["--runs", "0"],
        ] {
            let line = ["fig3", "--cycles", "5", bad[0], bad[1]].map(String::from);
            assert_eq!(crate::experiments::run(line), 2, "{bad:?}");
        }
        // A size a `NodeIndex` cannot count and a thread count the network
        // cannot occupy used to abort on the allocation or the spawn; zero
        // threads used to run as one.
        for bad in [
            ["--size", "63", "--cycles", "1"],
            ["--size", "40", "--cycles", "1"],
            ["--size", "7", "--threads", "100000"],
            ["--size", "7", "--threads", "0"],
        ] {
            let line = std::iter::once("churn").chain(bad).map(String::from);
            assert_eq!(crate::experiments::run(line), 2, "{bad:?}");
        }
        // The message names the option and the reason.
        let error = args(&["--runs", "x"]).runs().unwrap_err();
        assert!(
            error.contains("--runs expects a value") && error.contains("\"x\""),
            "{error}"
        );
        let error = args(&["--runs", "0"]).runs().unwrap_err();
        assert!(error.contains("--runs expects at least 1"), "{error}");
        let error = args(&["--sizes", "8,abc"]).sizes().unwrap_err();
        assert!(
            error.contains("--sizes expects") && error.contains("\"abc\""),
            "{error}"
        );
        for exponent in ["0", "32", "64"] {
            let error = args(&["--size", exponent]).sizes().unwrap_err();
            assert!(error.contains("--size expects exponents from 1"), "{error}");
        }
        assert!(args(&["--latency", "1,2,3"]).engine_pair().is_err());
        assert!(args(&["--link", "constant:1,2"]).link_model_arg().is_err());
        assert!(args(&["--link", "wan:moon"]).link_model_arg().is_err());
    }

    #[test]
    fn unusable_output_paths_are_rejected() {
        // `--out-dir` is input from outside the program: a path that cannot
        // be created is the same exit-2 rejection as a malformed value,
        // before the first run — not a panic, and not after the whole sweep.
        for line in [
            vec!["scenarios", "--out-dir", "/dev/null/x"],
            vec!["wan", "--smoke", "--out-dir", "/dev/null/x"],
            vec!["cluster_net", "--smoke", "--out-dir", "/dev/null/x"],
        ] {
            let status = crate::experiments::run(line.iter().map(|&word| word.to_owned()));
            assert_eq!(status, 2, "{line:?}");
        }
        // The message names the path and the OS error.
        let error = crate::sweep::create_out_dir("/dev/null/x").unwrap_err();
        assert!(error.starts_with("--out-dir /dev/null/x: "), "{error}");
        let error = crate::sweep::write_file("/dev/null/x.tsv", "").unwrap_err();
        assert!(error.starts_with("write /dev/null/x.tsv: "), "{error}");
    }

    #[test]
    fn default_size_list_is_used_when_absent() {
        assert_eq!(args(&[]).sizes().unwrap(), vec![10, 12]);
    }

    #[test]
    fn common_args_apply_defaults_and_overrides() {
        let parsed = args(&[]);
        assert_eq!(parsed.sizes().unwrap(), vec![10, 12]);
        assert_eq!(parsed.parsed::<usize>("runs").unwrap(), 3);
        assert_eq!(parsed.parsed::<u64>("cycles").unwrap(), 60);
        assert_eq!(parsed.parsed::<u64>("seed").unwrap(), 1);
        // Absent `--threads` runs on every core; `--threads 1` pins one.
        assert_eq!(parsed.engine().unwrap(), Engine::Cycle);
        assert_eq!(
            args(&["--threads", "1"]).engine().unwrap(),
            Engine::ParallelCycle { threads: 1 }
        );
        assert!(parsed.get("out").is_none());
        assert!(!parsed.flag("quiet"));

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
        ]);
        assert_eq!(parsed.sizes().unwrap(), vec![8, 9]);
        assert_eq!(parsed.parsed::<usize>("runs").unwrap(), 5);
        assert_eq!(
            parsed.engine().unwrap(),
            Engine::ParallelCycle { threads: 4 }
        );
        assert_eq!(parsed.get("out"), Some("x.json"));
        assert!(parsed.flag("quiet"));
    }

    #[test]
    fn singular_size_overrides_the_list() {
        assert_eq!(args(&["--size", "11"]).sizes().unwrap(), vec![11]);
    }

    #[test]
    fn engine_and_latency_flags_select_the_event_engine() {
        assert_eq!(
            args(&["--engine", "event"]).engine().unwrap(),
            Engine::Event {
                latency: LatencyModel::Constant { millis: 1 }
            }
        );
        let uniform = LatencyModel::Uniform {
            min_millis: 5,
            max_millis: 50,
        };
        let parsed = args(&["--engine", "event", "--latency", "5,50", "--threads", "2"]);
        assert_eq!(parsed.engine().unwrap(), Engine::Event { latency: uniform });
        // A sweep runs both engines whatever `--engine` says.
        assert_eq!(
            parsed.engine_pair().unwrap(),
            [
                ("cycle", Engine::ParallelCycle { threads: 2 }),
                ("event", Engine::Event { latency: uniform }),
            ]
        );
        let parsed = args(&["--engine", "event", "--latency", "20"]);
        assert_eq!(
            parsed.latency_model().unwrap(),
            LatencyModel::Constant { millis: 20 }
        );
    }

    #[test]
    #[should_panic(expected = "cycle or event")]
    fn unknown_engine_names_panic() {
        let _ = args(&["--engine", "quantum"]).engine().unwrap();
    }

    #[test]
    fn link_specs_parse_into_latency_models() {
        assert_eq!(args(&[]).link_model_arg().unwrap(), None);
        assert_eq!(
            args(&["--link", "constant:7"]).link_model_arg().unwrap(),
            Some(LatencyModel::Constant { millis: 7 })
        );
        assert_eq!(
            args(&["--link", "uniform:2,40"]).link_model_arg().unwrap(),
            Some(LatencyModel::Uniform {
                min_millis: 2,
                max_millis: 40
            })
        );
        let wan = args(&["--link", "wan:clustered:6"])
            .link_model_arg()
            .unwrap()
            .unwrap();
        assert_eq!(
            wan.placement_spec(),
            Some(wan_placement("clustered", 6).unwrap())
        );
        // Bare `wan` defaults to the four-region clustered placement.
        assert_eq!(
            args(&["--link", "wan"]).link_model_arg().unwrap(),
            Some(LatencyModel::Wan {
                placement: wan_placement("clustered", 4).unwrap(),
                params: WanParams::default(),
            })
        );
        for name in ["plane", "dumbbell"] {
            assert!(wan_placement(name, 4).unwrap().validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "constant, uniform or wan")]
    fn unknown_link_specs_panic() {
        let _ = args(&["--link", "telepathy"]).link_model_arg().unwrap();
    }
}
