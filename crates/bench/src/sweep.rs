//! The one sweep runner: sizes × cells × engines.
//!
//! A [`Cell`] is a name plus an [`ExperimentConfigBuilder`] — the builder is
//! `Clone` and already carries everything that makes one cell differ from the
//! next (timeline, sampler, countermeasures, link model, router). A [`Sweep`],
//! parsed once from the shared options, owns what every sweep repeats: the
//! size list, the cycle + event engine pair, the seed, cycle budget and
//! perfection stop it stamps on every cell, the output directory, the
//! `<out-dir>/[n<N>_]<cell>_<engine>.json` convention CI's `jq` gates read,
//! and the progress lines. Each finished run is handed to the experiment's row
//! closure, which keeps only what differs: its summary columns and its gate.

use crate::cli::Args;
use bss_core::experiment::{
    Experiment, ExperimentConfig, ExperimentConfigBuilder, RunReport, SamplerChoice,
};
use bss_core::scenario::{Engine, ScenarioEvent};
use bss_util::config::{BootstrapParams, NewscastParams};

/// One cell of a sweep.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// The cell's name: its stem in the JSON file name.
    pub(crate) name: String,
    /// Everything the cell fixes; the sweep adds size, seed, budget and engine.
    pub(crate) config: ExperimentConfigBuilder,
}

impl Cell {
    /// A cell running `events` on an otherwise default configuration.
    pub(crate) fn new(
        name: impl Into<String>,
        events: impl IntoIterator<Item = ScenarioEvent>,
    ) -> Self {
        let mut config = ExperimentConfig::builder();
        for event in events {
            config.event(event);
        }
        Cell {
            name: name.into(),
            config,
        }
    }

    /// Runs the cell over a real NEWSCAST sampler (20-entry views gossiped
    /// every 1000 ms) instead of the oracle — the sampling layer an adversary
    /// can actually poison — under the two countermeasures: the per-origin
    /// view diversity `quota` and the descriptor `verifier` key.
    pub(crate) fn over_newscast(&mut self, quota: Option<usize>, verifier: Option<u64>) {
        self.config
            .sampler(SamplerChoice::Newscast(NewscastParams {
                view_size: 20,
                view_diversity_quota: quota,
                ..NewscastParams::paper_default()
            }))
            .params(BootstrapParams {
                descriptor_verifier: verifier,
                ..BootstrapParams::paper_default()
            });
    }
}

/// One finished run, as handed to an experiment's row closure.
#[derive(Debug)]
pub(crate) struct Run<'a> {
    /// Position of the cell in the slice the sweep was given.
    pub(crate) cell: usize,
    /// The cell's name.
    pub(crate) name: &'a str,
    /// `cycle` or `event`.
    pub(crate) engine: &'static str,
    /// Number of nodes.
    pub(crate) network_size: usize,
    /// The full report (already written as JSON).
    pub(crate) report: &'a RunReport,
}

/// What every sweep shares, parsed once from the options.
#[derive(Debug, Clone)]
pub(crate) struct Sweep {
    /// Network-size exponents, outermost loop.
    pub(crate) sizes: Vec<u32>,
    /// The seed of every run.
    pub(crate) seed: u64,
    /// The cycle budget of every run.
    pub(crate) cycles: u64,
    stop_when_perfect: bool,
    engines: [(&'static str, Engine); 2],
    out_dir: String,
    quiet: bool,
}

impl Sweep {
    /// Reads `--sizes`/`--size`, `--seed`, `--cycles`, `--threads`,
    /// `--latency`, `--out-dir` and `--quiet`, creates the output directory
    /// and announces the sweep under `title`.
    ///
    /// # Errors
    ///
    /// Rejects an option value that does not read as what it should, and an
    /// `--out-dir` that cannot be created — before anything runs.
    pub(crate) fn from_args(
        args: &Args,
        title: &str,
        stop_when_perfect: bool,
    ) -> Result<Self, String> {
        let sweep = Sweep {
            sizes: args.sizes()?,
            seed: args.parsed("seed")?,
            cycles: args.parsed("cycles")?,
            stop_when_perfect,
            engines: args.engine_pair()?,
            out_dir: args.parsed("out-dir")?,
            quiet: args.flag("quiet"),
        };
        create_out_dir(&sweep.out_dir)?;
        eprintln!(
            "# {title}: sizes {:?} (exponents), seed {}, {} cycles budget",
            sweep.sizes, sweep.seed, sweep.cycles
        );
        Ok(sweep)
    }

    /// The JSON stem of one run: `<cell>_<engine>`, prefixed `n<N>_` only
    /// when more than one size is swept (so single-size artifact names stay
    /// what the CI gates expect).
    fn stem(&self, network_size: usize, cell: &str, engine: &str) -> String {
        if self.sizes.len() > 1 {
            format!("n{network_size}_{cell}_{engine}")
        } else {
            format!("{cell}_{engine}")
        }
    }

    /// Runs every size × cell × engine in that order, writes each
    /// `RunReport` JSON and hands the run to `row`.
    ///
    /// # Errors
    ///
    /// Stops at the first report that cannot be written.
    ///
    /// # Panics
    ///
    /// Panics when a cell's configuration is rejected.
    pub(crate) fn run(&self, cells: &[Cell], mut row: impl FnMut(Run<'_>)) -> Result<(), String> {
        for &exponent in &self.sizes {
            let network_size = 1usize << exponent;
            for (index, cell) in cells.iter().enumerate() {
                for (engine_name, engine) in self.engines {
                    let config = cell
                        .config
                        .clone()
                        .network_size(network_size)
                        .seed(self.seed)
                        .max_cycles(self.cycles)
                        .stop_when_perfect(self.stop_when_perfect)
                        .engine(engine)
                        .build()
                        .unwrap_or_else(|error| panic!("cell {}: {error}", cell.name));
                    let report = Experiment::new(config).run();
                    let stem = self.stem(network_size, &cell.name, engine_name);
                    self.write(&format!("{stem}.json"), &report.to_json())?;
                    row(Run {
                        cell: index,
                        name: &cell.name,
                        engine: engine_name,
                        network_size,
                        report: &report,
                    });
                }
            }
        }
        Ok(())
    }

    /// Writes `<out-dir>/<file>` and says so (unless `--quiet`).
    ///
    /// # Errors
    ///
    /// Names the path and the OS error when the file cannot be written.
    pub(crate) fn write(&self, file: &str, contents: &str) -> Result<(), String> {
        let path = format!("{}/{file}", self.out_dir);
        write_file(&path, contents)?;
        if !self.quiet {
            eprintln!("#   wrote {path}");
        }
        Ok(())
    }
}

/// Creates the `--out-dir` of an experiment, before its first run.
///
/// # Errors
///
/// Names the path and the OS error when the directory cannot be created.
pub(crate) fn create_out_dir(out_dir: &str) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|error| format!("--out-dir {out_dir}: {error}"))
}

/// Writes one output file of an experiment.
///
/// # Errors
///
/// Names the path and the OS error when the file cannot be written.
pub(crate) fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|error| format!("write {path}: {error}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run, usage_of, EXPERIMENTS};
    use bss_core::scenario::Phase;

    fn sweep(sizes: &[u32], out_dir: &str) -> Sweep {
        let out_dir = std::env::temp_dir().join(format!("bss-sweep-{out_dir}"));
        Sweep {
            sizes: sizes.to_vec(),
            seed: 1,
            cycles: 30,
            stop_when_perfect: true,
            engines: [
                ("cycle", Engine::Cycle),
                (
                    "event",
                    Engine::Event {
                        latency: Default::default(),
                    },
                ),
            ],
            out_dir: out_dir.to_str().unwrap().to_owned(),
            quiet: true,
        }
    }

    #[test]
    fn json_stems_gain_the_size_prefix_only_when_several_sizes_are_swept() {
        // The eclipse, traffic-recovery and regional-outage gates of CI read
        // `<cell>_<engine>.json`.
        let single = sweep(&[7], "stem");
        assert_eq!(
            single.stem(128, "eclipse_defended", "cycle"),
            "eclipse_defended_cycle"
        );
        let several = sweep(&[5, 6], "stem");
        assert_eq!(
            several.stem(32, "wan_outage", "event"),
            "n32_wan_outage_event"
        );
        assert_eq!(
            several.stem(64, "wan_outage", "event"),
            "n64_wan_outage_event"
        );
    }

    #[test]
    fn a_sweep_calls_the_row_closure_once_per_cell_and_engine_in_table_order() {
        let sweep = sweep(&[5], "order");
        std::fs::create_dir_all(&sweep.out_dir).unwrap();
        let cells = [
            Cell::new("calm", []),
            Cell::new(
                "loss",
                [ScenarioEvent::LossWindow {
                    phase: Phase::new(2, 6),
                    probability: 0.3,
                }],
            ),
        ];
        let mut rows = Vec::new();
        let outcome = sweep.run(&cells, |run| {
            assert_eq!(run.network_size, 32);
            assert_eq!(run.report.config().seed, 1);
            assert_eq!(run.report.config().max_cycles, 30);
            assert!(run.report.converged(), "{} on {}", run.name, run.engine);
            rows.push((run.cell, run.name.to_owned(), run.engine));
        });
        assert_eq!(outcome, Ok(()));
        assert_eq!(
            rows,
            [
                (0, "calm".to_owned(), "cycle"),
                (0, "calm".to_owned(), "event"),
                (1, "loss".to_owned(), "cycle"),
                (1, "loss".to_owned(), "event"),
            ]
        );
        for (_, name, engine) in rows {
            let path = format!("{}/{name}_{engine}.json", sweep.out_dir);
            let json = std::fs::read_to_string(&path).expect("the sweep wrote the report");
            assert!(json.contains("\"network_size\": 32"), "{path}");
        }
        std::fs::remove_dir_all(&sweep.out_dir).unwrap();
    }

    #[test]
    fn every_experiment_is_listed_in_help_and_accepts_help() {
        let names = [
            "fig3",
            "fig4",
            "churn",
            "merge_split",
            "ablation",
            "scenarios",
            "recovery",
            "adversary",
            "traffic",
            "wan",
            "cluster_net",
            "golden-diff",
        ];
        assert_eq!(
            EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>(),
            names
        );
        let overview = usage_of(None);
        for experiment in EXPERIMENTS {
            assert!(overview.contains(experiment.name), "{overview}");
            assert!(overview.contains(experiment.about), "{overview}");
            let help = usage_of(Some(experiment));
            assert!(help.contains(&format!("-- {} [OPTIONS]", experiment.name)));
            assert_eq!(run([experiment.name, "--help"].map(String::from)), 0);
            // ... and rejects an option it does not list, before running.
            assert_eq!(
                run([experiment.name, "--no-such-option"].map(String::from)),
                2
            );
        }
        assert_eq!(run(["--help".to_owned()]), 0);
        assert_eq!(run(["fig5".to_owned()]), 2);
    }
}
