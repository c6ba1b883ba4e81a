//! The repository's benchmark: four workloads, eight end-to-end metrics and a
//! per-layer ledger, all measured from outside the crates.
//!
//! ```text
//! bss-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>]
//!               [--trace <0|1>] [--smoke] [--out <file>]
//! ```
//!
//! Each run prints every metric by name with its unit and, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones (untraced reps), with
//! `--trace 1` the per-layer ones (one traced rep plus the ledger's probes);
//! without `--trace` both runs are made. A violated output check prints the
//! violation, prints no result, and exits with code 1.

mod alloc;
mod catalogue;
mod ledger;
mod reference;
mod trace;
mod workloads;

use catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Outcome, RunArgs, Scale, Sim};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage: bss-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--out <file>]";

#[derive(Debug)]
struct Cli {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if name != "all" {
                    let known = WORKLOADS
                        .iter()
                        .find(|&&known| known == name)
                        .ok_or(format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
                    cli.workloads = vec![known];
                }
            }
            "--seed" => {
                let text = value("--seed")?;
                cli.seed = text.parse().map_err(|_| format!("bad --seed {text}"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                let seconds: f64 = text.parse().map_err(|_| format!("bad --seconds {text}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {text}"));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in one mode.
fn run(workload: &'static str, args: RunArgs, traced: bool) -> Result<Outcome, String> {
    let sim = match workload {
        "fig3_newscast" => Some(Sim::Fig3Newscast),
        "fig4_parallel" => Some(Sim::Fig4Parallel),
        "serve_churn_event" => Some(Sim::ServeChurnEvent),
        _ => None,
    };
    if !traced {
        return match sim {
            Some(sim) => workloads::run_sim(sim, args),
            None => workloads::run_wire(args),
        };
    }
    let mut tracer = Tracer::new(true);
    let mut outcome = match sim {
        Some(sim) => workloads::run_sim_traced(sim, args, &mut tracer)?,
        None => workloads::run_wire_traced(args, &mut tracer)?,
    };
    ledger::run(&mut tracer, args.seed, args.scale, &mut outcome.metrics)?;
    outcome
        .metrics
        .set("bench.trace.spans", tracer.len() as f64);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    tracer
        .write_jsonl(&path, workload)
        .map_err(|error| format!("writing {}: {error}", path.display()))?;
    Ok(outcome)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`. A run
/// that failed an output check never gets here, so `correct` is always true.
fn result_json(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (index, (name, unit, value)) in metrics.iter().enumerate() {
        let separator = if index == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{separator}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.smoke { 0.5 } else { 30.0 }),
        scale: Scale(if cli.smoke { 16 } else { 1 }),
    };
    let modes: &[bool] = match cli.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut document = String::from("[");
    for &workload in &cli.workloads {
        for &traced in modes {
            let catalogue: &[_] = if traced { &PER_LAYER } else { &END_TO_END };
            let checked = run(workload, args, traced).and_then(|outcome| {
                let metrics = outcome.metrics.ordered(catalogue)?;
                Ok((outcome, metrics))
            });
            let (outcome, metrics) = match checked {
                Ok(result) => result,
                Err(message) => {
                    eprintln!("{workload}: output check failed: {message}");
                    return ExitCode::from(1);
                }
            };
            println!(
                "{workload} (seed {}, {} s, {}): {} lookups attempted, {} failed",
                args.seed,
                args.seconds,
                if traced { "traced" } else { "untraced" },
                outcome.attempted,
                outcome.failed
            );
            for (name, unit, value) in &metrics {
                println!("  {name:<40} {value:>18.6} {unit}");
            }
            let line = result_json(&outcome, &metrics);
            if document.len() > 1 {
                document.push(',');
            }
            let _ = write!(
                document,
                "\n{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"result\": {line}}}",
                args.seed,
                args.seconds,
                u8::from(traced),
                cli.smoke
            );
            println!("{line}");
        }
    }
    document.push_str("\n]\n");
    if let Some(path) = cli.out {
        if let Err(error) = std::fs::write(&path, document) {
            eprintln!("writing {}: {error}", path.display());
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
