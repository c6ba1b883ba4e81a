//! Scaling sweep of the simulation hot path: wall-clock throughput across
//! network sizes, samplers and loss rates.
//!
//! Unlike the figure experiments (which reproduce the paper's *convergence*
//! curves), this one measures the *simulator itself*: cycles per second,
//! messages per second, honest per-run peak heap, per-phase wall time and
//! cycles-to-perfect for every cell of the sweep `sizes × {oracle, newscast} ×
//! loss {0, 0.2}` (`--samplers` / `--losses` restrict the grid — the
//! million-node runs use them to measure the oracle hot path alone). The
//! results are written as JSON (`BENCH_scaling.json` by default) so successive
//! PRs have a perf trajectory to beat; see the "Performance" section of the
//! README.
//!
//! Thread counts change wall-clock only: every run's simulation output is
//! bit-for-bit identical at any `--threads` value (the engine pre-draws all
//! randomness sequentially and commits results in planning order), which CI
//! verifies by diffing the JSON of a `--threads 1` and a `--threads 2` smoke
//! run. When `--threads` > 1 the fixed 10k reference also runs at 1 thread so
//! the JSON carries the speedup pair.
//!
//! Memory accounting: per-entry `peak_alloc_kib` comes from the counting
//! global allocator ([`crate::alloc`], installed by the binary) and is rearmed
//! before every run, so each cell reports *its own* peak live heap. `VmHWM` is
//! monotone over the process lifetime — every cell after the largest would
//! inherit its high-water mark — so it is reported once, at the top level, as
//! the whole-process figure it is.
//!
//! The `fig3_10k` reference entry — a 10 000-node, 60-cycle, oracle-sampled run
//! with the perfection stop disabled — is the fixed datapoint used to compare
//! engine versions.

use crate::alloc;
use crate::cli::Args;
use crate::sweep::Cell;
use bss_core::experiment::{Experiment, ExperimentConfig, SamplerChoice};
use bss_core::scenario::Engine;
use bss_util::config::NewscastParams;
use std::io::Write as _;
use std::time::Instant;

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`; 0 where there is none). Monotone over the process
/// lifetime — reported once at the top level as a whole-process figure, never
/// per entry.
fn process_peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = status.lines().find_map(|line| line.strip_prefix("VmHWM:"));
    peak.and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The parallelism the host actually offers (1 when undetectable).
fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs one cell with the phase profiler on and renders its JSON entry.
fn measure(cell: &Cell, quiet: bool) -> Result<String, Box<dyn std::error::Error>> {
    let mut config = cell.config.build()?;
    config.profile = true;
    if !quiet {
        eprintln!("# {}", cell.name);
    }
    alloc::reset_peak();
    let start = Instant::now();
    let outcome = Experiment::new(config.clone()).run();
    let elapsed = start.elapsed().as_secs_f64();
    let peak_alloc_kib = alloc::peak_kib();
    let cycles = outcome.cycles_executed();
    let cycles_per_second = cycles as f64 / elapsed.max(1e-9);
    let traffic = outcome.traffic();
    let messages = traffic.requests_sent + traffic.answers_sent;
    let convergence = outcome
        .convergence_cycle()
        .map_or_else(|| "null".to_owned(), |cycle| cycle.to_string());
    if !quiet {
        eprintln!(
            "#   {elapsed:.2}s ({cycles_per_second:.1} cycles/s, peak heap {peak_alloc_kib} KiB, \
             converged at {convergence})"
        );
    }
    let phases = match outcome.phase_profile() {
        Some(p) => format!(
            "{{\"plan_seconds\": {:.4}, \"execute_seconds\": {:.4}, \
             \"commit_seconds\": {:.4}, \"measure_seconds\": {:.4}, \
             \"profiled_cycles\": {}}}",
            p.plan.as_secs_f64(),
            p.execute.as_secs_f64(),
            p.commit.as_secs_f64(),
            p.measure.as_secs_f64(),
            p.cycles
        ),
        None => "null".to_owned(),
    };
    Ok(format!(
        "    {{\"label\": \"{}\", \"network_size\": {}, \"sampler\": \"{}\", \
         \"drop_probability\": {}, \"threads\": {}, \"available_parallelism\": {}, \
         \"cycles_executed\": {cycles}, \"convergence_cycle\": {convergence}, \
         \"elapsed_seconds\": {elapsed:.4}, \"cycles_per_second\": {cycles_per_second:.2}, \
         \"node_cycles_per_second\": {:.0}, \"messages_per_second\": {:.0}, \
         \"peak_alloc_kib\": {peak_alloc_kib}, \"phase_profile\": {phases}}},\n",
        cell.name,
        config.network_size,
        match config.sampler {
            SamplerChoice::Oracle => "oracle",
            SamplerChoice::Newscast(_) => "newscast",
        },
        config.drop_probability(),
        config.threads(),
        available_parallelism(),
        (cycles as f64 * config.network_size as f64) / elapsed.max(1e-9),
        messages as f64 / elapsed.max(1e-9),
    ))
}

/// The whole report: the notes, the process-wide peak RSS and the entries
/// (each rendered with a trailing `,\n`; the last one loses its comma).
fn render_json(entries: &str) -> String {
    let entries = entries
        .strip_suffix(",\n")
        .map_or_else(String::new, |body| format!("{body}\n"));
    format!(
        "{{\n  \"benchmark\": \"scaling\",\n  \"unit_notes\": \
         \"cycles_per_second = simulated cycles / wall second; \
         node_cycles_per_second = network_size * cycles_per_second; \
         messages_per_second = transport messages offered / wall second; \
         peak_alloc_kib = per-run peak live heap from the counting allocator \
         (rearmed before each run); process_peak_rss_kib = whole-process VmHWM, \
         monotone over the sweep; phase_profile = engine wall seconds per phase\",\n  \
         \"process_peak_rss_kib\": {},\n  \"entries\": [\n{}  ]\n}}\n",
        process_peak_rss_kib(),
        entries,
    )
}

pub(super) fn run(args: &Args) -> super::Outcome {
    let seed: u64 = args.parsed("seed")?;
    let measure_every: u64 = args.parsed("measure-every")?;
    let threads = args.threads()?;
    let available = available_parallelism();
    if threads > available {
        eprintln!(
            "# warning: --threads {threads} exceeds available parallelism ({available}); \
             extra workers only add scheduling overhead"
        );
    }
    // Honour --engine: event-engine sweeps keep the selected engine verbatim
    // (thread counts are meaningless there); cycle-family sweeps map each
    // cell's thread count onto Cycle / ParallelCycle.
    let selected = args.engine()?;
    let event_engine = matches!(selected, Engine::Event { .. });
    let engine_for = |cell_threads: usize| -> Engine {
        if event_engine {
            selected
        } else {
            Engine::with_threads(cell_threads)
        }
    };

    let base = |cell_threads: usize| {
        let mut config = ExperimentConfig::builder();
        config
            .measure_every(measure_every)
            .engine(engine_for(cell_threads));
        config
    };
    let mut cells = Vec::new();

    // The fixed engine-version reference point: 10k nodes, 60 full cycles,
    // oracle sampling, no loss. Disabling the perfection stop makes the
    // wall-clock comparable across engine versions regardless of convergence.
    if !args.flag("skip-reference") && !args.flag("smoke") {
        // Always measure the fixed reference at one thread (the engine-version
        // trajectory datapoint); when a thread pool is requested, measure it
        // again with the pool so the JSON carries the speedup pair. On the
        // event engine the pair is meaningless, so only one reference runs.
        let mut reference_threads = vec![1usize];
        if threads > 1 && !event_engine {
            reference_threads.push(threads);
        }
        for reference_thread_count in reference_threads {
            let mut config = base(reference_thread_count);
            config
                .network_size(10_000)
                .seed(seed)
                .max_cycles(60)
                .stop_when_perfect(false);
            let name = if reference_thread_count == 1 {
                "fig3_10k".to_owned()
            } else {
                format!("fig3_10k_t{reference_thread_count}")
            };
            cells.push(Cell { name, config });
        }
    }

    let cycles = args.parsed("cycles")?;
    let losses = args.list::<f64>("losses")?;
    for exponent in args.sizes()? {
        for sampler_name in args.list::<String>("samplers")? {
            let sampler = match sampler_name.as_str() {
                "oracle" => SamplerChoice::Oracle,
                "newscast" => SamplerChoice::Newscast(NewscastParams::paper_default()),
                other => {
                    return Err(
                        format!("--samplers expects oracle or newscast, got {other:?}").into(),
                    )
                }
            };
            for &loss in &losses {
                let mut config = base(threads);
                config
                    .network_size(1usize << exponent)
                    .seed(seed + u64::from(exponent))
                    .sampler(sampler)
                    .drop_probability(loss)
                    .max_cycles(cycles);
                let name = format!("2^{exponent}_{sampler_name}_loss{loss}");
                cells.push(Cell { name, config });
            }
        }
    }

    // `--out` comes from outside the program: find out that it cannot be
    // written before the sweep, not after it (an existing file keeps its
    // contents until the new ones are ready).
    let out_path: String = args.parsed("out")?;
    let unwritable = |error| format!("--out {out_path}: {error}");
    let mut out = std::fs::File::options()
        .append(true)
        .create(true)
        .open(&out_path)
        .map_err(unwritable)?;
    let quiet = args.flag("quiet");
    let entries = cells.iter().map(|cell| measure(cell, quiet));
    let entries: String = entries.collect::<Result<_, _>>()?;
    let json = render_json(&entries);
    out.set_len(0)
        .and_then(|()| out.write_all(json.as_bytes()))
        .map_err(unwritable)?;
    eprintln!("# wrote {out_path}");
    print!("{json}");
    Ok(())
}
