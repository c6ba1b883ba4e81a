//! Wire-scale bench: loopback UDP clusters across sizes.
//!
//! For every size it binds a real loopback cluster, polls it to convergence, and writes the
//! full [`NetReport`](bss_net::NetReport) as JSON (`<out-dir>/cluster_<N>.json`) plus one shared
//! TSV timeline (`<out-dir>/timeline.tsv`) with every convergence sample of
//! every run — the same artifact shapes CI uploads for the simulator sweeps.
//!
//! The headline cell is the driver at 512 nodes: one socket poll loop per
//! core, hundreds of protocol instances — the report records node
//! count, wall-clock to convergence, and datagrams/s so regressions in the
//! driver show up as numbers, not vibes.
//!
//! Environments without loopback UDP (heavily sandboxed CI) are detected at
//! the first failed bind and the whole bench skips with exit code 0, like the
//! socket tests. A cluster that fails to converge exits non-zero.

use crate::cli::Args;
use crate::sweep::{create_out_dir, write_file};
use bss_net::{DriverConfig, NetDriver};
use bss_util::config::BootstrapParams;
use bss_util::stats::append_cycle_rows;
use std::time::Duration;

/// How long one cluster may take to converge.
const DEADLINE: Duration = Duration::from_secs(120);

/// The tables every cell runs with: the paper's small-network parameters plus
/// a wire cycle short enough to converge in seconds on loopback.
fn bench_params() -> BootstrapParams {
    BootstrapParams {
        leaf_set_size: 6,
        random_samples: 8,
        cycle_millis: 40,
        ..BootstrapParams::paper_default()
    }
}

pub(super) fn run(args: &Args) -> super::Outcome {
    let out_dir: String = args.parsed("out-dir")?;
    let sizes = args.sizes()?;
    let seed = args.parsed("seed")?;
    create_out_dir(&out_dir)?;

    let mut timeline = String::from("nodes\tmillis\tmissing_leaf\tmissing_prefix\tdead\n");
    let mut all_converged = true;

    for size in sizes.into_iter().map(|exp| 1usize << exp) {
        let mut driver = match NetDriver::bind(DriverConfig {
            size,
            params: bench_params(),
            contacts_per_peer: 4,
            seed,
        }) {
            Ok(driver) => driver,
            Err(error) => {
                // No loopback UDP here (sandboxed CI): skip the whole bench,
                // successfully, like the socket tests do.
                eprintln!("skipping cluster_net: cannot bind loopback sockets: {error}");
                return Ok(());
            }
        };
        let report = driver.monitor(Duration::from_millis(50), DEADLINE);

        let path = format!("{out_dir}/cluster_{}.json", report.nodes);
        write_file(&path, &report.to_json())?;
        // The three series are sampled at the same instants, so they zip into
        // aligned rows, one per convergence sample.
        append_cycle_rows(
            &mut timeline,
            &report.nodes.to_string(),
            &[
                (Some(&report.leaf_series), 6),
                (Some(&report.prefix_series), 6),
                (Some(&report.dead_series), 6),
            ],
        );
        all_converged &= report.converged();

        println!(
            "N {:>4}  converged {:>5}  wall {:>6} ms  {:>9.1} datagrams/s  -> {path}",
            report.nodes,
            report.converged(),
            report.convergence_millis.unwrap_or(report.elapsed_millis),
            report.datagrams_per_second(),
        );
    }

    let tsv_path = format!("{out_dir}/timeline.tsv");
    write_file(&tsv_path, &timeline)?;
    println!("timeline -> {tsv_path}");

    if !all_converged {
        eprintln!("cluster_net: at least one cluster failed to converge before the deadline");
        std::process::exit(1);
    }
    Ok(())
}
