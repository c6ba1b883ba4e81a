//! Bootstrap a real cluster of UDP peers on localhost.
//!
//! The simulator results (Figures 3 and 4) use the cycle-driven engine; this
//! example runs the very same clocked protocol core over real sockets, which
//! is how a deployment would actually use the bootstrapping service: a
//! cluster of in-process peers, one socket each, all polled through the
//! driver from the calling thread, which sweeps chunks of them while a
//! worker per further core sweeps the others (the shape that scales to 512+
//! peers on one machine — see the `cluster_net` bench).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example udp_cluster
//! ```

use bootstrapping_service::net::{DriverConfig, NetDriver};
use bootstrapping_service::util::config::BootstrapParams;
use std::time::Duration;

fn main() {
    let size = 128;
    println!("binding {size} UDP peers on localhost ...");
    let mut driver = match NetDriver::bind(DriverConfig {
        size,
        // A 50 ms cycle converges a loopback cluster in a couple of seconds.
        params: BootstrapParams {
            leaf_set_size: 6,
            random_samples: 8,
            cycle_millis: 50,
            ..BootstrapParams::paper_default()
        },
        contacts_per_peer: 4,
        seed: 7,
    }) {
        Ok(driver) => driver,
        Err(error) => {
            eprintln!("cannot bind loopback UDP sockets in this environment: {error}");
            return;
        }
    };

    // `monitor` polls the driver, sampling convergence until the oracle says
    // every table is perfect (or the deadline passes), and returns the
    // wire-side twin of the simulator's RunReport.
    let report = driver.monitor(Duration::from_millis(50), Duration::from_secs(60));
    println!(
        "  converged = {} after {} ms ({:.0} datagrams/s on the wire)",
        report.converged(),
        report.convergence_millis.unwrap_or(report.elapsed_millis),
        report.datagrams_per_second()
    );

    if let Some(peer) = driver.handles().first() {
        let snapshot = peer.state_snapshot();
        println!(
            "  peer {} @ {}: leaf set {} entries, prefix table {} entries, {} exchanges initiated",
            peer.id(),
            peer.address(),
            snapshot.leaf_set().len(),
            snapshot.prefix_table().len(),
            peer.exchanges_initiated()
        );
    }
}
