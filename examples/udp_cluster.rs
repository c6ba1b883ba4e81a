//! Bootstrap a real cluster of UDP peers on localhost.
//!
//! The simulator results (Figures 3 and 4) use the cycle-driven engine; this
//! example runs the very same clocked protocol core over real sockets, which
//! is how a deployment would actually use the bootstrapping service: a
//! cluster of in-process peers, one socket each, all polled by the
//! single-loop driver on one thread (the shape that scales to 512+ peers on
//! one machine — see the `cluster_net` bench).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example udp_cluster
//! ```

use bootstrapping_service::net::cluster::{Cluster, ClusterConfig};
use std::time::Duration;

fn main() {
    let size = 128;
    println!("spawning {size} UDP peers on localhost ...");
    let cluster = match Cluster::spawn(ClusterConfig {
        size,
        seed: 7,
        ..ClusterConfig::default()
    }) {
        Ok(cluster) => cluster,
        Err(error) => {
            eprintln!("cannot bind loopback UDP sockets in this environment: {error}");
            return;
        }
    };

    // `monitor` samples convergence until the oracle says every table is
    // perfect (or the deadline passes) and returns the wire-side twin of
    // the simulator's RunReport.
    let report = cluster.monitor(Duration::from_millis(50), Duration::from_secs(60));
    println!(
        "  converged = {} after {} ms ({:.0} datagrams/s on the wire)",
        report.converged(),
        report.convergence_millis.unwrap_or(report.elapsed_millis),
        report.datagrams_per_second()
    );

    if let Some(peer) = cluster.peers().first() {
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
    cluster.shutdown();
}
