//! Sim-vs-net parity: the wire runs the same clocked protocol core as the
//! simulator engines, so a UDP cluster must bootstrap to the *same* converged
//! oracle state the cycle engine reaches with matching parameters.
//!
//! Both `Experiment` (via `Network::with_random_ids`) and the net stack draw
//! node identifiers as `SimRng::seed_from(seed)` followed by one
//! `distinct_u64(size)` batch, so a sim run and a net cluster with the same
//! seed and size host the *same identifier population* — which is what makes
//! per-identifier table comparison meaningful.
//!
//! Environments without loopback UDP (heavily sandboxed CI) skip on bind
//! failure, like every other socket test in the workspace.

use bootstrapping_service::core::experiment::{Experiment, ExperimentConfig};
use bootstrapping_service::net::cluster::{Cluster, ClusterConfig};
use bss_util::config::BootstrapParams;
use bss_util::id::NodeId;
use std::collections::BTreeSet;
use std::time::Duration;

const SEED: u64 = 7;

fn parity_params() -> BootstrapParams {
    BootstrapParams {
        leaf_set_size: 6,
        random_samples: 8,
        cycle_millis: 40,
        ..BootstrapParams::paper_default()
    }
}

fn spawn_or_skip(config: ClusterConfig) -> Option<Cluster> {
    match Cluster::spawn(config) {
        Ok(cluster) => Some(cluster),
        Err(error) => {
            eprintln!("skipping net parity test: {error}");
            None
        }
    }
}

#[test]
fn a_driver_cluster_reaches_the_cycle_engines_converged_state() {
    const SIZE: usize = 64;
    let params = parity_params();

    // The reference: the cycle engine, same seed, size and table parameters.
    let config = ExperimentConfig::builder()
        .network_size(SIZE)
        .seed(SEED)
        .params(params)
        .max_cycles(200)
        .stop_when_perfect(true)
        .build()
        .expect("valid sim config");
    let (report, snapshot) = Experiment::new(config).run_with_snapshot();
    assert!(
        report.converged(),
        "the cycle engine must converge: {report}"
    );

    // The subject: a 64-peer loopback cluster through the single-loop driver.
    let Some(cluster) = spawn_or_skip(ClusterConfig {
        size: SIZE,
        params,
        contacts_per_peer: 4,
        seed: SEED,
    }) else {
        return;
    };
    assert!(
        cluster.wait_for_convergence(Duration::from_secs(90)),
        "the wire cluster must reach the oracle-perfect state: {:?}",
        cluster.measure()
    );

    // Same identifier population, drawn in the same order.
    let sim_ids: BTreeSet<NodeId> = snapshot.ids().collect();
    let net_ids: BTreeSet<NodeId> = cluster.peers().iter().map(|peer| peer.id()).collect();
    assert_eq!(sim_ids, net_ids, "seeded identifier assignment must match");

    // Both being oracle-perfect, every node's leaf set is the c/2 ring
    // neighbours on each side — so the wire tables must equal the sim tables
    // identifier for identifier.
    for peer in cluster.peers() {
        let sim_node = snapshot
            .node_by_id(peer.id())
            .expect("sim population holds every wire identifier");
        let sim_leaf: BTreeSet<NodeId> = sim_node.leaf_set().iter().map(|d| d.id()).collect();
        let net_leaf: BTreeSet<NodeId> = peer
            .state_snapshot()
            .leaf_set()
            .iter()
            .map(|d| d.id())
            .collect();
        assert_eq!(
            sim_leaf,
            net_leaf,
            "leaf set of {} diverges between sim and wire",
            peer.id()
        );
    }
    cluster.shutdown();
}

#[test]
fn aging_purges_killed_peers_from_the_wire() {
    const SIZE: usize = 32;
    let params = BootstrapParams {
        descriptor_max_age: Some(6),
        ..parity_params()
    };

    let Some(cluster) = spawn_or_skip(ClusterConfig {
        size: SIZE,
        params,
        contacts_per_peer: 4,
        seed: SEED,
    }) else {
        return;
    };
    assert!(
        cluster.wait_for_convergence(Duration::from_secs(90)),
        "the aged cluster must first converge: {:?}",
        cluster.measure()
    );

    // Kill a quarter mid-run. The dead peers' descriptors are still all over
    // the survivors' tables...
    let killed = cluster.kill(0.25, 99);
    assert_eq!(killed.len(), SIZE / 4);
    assert!(
        cluster.dead_descriptor_fraction() > 0.0,
        "converged tables must still reference the freshly killed peers"
    );

    // ... until aging evicts them: dead peers stop heartbeating, their
    // descriptors expire, and the survivors re-converge to the smaller
    // oracle-perfect state — the wire twin of `tests/recovery.rs`.
    assert!(
        cluster.wait_for_recovery(Duration::from_secs(90)),
        "survivors must purge dead descriptors and re-converge: \
         dead fraction {:.4}, state {:?}",
        cluster.dead_descriptor_fraction(),
        cluster.measure()
    );
    assert_eq!(cluster.dead_descriptor_fraction(), 0.0);
    cluster.shutdown();
}
