//! A supervised localhost cluster of UDP peers.
//!
//! [`Cluster::spawn`] brings up `size` peers on loopback, every peer
//! multiplexed over one batched poll loop ([`crate::driver::NetDriver`]) on a
//! supervisor-owned thread, gives each a random contact list (seeding its
//! sampling-gossip pool, from which the sampling layer takes over) and lets
//! them bootstrap. The convergence check reuses the simulator's
//! [`ConvergenceOracle`], so
//! "perfect" means exactly what it means in the paper's figures, and
//! [`Cluster::monitor`] renders a whole run as a RunReport-shaped
//! [`NetReport`].

use crate::driver::{DriverConfig, NetDriver};
use crate::node::PeerHandle;
use crate::report::{NetReport, NetStats};
use bss_core::convergence::{ConvergenceOracle, NetworkConvergence};
use bss_util::config::BootstrapParams;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use bss_util::stats::Series;
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a localhost cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of peers to spawn.
    pub size: usize,
    /// Bootstrapping-service parameters. The default shortens Δ to 50 ms so a
    /// laptop cluster converges in a couple of seconds.
    pub params: BootstrapParams,
    /// How many random contacts every peer receives at start-up.
    pub contacts_per_peer: usize,
    /// Seed for identifier assignment and contact-list sampling.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            size: 8,
            params: BootstrapParams {
                leaf_set_size: 6,
                random_samples: 8,
                cycle_millis: 50,
                ..BootstrapParams::paper_default()
            },
            contacts_per_peer: 4,
            seed: 1,
        }
    }
}

/// A running cluster of UDP peers.
#[derive(Debug)]
pub struct Cluster {
    handles: Vec<PeerHandle>,
    params: BootstrapParams,
    seed: u64,
    stats: Arc<NetStats>,
    started: Instant,
    /// The driver loop's run flag and thread.
    running: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Cluster {
    /// Spawns the cluster: binds every peer, then distributes contact lists.
    ///
    /// # Errors
    ///
    /// Returns any I/O error raised while binding sockets.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the parameters are invalid.
    pub fn spawn(config: ClusterConfig) -> io::Result<Self> {
        assert!(config.size > 0, "a cluster needs at least one peer");
        config.params.validate().expect("invalid parameters");
        let driver = NetDriver::bind(DriverConfig {
            size: config.size,
            params: config.params,
            contacts_per_peer: config.contacts_per_peer,
            seed: config.seed,
        })?;
        let handles = driver.handles();
        let stats = driver.stats();
        let running = Arc::new(AtomicBool::new(true));
        let loop_flag = Arc::clone(&running);
        let thread = std::thread::Builder::new()
            .name("bss-driver".to_owned())
            .spawn(move || driver.run(loop_flag))?;
        Ok(Cluster {
            handles,
            params: config.params,
            seed: config.seed,
            stats,
            started: Instant::now(),
            running,
            thread: Some(thread),
        })
    }

    /// The peers, as cheap cloneable handles.
    pub fn peers(&self) -> &[PeerHandle] {
        &self.handles
    }

    /// Measures the alive peers against the convergence oracle right now.
    /// Killed peers are neither measured nor expected in anyone's tables.
    pub fn measure(&self) -> NetworkConvergence {
        let alive: Vec<&PeerHandle> = self.handles.iter().filter(|h| h.is_alive()).collect();
        let oracle = ConvergenceOracle::new(alive.iter().map(|h| h.id()), &self.params);
        let mut aggregate = NetworkConvergence::default();
        for handle in alive {
            aggregate.accumulate(oracle.measure_node(&handle.state_snapshot()));
        }
        aggregate
    }

    /// The fraction of descriptors stored by alive peers (leaf sets and prefix
    /// tables) that name killed peers — the wire-side recovery metric: with
    /// descriptor aging on, it must fall back to 0 after a kill because dead
    /// peers stop heartbeating and age out of every table.
    pub fn dead_descriptor_fraction(&self) -> f64 {
        let dead: HashSet<NodeId> = self
            .handles
            .iter()
            .filter(|h| !h.is_alive())
            .map(PeerHandle::id)
            .collect();
        if dead.is_empty() {
            return 0.0;
        }
        let mut total = 0u64;
        let mut stale = 0u64;
        for handle in self.handles.iter().filter(|h| h.is_alive()) {
            let snapshot = handle.state_snapshot();
            for descriptor in snapshot.leaf_set().iter() {
                total += 1;
                if dead.contains(&descriptor.id()) {
                    stale += 1;
                }
            }
            for descriptor in snapshot.prefix_table().iter() {
                total += 1;
                if dead.contains(&descriptor.id()) {
                    stale += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        }
    }

    /// Kills `fraction` of the alive peers (chosen by `seed`), leaving at
    /// least one survivor. Killed peers stop sending and answering immediately
    /// — the driver loop skips them — but their descriptors keep circulating
    /// until aging evicts them.
    /// Returns the killed identifiers.
    pub fn kill(&self, fraction: f64, seed: u64) -> Vec<NodeId> {
        let alive: Vec<&PeerHandle> = self.handles.iter().filter(|h| h.is_alive()).collect();
        let count = ((alive.len() as f64 * fraction).round() as usize).min(alive.len() - 1);
        let indices: Vec<usize> = (0..alive.len()).collect();
        let mut rng = SimRng::seed_from(seed);
        let chosen = rng.sample(&indices, count);
        let mut killed = Vec::with_capacity(count);
        for index in chosen {
            alive[index].mark_dead();
            killed.push(alive[index].id());
        }
        killed
    }

    /// Polls the cluster until every alive peer has perfect tables or
    /// `timeout` expires. Returns whether convergence was reached.
    pub fn wait_for_convergence(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |cluster| cluster.measure().is_perfect())
    }

    /// Polls until the cluster has both purged every dead descriptor and
    /// re-converged among the survivors, or `timeout` expires.
    pub fn wait_for_recovery(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |cluster| {
            cluster.dead_descriptor_fraction() == 0.0 && cluster.measure().is_perfect()
        })
    }

    fn wait_until(&self, timeout: Duration, done: impl Fn(&Cluster) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if done(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Watches the cluster until it converges or `timeout` expires, sampling
    /// the convergence series every `poll_every`, and renders the run as a
    /// RunReport-shaped [`NetReport`]. Elapsed times are measured from cluster
    /// start, so a monitor attached late still reports absolute progress.
    pub fn monitor(&self, poll_every: Duration, timeout: Duration) -> NetReport {
        let deadline = Instant::now() + timeout;
        let mut leaf_series = Series::new("leaf_series");
        let mut prefix_series = Series::new("prefix_series");
        let mut dead_series = Series::new("dead_series");
        let mut convergence_millis = None;
        loop {
            let state = self.measure();
            let elapsed = self.started.elapsed().as_millis() as u64;
            leaf_series.push(elapsed, state.leaf_proportion());
            prefix_series.push(elapsed, state.prefix_proportion());
            dead_series.push(elapsed, self.dead_descriptor_fraction());
            if state.is_perfect() && convergence_millis.is_none() {
                convergence_millis = Some(elapsed);
            }
            if convergence_millis.is_some() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(poll_every);
        }
        NetReport {
            nodes: self.handles.len(),
            seed: self.seed,
            convergence_millis,
            elapsed_millis: self.started.elapsed().as_millis() as u64,
            traffic: self.stats.snapshot(),
            leaf_series,
            prefix_series,
            dead_series,
        }
    }

    /// Stops every peer and joins the driver thread; the loop checks its flag
    /// every sweep, so it exits within about a millisecond.
    pub fn shutdown(self) {
        // Drop runs the teardown; the consuming signature is the public
        // contract ("a shut-down cluster cannot be used again").
    }

    fn stop(&mut self) {
        for handle in &self.handles {
            handle.mark_dead();
        }
        self.running.store(false, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_or_skip(config: ClusterConfig) -> Option<Cluster> {
        match Cluster::spawn(config) {
            Ok(cluster) => Some(cluster),
            // Environments without loopback UDP (heavily sandboxed CI) cannot
            // run these tests; binding failure is the only acceptable excuse.
            Err(error) => {
                eprintln!("skipping UDP cluster test: {error}");
                None
            }
        }
    }

    #[test]
    fn a_small_cluster_bootstraps_over_real_sockets() {
        let Some(cluster) = spawn_or_skip(ClusterConfig {
            size: 8,
            seed: 42,
            ..ClusterConfig::default()
        }) else {
            return;
        };
        assert_eq!(cluster.peers().len(), 8);
        let converged = cluster.wait_for_convergence(Duration::from_secs(20));
        let state = cluster.measure();
        assert!(
            converged,
            "cluster did not converge over UDP: leaf missing {}, prefix missing {}",
            state.leaf_missing, state.prefix_missing
        );
        let traffic = cluster.stats.snapshot();
        assert!(traffic.datagrams_sent > 0);
        cluster.shutdown();
    }

    #[test]
    fn a_driver_cluster_bootstraps_and_reports() {
        let Some(cluster) = spawn_or_skip(ClusterConfig {
            size: 16,
            seed: 42,
            params: BootstrapParams {
                cycle_millis: 20,
                ..ClusterConfig::default().params
            },
            ..ClusterConfig::default()
        }) else {
            return;
        };
        let report = cluster.monitor(Duration::from_millis(25), Duration::from_secs(30));
        assert!(
            report.converged(),
            "driver cluster did not converge: missing leaf {:?}, missing prefix {:?}",
            report.leaf_series.final_value(),
            report.prefix_series.final_value()
        );
        assert_eq!(report.nodes, 16);
        assert!(report.convergence_millis.is_some());
        assert!(!report.leaf_series.is_empty());
        assert!(report.traffic.datagrams_sent > 0);
        assert!(report.datagrams_per_second() > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn repeated_spawn_and_teardown_is_prompt() {
        // The shutdown audit: the driver loop must exit promptly when its
        // flag drops. Generous bound: well under a second per cycle even on a
        // loaded CI runner.
        let started = Instant::now();
        for round in 0..5 {
            let Some(cluster) = spawn_or_skip(ClusterConfig {
                size: 12,
                seed: 100 + round,
                ..ClusterConfig::default()
            }) else {
                return;
            };
            cluster.shutdown();
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "spawn/teardown x5 took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn killing_peers_shows_up_in_measures_and_dead_fraction() {
        let Some(cluster) = spawn_or_skip(ClusterConfig {
            size: 12,
            seed: 11,
            params: BootstrapParams {
                cycle_millis: 20,
                ..ClusterConfig::default().params
            },
            ..ClusterConfig::default()
        }) else {
            return;
        };
        assert_eq!(cluster.dead_descriptor_fraction(), 0.0, "nobody dead yet");
        assert!(cluster.wait_for_convergence(Duration::from_secs(30)));
        let killed = cluster.kill(0.25, 5);
        assert_eq!(killed.len(), 3);
        let alive = cluster.peers().iter().filter(|h| h.is_alive()).count();
        assert_eq!(alive, 9);
        // Without aging the survivors keep the dead descriptors forever.
        assert!(
            cluster.dead_descriptor_fraction() > 0.0,
            "converged tables must reference the freshly killed peers"
        );
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn zero_sized_clusters_are_rejected() {
        let _ = Cluster::spawn(ClusterConfig {
            size: 0,
            ..ClusterConfig::default()
        });
    }
}
