//! The single-loop datagram driver: hundreds-to-thousands of in-process peers
//! multiplexed over the caller's thread.
//!
//! A thread per peer spends a loopback cluster of 512+ peers' time on context
//! switches. [`NetDriver`] instead owns every peer's nonblocking socket and
//! runs the whole cluster — or a single peer — in one poll loop: each sweep
//! batch-receives pending datagrams per socket into one reusable buffer,
//! applies them through the clocked protocol glue
//! (`apply_message`/`compose_request` in [`crate::node`]), fires the
//! active thread of every peer whose Δ timer elapsed, and flushes all queued
//! sends coalesced at the end of the sweep. One shared scratch block serves
//! every node, so the per-datagram path is allocation-light regardless of
//! cluster size. Nothing moves until the caller polls, and between sweeps it
//! reads the cluster: convergence, dead descriptors, a whole-run report.
//!
//! The driver draws node identifiers exactly like the simulator engines
//! (`SimRng::seed_from(seed)` then one `distinct_u64(size)` batch), so a
//! driver cluster and a cycle-engine run with the same seed and size bootstrap
//! the *same identifier population* — the property the sim-vs-net parity tests
//! assert on.

use crate::node::{
    apply_message, compose_request, compose_sample_exchange, effective_cycle_millis, wire_cycle,
    PeerHandle, ProtocolScratch, SamplePool,
};
use crate::report::{NetReport, NetStats};
use bss_core::convergence::{ConvergenceOracle, NetworkConvergence};
use bss_core::node::BootstrapNode;
use bss_util::config::BootstrapParams;
use bss_util::descriptor::Descriptor;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use bss_util::stats::Series;
use std::collections::HashSet;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many datagrams one socket may deliver per sweep before the loop moves
/// on — bounds per-node latency while still draining bursts in few syscall
/// rounds.
const RECV_BATCH: usize = 64;

/// How long the loop sleeps when a sweep found no work at all.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// How long [`NetDriver::poll_until`] polls between two checks of its
/// condition.
const CHECK_EVERY: Duration = Duration::from_millis(25);

/// Configuration of a driver-run cluster.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of in-process peers.
    pub size: usize,
    /// Bootstrapping-service parameters. `cycle_millis` is the active period Δ.
    pub params: BootstrapParams,
    /// How many random contacts every peer receives at start-up.
    pub contacts_per_peer: usize,
    /// Seed for identifier assignment, contact sampling and per-node RNGs.
    pub seed: u64,
}

/// One peer inside the driver: its socket, shared handle, RNG, sampling pool
/// (seeded from the static contact list), active-thread deadline, and whether
/// it still runs.
#[derive(Debug)]
struct DriverNode {
    socket: UdpSocket,
    handle: PeerHandle,
    rng: SimRng,
    pool: SamplePool,
    next_active: Instant,
    alive: bool,
}

/// The single-thread poll-loop driver.
#[derive(Debug)]
pub struct NetDriver {
    nodes: Vec<DriverNode>,
    params: BootstrapParams,
    seed: u64,
    stats: Arc<NetStats>,
    started: Instant,
    period: Duration,
    cycle_millis: u64,
    scratch: ProtocolScratch,
    buffer: Vec<u8>,
    outbox: Vec<(usize, SocketAddr, Vec<u8>)>,
}

impl NetDriver {
    /// Binds every peer's socket (nonblocking), seeds every contact list from
    /// the full address population, and readies the loop. No datagram flows
    /// until the caller polls: [`NetDriver::poll_once`],
    /// [`NetDriver::poll_until`] or [`NetDriver::monitor`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error raised while binding or configuring sockets, or
    /// `InvalidInput` when the parameters are invalid.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn bind(config: DriverConfig) -> io::Result<Self> {
        assert!(config.size > 0, "a cluster needs at least one peer");
        config
            .params
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // Identifier assignment must match the simulator engines draw-for-draw
        // (seed → one distinct_u64 batch) for sim-vs-net parity.
        let mut rng = SimRng::seed_from(config.seed);
        let ids: Vec<NodeId> = rng
            .distinct_u64(config.size)
            .into_iter()
            .map(NodeId::new)
            .collect();

        let mut sockets = Vec::with_capacity(config.size);
        let mut descriptors = Vec::with_capacity(config.size);
        for &id in &ids {
            let socket = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))?;
            socket.set_nonblocking(true)?;
            let address = socket.local_addr()?;
            descriptors.push(Descriptor::new(id, address, 0));
            sockets.push(socket);
        }

        let cycle_millis = effective_cycle_millis(&config.params);
        let period = Duration::from_millis(cycle_millis);
        let started = Instant::now();
        let mut nodes = Vec::with_capacity(config.size);
        for (position, socket) in sockets.into_iter().enumerate() {
            let own = descriptors[position];
            let others: Vec<Descriptor<SocketAddr>> = descriptors
                .iter()
                .enumerate()
                .filter(|&(index, _)| index != position)
                .map(|(_, &descriptor)| descriptor)
                .collect();
            let contacts = rng.sample(&others, config.contacts_per_peer.min(others.len()));
            let mut node = BootstrapNode::new(own, &config.params)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            node.initialize(contacts.iter().copied());
            let mut node_rng = SimRng::seed_from(config.seed ^ (position as u64 + 1));
            // Random start phase, like §5 of the paper.
            let next_active = started + period.mul_f64(node_rng.unit_f64());
            nodes.push(DriverNode {
                socket,
                handle: PeerHandle::new(node),
                rng: node_rng,
                pool: SamplePool::new(contacts),
                next_active,
                alive: true,
            });
        }

        Ok(NetDriver {
            nodes,
            params: config.params,
            seed: config.seed,
            stats: Arc::new(NetStats::new()),
            started,
            period,
            cycle_millis,
            scratch: ProtocolScratch::default(),
            buffer: vec![0u8; 65_536],
            outbox: Vec::new(),
        })
    }

    /// Cloneable views of every peer, in identifier-assignment order.
    pub fn handles(&self) -> Vec<PeerHandle> {
        self.nodes.iter().map(|node| node.handle.clone()).collect()
    }

    /// The shared traffic counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// One sweep over every alive peer: batch-receive and apply pending
    /// datagrams, fire elapsed active timers, then flush all queued sends.
    /// Returns whether the sweep did any work (received or sent anything) —
    /// callers use this to idle-sleep between empty sweeps.
    pub fn poll_once(&mut self) -> bool {
        let NetDriver {
            nodes,
            stats,
            started,
            period,
            cycle_millis,
            scratch,
            buffer,
            outbox,
            ..
        } = self;
        let now = wire_cycle(*started, *cycle_millis);
        let mut worked = false;

        // Passive threads: drain each socket's backlog, batched.
        for (index, node) in nodes.iter_mut().enumerate() {
            if !node.alive {
                continue;
            }
            for _ in 0..RECV_BATCH {
                match node.socket.recv_from(buffer.as_mut_slice()) {
                    Ok((length, from)) => {
                        worked = true;
                        stats.record_received(length);
                        match crate::codec::decode(&buffer[..length]) {
                            Ok(message) => {
                                let answer = apply_message(
                                    &mut node.handle.state(),
                                    &mut node.rng,
                                    &mut node.pool,
                                    message,
                                    now,
                                    scratch,
                                );
                                if let Some(payload) = answer {
                                    outbox.push((index, from, payload));
                                }
                            }
                            Err(_) => stats.record_decode_failure(),
                        }
                    }
                    Err(_) => break,
                }
            }
        }

        // Active threads: every peer whose Δ timer elapsed composes one request.
        let sweep_time = Instant::now();
        for (index, node) in nodes.iter_mut().enumerate() {
            if !node.alive || sweep_time < node.next_active {
                continue;
            }
            node.next_active += *period;
            // A stalled loop (debugger, loaded machine) skips missed firings
            // instead of bursting to catch up.
            while node.next_active <= sweep_time {
                node.next_active += *period;
            }
            let mut state = node.handle.state();
            let request = compose_request(&mut state, &mut node.rng, &mut node.pool, now, scratch);
            let sampling = compose_sample_exchange(&state, &mut node.rng, &mut node.pool, now);
            outbox.extend(
                request
                    .into_iter()
                    .chain(sampling)
                    .map(|(target, payload)| (index, target, payload)),
            );
        }

        // Coalesced flush: all of this sweep's sends in one pass.
        for (index, target, payload) in outbox.drain(..) {
            worked = true;
            match nodes[index].socket.send_to(&payload, target) {
                Ok(sent) => stats.record_sent(sent),
                Err(_) => stats.record_send_failure(),
            }
        }
        worked
    }

    /// Polls for `span`, idle-sleeping briefly after sweeps that found no
    /// work.
    fn poll_for(&mut self, span: Duration) {
        let until = Instant::now() + span;
        while Instant::now() < until {
            if !self.poll_once() {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }

    /// Polls on the caller's thread until `done` holds or `timeout` expires,
    /// checking `done` every 25 ms. Returns whether `done` held.
    pub fn poll_until(&mut self, timeout: Duration, done: impl Fn(&NetDriver) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if done(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.poll_for(CHECK_EVERY);
        }
    }

    /// The peers still running.
    fn alive(&self) -> impl Iterator<Item = &PeerHandle> {
        self.nodes
            .iter()
            .filter(|node| node.alive)
            .map(|node| &node.handle)
    }

    /// Measures the alive peers against the convergence oracle right now.
    /// Killed peers are neither measured nor expected in anyone's tables.
    pub fn measure(&self) -> NetworkConvergence {
        let oracle = ConvergenceOracle::new(self.alive().map(PeerHandle::id), &self.params);
        let mut aggregate = NetworkConvergence::default();
        for handle in self.alive() {
            aggregate.accumulate(oracle.measure_node(&handle.state()));
        }
        aggregate
    }

    /// The fraction of descriptors stored by alive peers (leaf sets and prefix
    /// tables) that name killed peers — the wire-side recovery metric: with
    /// descriptor aging on, it must fall back to 0 after a kill because dead
    /// peers stop heartbeating and age out of every table.
    pub fn dead_descriptor_fraction(&self) -> f64 {
        let dead: HashSet<NodeId> = self
            .nodes
            .iter()
            .filter(|node| !node.alive)
            .map(|node| node.handle.id())
            .collect();
        if dead.is_empty() {
            return 0.0;
        }
        let (mut total, mut stale) = (0u64, 0u64);
        for handle in self.alive() {
            let state = handle.state();
            for descriptor in state.leaf_set().iter().chain(state.prefix_table().iter()) {
                total += 1;
                stale += u64::from(dead.contains(&descriptor.id()));
            }
        }
        if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        }
    }

    /// Kills `fraction` of the alive peers (chosen by `seed`), leaving at
    /// least one survivor. Killed peers stop sending and answering at once —
    /// the loop skips them — but their descriptors keep circulating until
    /// aging evicts them. Returns the killed identifiers.
    pub fn kill(&mut self, fraction: f64, seed: u64) -> Vec<NodeId> {
        let alive: Vec<usize> = (0..self.nodes.len())
            .filter(|&index| self.nodes[index].alive)
            .collect();
        let count = ((alive.len() as f64 * fraction).round() as usize).min(alive.len() - 1);
        let chosen = SimRng::seed_from(seed).sample(&alive, count);
        chosen
            .into_iter()
            .map(|index| {
                self.nodes[index].alive = false;
                self.nodes[index].handle.id()
            })
            .collect()
    }

    /// Polls until the cluster converges or `timeout` expires, sampling the
    /// convergence series every `poll_every`, and renders the run as a
    /// RunReport-shaped [`NetReport`]. Elapsed times are measured from
    /// [`NetDriver::bind`].
    pub fn monitor(&mut self, poll_every: Duration, timeout: Duration) -> NetReport {
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
            if state.is_perfect() {
                convergence_millis = Some(elapsed);
                break;
            }
            if Instant::now() >= deadline {
                break;
            }
            self.poll_for(poll_every);
        }
        NetReport {
            nodes: self.nodes.len(),
            seed: self.seed,
            convergence_millis,
            elapsed_millis: self.started.elapsed().as_millis() as u64,
            traffic: self.stats.snapshot(),
            leaf_series,
            prefix_series,
            dead_series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BootstrapParams {
        BootstrapParams {
            leaf_set_size: 4,
            random_samples: 8,
            cycle_millis: 20,
            ..BootstrapParams::paper_default()
        }
    }

    fn bind_or_skip(size: usize, params: BootstrapParams, seed: u64) -> Option<NetDriver> {
        match NetDriver::bind(DriverConfig {
            size,
            params,
            contacts_per_peer: 4,
            seed,
        }) {
            Ok(driver) => Some(driver),
            // Environments without loopback UDP (heavily sandboxed CI) cannot
            // run these tests; binding failure is the only acceptable excuse.
            Err(error) => {
                eprintln!("skipping driver test: {error}");
                None
            }
        }
    }

    #[test]
    fn a_single_threaded_driver_cluster_converges() {
        let Some(mut driver) = bind_or_skip(12, params(), 9) else {
            return;
        };
        assert_eq!(driver.nodes.len(), 12);

        // Drive the loop on this very thread: fully deterministic scheduling.
        let converged = driver.poll_until(Duration::from_secs(30), |d| d.measure().is_perfect());
        let state = driver.measure();
        assert!(
            converged,
            "driver cluster did not converge: leaf missing {}, prefix missing {}",
            state.leaf_missing, state.prefix_missing
        );
        let traffic = driver.stats().snapshot();
        assert!(traffic.datagrams_sent > 0);
        assert!(traffic.datagrams_received > 0);
        assert_eq!(traffic.decode_failures, 0);
        assert!(driver.handles().iter().any(|h| h.exchanges_initiated() > 0));
    }

    #[test]
    fn a_small_cluster_bootstraps_over_real_sockets() {
        let paced = BootstrapParams {
            leaf_set_size: 6,
            cycle_millis: 50,
            ..params()
        };
        let Some(mut driver) = bind_or_skip(8, paced, 42) else {
            return;
        };
        assert_eq!(driver.handles().len(), 8);
        let converged = driver.poll_until(Duration::from_secs(20), |d| d.measure().is_perfect());
        let state = driver.measure();
        assert!(
            converged,
            "cluster did not converge over UDP: leaf missing {}, prefix missing {}",
            state.leaf_missing, state.prefix_missing
        );
        assert!(driver.stats().snapshot().datagrams_sent > 0);
    }

    #[test]
    fn a_driver_cluster_bootstraps_and_reports() {
        let wider = BootstrapParams {
            leaf_set_size: 6,
            ..params()
        };
        let Some(mut driver) = bind_or_skip(16, wider, 42) else {
            return;
        };
        let report = driver.monitor(Duration::from_millis(25), Duration::from_secs(30));
        assert!(
            report.converged(),
            "driver cluster did not converge: missing leaf {:?}, missing prefix {:?}",
            report.leaf_series.final_value(),
            report.prefix_series.final_value()
        );
        assert_eq!(report.nodes, 16);
        assert!(!report.leaf_series.is_empty());
        assert!(report.traffic.datagrams_sent > 0);
        assert!(report.datagrams_per_second() > 0.0);
    }

    #[test]
    fn killing_peers_shows_up_in_measures_and_dead_fraction() {
        let Some(mut driver) = bind_or_skip(12, params(), 11) else {
            return;
        };
        assert_eq!(driver.dead_descriptor_fraction(), 0.0, "nobody dead yet");
        assert!(driver.poll_until(Duration::from_secs(30), |d| d.measure().is_perfect()));
        let killed = driver.kill(0.25, 5);
        assert_eq!(killed.len(), 3);
        assert_eq!(driver.alive().count(), 9);
        // Without aging the survivors keep the dead descriptors forever.
        assert!(
            driver.dead_descriptor_fraction() > 0.0,
            "converged tables must reference the freshly killed peers"
        );
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn zero_sized_drivers_are_rejected() {
        let _ = NetDriver::bind(DriverConfig {
            size: 0,
            params: params(),
            contacts_per_peer: 4,
            seed: 1,
        });
    }
}
