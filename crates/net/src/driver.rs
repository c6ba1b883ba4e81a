//! The single-loop datagram driver: hundreds-to-thousands of in-process peers
//! multiplexed over one thread.
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
//! cluster size.
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
use crate::report::NetStats;
use bss_core::node::BootstrapNode;
use bss_util::config::BootstrapParams;
use bss_util::descriptor::Descriptor;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use bytes::Bytes;
use parking_lot::Mutex;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many datagrams one socket may deliver per sweep before the loop moves
/// on — bounds per-node latency while still draining bursts in few syscall
/// rounds.
const RECV_BATCH: usize = 64;

/// How long the loop sleeps when a sweep found no work at all.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

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
/// (seeded from the static contact list) and active-thread deadline.
#[derive(Debug)]
struct DriverNode {
    socket: UdpSocket,
    handle: PeerHandle,
    rng: SimRng,
    pool: SamplePool,
    next_active: Instant,
}

/// The single-thread poll-loop driver.
#[derive(Debug)]
pub struct NetDriver {
    nodes: Vec<DriverNode>,
    stats: Arc<NetStats>,
    started: Instant,
    period: Duration,
    cycle_millis: u64,
    scratch: ProtocolScratch,
    buffer: Vec<u8>,
    outbox: Vec<(usize, SocketAddr, Bytes)>,
}

impl NetDriver {
    /// Binds every peer's socket (nonblocking), seeds every contact list from
    /// the full address population, and readies the loop. No datagram flows
    /// until [`NetDriver::poll_once`] or `NetDriver::run` is called.
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
            let handle = PeerHandle::new(own.id(), own.address(), Arc::new(Mutex::new(node)));
            let mut node_rng = SimRng::seed_from(config.seed ^ (position as u64 + 1));
            // Random start phase, like §5 of the paper.
            let next_active = started + period.mul_f64(node_rng.unit_f64());
            nodes.push(DriverNode {
                socket,
                handle,
                rng: node_rng,
                pool: SamplePool::new(contacts),
                next_active,
            });
        }

        Ok(NetDriver {
            nodes,
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
        } = self;
        let now = wire_cycle(*started, *cycle_millis);
        let mut worked = false;

        // Passive threads: drain each socket's backlog, batched.
        for (index, node) in nodes.iter_mut().enumerate() {
            if !node.handle.is_alive() {
                continue;
            }
            for _ in 0..RECV_BATCH {
                match node.socket.recv_from(buffer.as_mut_slice()) {
                    Ok((length, from)) => {
                        worked = true;
                        stats.record_received(length);
                        match crate::codec::decode(&buffer[..length]) {
                            Ok(message) => {
                                let answer = {
                                    let mut state = node.handle.state().lock();
                                    apply_message(
                                        &mut state,
                                        &mut node.rng,
                                        &mut node.pool,
                                        message,
                                        now,
                                        scratch,
                                    )
                                };
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
            if !node.handle.is_alive() || sweep_time < node.next_active {
                continue;
            }
            node.next_active += *period;
            // A stalled loop (debugger, loaded machine) skips missed firings
            // instead of bursting to catch up.
            while node.next_active <= sweep_time {
                node.next_active += *period;
            }
            let (request, sampling) = {
                let mut state = node.handle.state().lock();
                let request =
                    compose_request(&mut state, &mut node.rng, &mut node.pool, now, scratch);
                let sampling = compose_sample_exchange(&state, &mut node.rng, &mut node.pool, now);
                (request, sampling)
            };
            if let Some((target, payload)) = request {
                node.handle.record_exchange();
                outbox.push((index, target, payload));
            }
            if let Some((target, payload)) = sampling {
                outbox.push((index, target, payload));
            }
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

    /// Runs the poll loop until `running` turns false, idle-sleeping briefly
    /// after sweeps that found no work. Checked every sweep, so a stop request
    /// is honoured within about a millisecond — no timeout stragglers.
    pub(crate) fn run(mut self, running: Arc<AtomicBool>) {
        while running.load(Ordering::Relaxed) {
            if !self.poll_once() {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_core::convergence::{ConvergenceOracle, NetworkConvergence};

    fn params() -> BootstrapParams {
        BootstrapParams {
            leaf_set_size: 4,
            random_samples: 8,
            cycle_millis: 20,
            ..BootstrapParams::paper_default()
        }
    }

    fn measure(driver: &NetDriver) -> NetworkConvergence {
        let handles = driver.handles();
        let params = *handles[0].state_snapshot().params();
        let oracle = ConvergenceOracle::new(handles.iter().map(PeerHandle::id), &params);
        let mut aggregate = NetworkConvergence::default();
        for handle in &handles {
            aggregate.accumulate(oracle.measure_node(&handle.state_snapshot()));
        }
        aggregate
    }

    #[test]
    fn a_single_threaded_driver_cluster_converges() {
        let mut driver = match NetDriver::bind(DriverConfig {
            size: 12,
            params: params(),
            contacts_per_peer: 4,
            seed: 9,
        }) {
            Ok(driver) => driver,
            // Environments without loopback UDP cannot run this test.
            Err(error) => {
                eprintln!("skipping driver test: {error}");
                return;
            }
        };
        assert_eq!(driver.nodes.len(), 12);

        // Drive the loop on this very thread: fully deterministic scheduling.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut converged = false;
        while Instant::now() < deadline {
            if !driver.poll_once() {
                std::thread::sleep(Duration::from_micros(200));
            }
            if measure(&driver).is_perfect() {
                converged = true;
                break;
            }
        }
        let state = measure(&driver);
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
