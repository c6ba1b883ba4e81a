//! The datagram driver: hundreds-to-thousands of in-process peers multiplexed
//! over the caller's thread and one persistent worker per further core.
//!
//! A thread per peer spends a loopback cluster of 512+ peers' time on context
//! switches. [`NetDriver`] instead owns every peer's nonblocking socket and
//! cuts the peers into small contiguous chunks. A sweep queues every chunk by
//! value; the calling thread claims chunks from the front of the queue and
//! the workers spawned at bind time claim from the back, each into its own
//! lane of working memory, and every chunk is handed back before
//! [`NetDriver::poll_once`] returns. A thread that loses its core to another
//! process therefore holds up at most one chunk: the others sweep the rest.
//! A chunk's sweep batch-receives pending datagrams per socket into the
//! lane's reusable buffer, applies them through the clocked protocol glue
//! (`apply_datagram`/`compose_request` in [`crate::node`]), fires the active
//! thread of every peer whose Δ timer elapsed, and sends each datagram the
//! moment it is encoded into the lane's one encode buffer, so the
//! per-datagram path is allocation-light at any cluster size. Nothing moves
//! until the caller polls, and between sweeps the driver owns every peer
//! again and reads the cluster: convergence, dead descriptors, a whole-run
//! report.
//!
//! The driver draws node identifiers exactly like the simulator engines
//! (`SimRng::seed_from(seed)` then one `distinct_u64(size)` batch), so a
//! driver cluster and a cycle-engine run with the same seed and size bootstrap
//! the *same identifier population* — the property the sim-vs-net parity tests
//! assert on.

use crate::node::{
    apply_datagram, compose_request, compose_sample_exchange, effective_cycle_millis, wire_cycle,
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
use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How many datagrams one socket may deliver per sweep before the loop moves
/// on — bounds per-node latency while still draining bursts in few syscall
/// rounds.
const RECV_BATCH: usize = 64;

/// How many chunks of peers a sweep hands out per sweeping thread. Small
/// chunks let a thread that has its core take over the peers of one that
/// lost it, so a sweep waits at most for the chunk a preempted thread holds.
const CHUNKS_PER_LANE: usize = 32;

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

/// The working memory of one sweeping thread: protocol scratch (which holds
/// the encode buffer) and a receive buffer.
#[derive(Debug)]
struct Lane {
    scratch: ProtocolScratch,
    buffer: Vec<u8>,
}

impl Lane {
    fn new() -> Self {
        Lane {
            scratch: ProtocolScratch::default(),
            buffer: vec![0u8; 65_536],
        }
    }
}

/// A contiguous run of peers and its position among the driver's chunks.
type Chunk = (usize, Vec<DriverNode>);

/// The chunks of the current sweep that no thread has claimed yet, and the
/// wire cycle they are swept at.
#[derive(Debug, Default)]
struct Pending {
    now: u64,
    chunks: VecDeque<Chunk>,
}

/// What a worker hands back: a swept chunk and whether the sweep did any
/// work, or the payload of the panic that stopped it.
type Swept = thread::Result<(Chunk, bool)>;

/// A persistent sweeper: it blocks until `wake` rings, then claims chunks
/// from the back of the pending queue until none is left.
#[derive(Debug)]
struct Worker {
    wake: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

/// The poll-loop driver: the caller's thread and one worker per further
/// core claim the chunks of every sweep.
#[derive(Debug)]
pub struct NetDriver {
    /// Every peer, in identifier-assignment order, cut into contiguous
    /// chunks. All of them are home between sweeps.
    chunks: Vec<Vec<DriverNode>>,
    /// The caller's working memory.
    lane: Lane,
    pending: Arc<Mutex<Pending>>,
    swept: mpsc::Receiver<Swept>,
    workers: Vec<Worker>,
    params: BootstrapParams,
    seed: u64,
    stats: Arc<NetStats>,
    started: Instant,
    cycle_millis: u64,
}

impl NetDriver {
    /// Binds every peer's socket (nonblocking), seeds each peer's tables and
    /// sample pool with `contacts_per_peer` contacts drawn uniformly from the
    /// other peers, and readies the loop. The draws come from one stream
    /// seeded with `seed` and read positions in one reused buffer, so seeding
    /// costs the same per peer at any cluster size. No datagram flows
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
        let cores = thread::available_parallelism().map_or(1, usize::from);
        Self::bind_lanes(config.clone(), cores.min(config.size))
    }

    /// [`NetDriver::bind`] with `lanes` sweeping threads (at least one): the
    /// caller's and a worker for every further lane.
    fn bind_lanes(config: DriverConfig, lanes: usize) -> io::Result<Self> {
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
            let address = SocketAddrV4::new(Ipv4Addr::LOCALHOST, socket.local_addr()?.port());
            descriptors.push(Descriptor::new(id, address, 0));
            sockets.push(socket);
        }

        let cycle_millis = effective_cycle_millis(&config.params);
        let period = Duration::from_millis(cycle_millis);
        let started = Instant::now();
        let count = (lanes * CHUNKS_PER_LANE).min(config.size);
        let mut chunks: Vec<Vec<DriverNode>> = (0..count).map(|_| Vec::new()).collect();
        // Each peer's contacts are a draw from the positions of the other
        // peers (`other` names peer `other` below the drawing one and
        // `other + 1` from it on), one identity buffer serving every draw.
        let mut others: Vec<usize> = (0..config.size - 1).collect();
        let mut drawn = Vec::new();
        for (position, socket) in sockets.into_iter().enumerate() {
            let own = descriptors[position];
            rng.sample_positions(&mut others, config.contacts_per_peer, &mut drawn);
            let contacts = drawn
                .iter()
                .map(|&other| descriptors[other + usize::from(other >= position)]);
            let mut node = BootstrapNode::new(own, &config.params)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            node.initialize(contacts.clone());
            let mut node_rng = SimRng::seed_from(config.seed ^ (position as u64 + 1));
            // Random start phase, like §5 of the paper.
            let next_active = started + period.mul_f64(node_rng.unit_f64());
            // Contiguous, balanced chunks, none empty while `count` ≤ `size`.
            chunks[position * count / config.size].push(DriverNode {
                socket,
                handle: PeerHandle::new(node),
                rng: node_rng,
                pool: SamplePool::new(contacts),
                next_active,
                alive: true,
            });
        }

        let stats = Arc::new(NetStats::new());
        let pending = Arc::default();
        let (report, swept) = mpsc::channel();
        let workers = (1..lanes)
            .map(|_| spawn_worker(&pending, report.clone(), period, Arc::clone(&stats)))
            .collect::<io::Result<_>>()?;
        Ok(NetDriver {
            chunks,
            lane: Lane::new(),
            pending,
            swept,
            workers,
            params: config.params,
            seed: config.seed,
            stats,
            started,
            cycle_millis,
        })
    }

    /// Every peer, in identifier-assignment order.
    fn nodes(&self) -> impl Iterator<Item = &DriverNode> {
        self.chunks.iter().flatten()
    }

    /// Cloneable views of every peer, in identifier-assignment order.
    pub fn handles(&self) -> Vec<PeerHandle> {
        self.nodes().map(|node| node.handle.clone()).collect()
    }

    /// The shared traffic counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// One sweep over every alive peer, on every lane at once: each chunk
    /// batch-receives and applies pending datagrams, then fires elapsed
    /// active timers, sending each datagram as it is composed. The caller
    /// claims chunks from the front of the queue and the workers from the
    /// back, and the call returns once every chunk is home. Returns whether
    /// the sweep did any work (received or sent anything) — callers use this
    /// to idle-sleep between empty sweeps.
    ///
    /// # Panics
    ///
    /// Panics with a worker's panic if one panicked while sweeping.
    pub fn poll_once(&mut self) -> bool {
        let now = wire_cycle(self.started, self.cycle_millis);
        let period = Duration::from_millis(self.cycle_millis);
        {
            let mut pending = lock(&self.pending);
            pending.now = now;
            let chunks = self.chunks.iter_mut().map(std::mem::take);
            pending.chunks.extend(chunks.enumerate());
        }
        for worker in &self.workers {
            // A worker that is gone has reported why on `swept`.
            let _ = worker.wake.send(());
        }
        let (mut worked, mut home) = (false, 0);
        while let Some(((index, mut nodes), _)) = claim(&self.pending, true) {
            worked |= sweep(&mut nodes, &mut self.lane, now, period, &self.stats);
            self.chunks[index] = nodes;
            home += 1;
        }
        while home < self.chunks.len() {
            match self.swept.recv().expect("a driver worker panicked") {
                Ok(((index, nodes), busy)) => {
                    self.chunks[index] = nodes;
                    worked |= busy;
                    home += 1;
                }
                Err(payload) => panic::resume_unwind(payload),
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
        self.nodes()
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
            .nodes()
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
        let mut nodes: Vec<&mut DriverNode> = self.chunks.iter_mut().flatten().collect();
        let alive: Vec<usize> = (0..nodes.len())
            .filter(|&index| nodes[index].alive)
            .collect();
        let count = ((alive.len() as f64 * fraction).round() as usize).min(alive.len() - 1);
        let chosen = SimRng::seed_from(seed).sample(&alive, count);
        chosen
            .into_iter()
            .map(|index| {
                nodes[index].alive = false;
                nodes[index].handle.id()
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
            nodes: self.nodes().count(),
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

impl Drop for NetDriver {
    /// Closes every worker's wake channel and joins it; a worker that
    /// panicked has already surfaced through [`NetDriver::poll_once`].
    fn drop(&mut self) {
        for Worker { wake, thread } in self.workers.drain(..) {
            drop(wake);
            let _ = thread.join();
        }
    }
}

/// Spawns a persistent worker with its own lane. It blocks while idle,
/// reports every chunk it sweeps (or its panic) on `report`, and exits when
/// its wake channel closes.
fn spawn_worker(
    pending: &Arc<Mutex<Pending>>,
    report: mpsc::Sender<Swept>,
    period: Duration,
    stats: Arc<NetStats>,
) -> io::Result<Worker> {
    let (wake, woken) = mpsc::channel();
    let pending = Arc::clone(pending);
    let mut lane = Lane::new();
    let thread = thread::Builder::new().spawn(move || {
        for () in woken {
            while let Some(((index, mut nodes), now)) = claim(&pending, false) {
                let swept = panic::catch_unwind(AssertUnwindSafe(|| {
                    sweep(&mut nodes, &mut lane, now, period, &stats)
                }));
                let panicked = swept.is_err();
                if report
                    .send(swept.map(|worked| ((index, nodes), worked)))
                    .is_err()
                    || panicked
                {
                    return;
                }
            }
        }
    })?;
    Ok(Worker { wake, thread })
}

/// Locks the sweep's queue; it is held only to push or pop chunks.
fn lock(pending: &Mutex<Pending>) -> std::sync::MutexGuard<'_, Pending> {
    pending
        .lock()
        .expect("no thread panics while it holds the pending chunks")
}

/// Takes an unclaimed chunk of the current sweep, from the front or the back
/// of the queue, and the wire cycle it is swept at.
fn claim(pending: &Mutex<Pending>, front: bool) -> Option<(Chunk, u64)> {
    let mut pending = lock(pending);
    let chunk = if front {
        pending.chunks.pop_front()
    } else {
        pending.chunks.pop_back()
    }?;
    Some((chunk, pending.now))
}

/// One sweep over a chunk's alive peers at wire cycle `now`: drain each
/// socket's backlog, answering requests at once, then fire every elapsed
/// active timer. Returns whether it received or sent anything.
fn sweep(
    nodes: &mut [DriverNode],
    lane: &mut Lane,
    now: u64,
    period: Duration,
    stats: &NetStats,
) -> bool {
    let scratch = &mut lane.scratch;
    let mut worked = false;

    // Passive threads: drain each socket's backlog, batched.
    for node in nodes.iter_mut().filter(|node| node.alive) {
        for _ in 0..RECV_BATCH {
            let Ok((length, from)) = node.socket.recv_from(&mut lane.buffer) else {
                break;
            };
            worked = true;
            stats.record_received(length);
            // Peers bind IPv4 sockets; a datagram from anywhere else cannot
            // be answered on the wire's 6-byte addresses.
            let SocketAddr::V4(from) = from else {
                stats.record_decode_failure();
                continue;
            };
            let datagram = &lane.buffer[..length];
            let (mut state, rng, pool) = (node.handle.state(), &mut node.rng, &mut node.pool);
            match apply_datagram(&mut state, rng, pool, datagram, now, scratch) {
                Ok(Some(payload)) => send(&node.socket, payload, from, stats),
                Ok(None) => {}
                Err(_) => stats.record_decode_failure(),
            }
        }
    }

    // Active threads: every peer whose Δ timer elapsed composes one request.
    let sweep_time = Instant::now();
    for node in nodes.iter_mut() {
        if !node.alive || sweep_time < node.next_active {
            continue;
        }
        node.next_active += period;
        // A stalled loop (debugger, loaded machine) skips missed firings
        // instead of bursting to catch up.
        while node.next_active <= sweep_time {
            node.next_active += period;
        }
        let (mut state, rng, pool) = (node.handle.state(), &mut node.rng, &mut node.pool);
        if let Some((target, payload)) = compose_request(&mut state, rng, pool, now, scratch) {
            send(&node.socket, payload, target, stats);
            worked = true;
        }
        if let Some((target, payload)) = compose_sample_exchange(&state, rng, pool, now, scratch) {
            send(&node.socket, payload, target, stats);
            worked = true;
        }
    }
    worked
}

/// Sends one datagram and counts it.
fn send(socket: &UdpSocket, payload: &[u8], target: SocketAddrV4, stats: &NetStats) {
    match socket.send_to(payload, target) {
        Ok(sent) => stats.record_sent(sent),
        Err(_) => stats.record_send_failure(),
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

    fn config(size: usize, params: BootstrapParams, seed: u64) -> DriverConfig {
        DriverConfig {
            size,
            params,
            contacts_per_peer: 4,
            seed,
        }
    }

    fn bind_or_skip(size: usize, params: BootstrapParams, seed: u64) -> Option<NetDriver> {
        lanes_or_skip(size, params, seed, None)
    }

    /// Binds with `lanes` lanes, or as many as [`NetDriver::bind`] picks,
    /// so the worker path runs on a single-core host too.
    fn lanes_or_skip(
        size: usize,
        params: BootstrapParams,
        seed: u64,
        lanes: Option<usize>,
    ) -> Option<NetDriver> {
        let bound = match lanes {
            Some(lanes) => NetDriver::bind_lanes(config(size, params, seed), lanes),
            None => NetDriver::bind(config(size, params, seed)),
        };
        match bound {
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
    fn a_polled_driver_cluster_converges() {
        let Some(mut driver) = bind_or_skip(12, params(), 9) else {
            return;
        };
        assert_eq!(driver.nodes().count(), 12);

        // Poll from this thread; on a multi-core host the driver's workers
        // sweep some of the chunks, so the interleaving is not deterministic.
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
    fn a_cluster_on_three_lanes_converges() {
        let Some(mut driver) = lanes_or_skip(12, params(), 9, Some(3)) else {
            return;
        };
        assert_eq!(driver.workers.len(), 2);
        let converged = driver.poll_until(Duration::from_secs(30), |d| d.measure().is_perfect());
        assert!(converged, "a cluster on three lanes did not converge");
        assert_eq!(driver.stats().snapshot().decode_failures, 0);
    }

    #[test]
    fn shared_sweeps_keep_handle_order_and_every_peer() {
        let Some(mut driver) = lanes_or_skip(100, params(), 3, Some(2)) else {
            return;
        };
        let sizes =
            |driver: &NetDriver| -> Vec<usize> { driver.chunks.iter().map(Vec::len).collect() };
        let chunked = sizes(&driver);
        assert_eq!(chunked.len(), 2 * CHUNKS_PER_LANE);
        assert!(
            chunked.iter().all(|&size| size == 1 || size == 2),
            "balanced chunks"
        );
        let ids: Vec<NodeId> = SimRng::seed_from(3)
            .distinct_u64(100)
            .into_iter()
            .map(NodeId::new)
            .collect();
        let order = |driver: &NetDriver| -> Vec<NodeId> {
            driver.handles().iter().map(PeerHandle::id).collect()
        };
        assert_eq!(order(&driver), ids);
        let before = driver.handles();
        let everyone_fired = driver.poll_until(Duration::from_secs(10), |d| {
            d.handles()
                .iter()
                .all(|handle| handle.exchanges_initiated() > 0)
        });
        assert!(everyone_fired, "every chunk is swept and handed back");
        assert_eq!(order(&driver), ids);
        assert_eq!(sizes(&driver), chunked);
        for (handle, earlier) in driver.handles().iter().zip(&before) {
            let (now, then) = (handle.state_snapshot(), earlier.state_snapshot());
            assert_eq!(now.own_descriptor().id(), handle.id());
            assert_eq!(now.leaf_set().to_vec(), then.leaf_set().to_vec());
            assert_eq!(now.exchanges_initiated(), then.exchanges_initiated());
        }
        assert!(driver.nodes().all(|node| node.alive));
    }

    #[test]
    fn bind_draws_the_same_contacts_for_a_seed() {
        // Every peer's start-up contacts, in draw order, for one 64-peer
        // seed: a faster draw must consume the same stream.
        let Some(driver) = lanes_or_skip(64, params(), 5, Some(1)) else {
            return;
        };
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for node in driver.nodes() {
            let contacts = node.pool.entries();
            assert_eq!(contacts.len(), 4);
            assert!(contacts
                .iter()
                .all(|contact| contact.id() != node.handle.id()));
            for contact in contacts {
                digest = (digest ^ contact.id().raw()).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(digest, 15_398_636_340_076_873_563);
    }

    #[test]
    fn one_lane_spawns_no_worker() {
        let Some(driver) = lanes_or_skip(4, params(), 1, Some(1)) else {
            return;
        };
        assert!(driver.workers.is_empty());
        // `bind` never runs more lanes, nor cuts more chunks, than there are
        // peers.
        let Some(single) = bind_or_skip(1, params(), 1) else {
            return;
        };
        assert_eq!((single.chunks.len(), single.workers.len()), (1, 0));
    }

    #[test]
    fn a_peer_killed_between_sweeps_stops_sending() {
        let Some(mut driver) = lanes_or_skip(12, params(), 11, Some(3)) else {
            return;
        };
        assert!(driver.poll_until(Duration::from_secs(30), |d| d.measure().is_perfect()));
        let killed = driver.kill(0.25, 5);
        // The workers claim from the back of the queue, so they sweep the
        // last peers unless the caller's thread gets there first.
        let handles = driver.handles();
        let victim = handles
            .iter()
            .rev()
            .find(|handle| killed.contains(&handle.id()))
            .expect("seed 5 kills a peer")
            .clone();
        let survivor = handles
            .iter()
            .rev()
            .find(|handle| !killed.contains(&handle.id()))
            .expect("some peer survives")
            .clone();
        let (silenced, alive) = (victim.exchanges_initiated(), survivor.exchanges_initiated());
        let deadline = Instant::now() + Duration::from_millis(300);
        driver.poll_until(Duration::from_secs(10), |_| Instant::now() >= deadline);
        assert_eq!(
            victim.exchanges_initiated(),
            silenced,
            "a killed peer fires no more"
        );
        assert!(
            survivor.exchanges_initiated() > alive,
            "the others still fire"
        );
    }

    /// Panics while holding `victim`'s lock, which poisons it: whichever
    /// thread sweeps that peer next panics at its next firing.
    fn poison(victim: PeerHandle) {
        let poisoner = thread::spawn(move || {
            let _state = victim.state();
            panic!("poisoning a peer's state");
        });
        assert!(poisoner.join().is_err());
    }

    #[test]
    fn a_worker_hands_back_its_panic() {
        let mut driver = NetDriver::bind_lanes(config(6, params(), 2), 2)
            .expect("the worker path needs loopback UDP");
        poison(driver.handles().pop().expect("six peers"));
        // Only the worker is woken, and the peer's first firing is due
        // within one period.
        thread::sleep(Duration::from_millis(2 * params().cycle_millis));
        let last = std::mem::take(&mut driver.chunks[5]);
        lock(&driver.pending).chunks.push_back((5, last));
        driver.workers[0].wake.send(()).expect("the worker is idle");
        let swept = driver.swept.recv().expect("the worker reports");
        assert!(swept.is_err(), "the worker hands back the panic's payload");
    }

    #[test]
    #[should_panic(expected = "poisons it")]
    fn a_panic_while_sweeping_surfaces_from_poll_once() {
        let mut driver = NetDriver::bind_lanes(config(6, params(), 2), 2)
            .expect("the worker path needs loopback UDP");
        poison(driver.handles().pop().expect("six peers"));
        driver.poll_until(Duration::from_secs(10), |_| false);
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
