//! The cycle-driven simulation engine.
//!
//! This is the execution model under which all of the paper's results were
//! produced (PeerSim's cycle-driven mode). Time advances in discrete cycles; in
//! every cycle each alive node executes its protocol step exactly once, and the
//! per-cycle execution order is re-randomised, which models the nodes' random start
//! phases within the interval Δ (§5: "We start the bootstrapping protocol at each
//! node at a different random time within an interval of length Δ").

use crate::churn::Churn;
use crate::network::{Network, NodeIndex};
use crate::pool::WorkerPool;
use crate::transport::Transport;
use bss_util::rng::SimRng;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Mutable state shared by the engine and the protocol during a run: the node
/// registry, the random number generator and the transport.
#[derive(Debug)]
pub struct EngineContext {
    /// The global node registry.
    pub network: Network,
    /// The deterministic random number generator driving every stochastic choice.
    pub rng: SimRng,
    /// The message delivery policy.
    pub transport: Transport,
}

impl EngineContext {
    /// Creates a context with a [reliable](Transport::reliable) transport.
    pub fn new(network: Network, rng: SimRng) -> Self {
        EngineContext {
            network,
            rng,
            transport: Transport::reliable(),
        }
    }

    /// Asks the transport whether a message from `from` to `to` is delivered.
    pub fn deliver(&mut self, from: NodeIndex, to: NodeIndex) -> bool {
        self.transport.should_deliver(from, to, &mut self.rng)
    }
}

/// A protocol that can be driven by the [`CycleEngine`].
///
/// Only [`execute_node`](CycleProtocol::execute_node) is mandatory; the
/// membership hooks have empty default implementations.
pub trait CycleProtocol {
    /// Called once per alive node per cycle, in a random order.
    fn execute_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext);

    /// Called when churn adds a node to the network.
    fn node_joined(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}

    /// Called when churn removes a node from the network.
    fn node_departed(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}

    /// Called when a scenario orders an alive node to re-initialise its
    /// protocol state from the seed set (the `ReBootstrap` recovery event).
    /// Membership is unchanged; the default does nothing.
    fn node_rebootstrapped(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}

    /// Called when a scenario converts an alive node into a Byzantine
    /// adversary (the `ByzantineConvert` event). Membership is unchanged;
    /// protocols that model adversaries mark the node in their
    /// [`AdversaryModel`](crate::adversary::AdversaryModel). The default does
    /// nothing (honest protocols simply ignore conversions).
    fn node_converted(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}
}

/// What [`ParallelCycleProtocol::plan_node`] decided for one node.
#[derive(Debug)]
pub enum NodePlan<P> {
    /// Nothing to execute for this node this cycle (all effects, if any,
    /// already happened during planning).
    Idle,
    /// Deferred work. `peer` names the *other* node whose state the work will
    /// read or write, if any; the planned node itself is always involved.
    Work {
        /// The second node touched by the work (`None` when the work only
        /// involves the planned node's own state).
        peer: Option<NodeIndex>,
        /// The protocol-defined description of the deferred work.
        plan: P,
    },
}

/// One entry of a wave handed to [`ParallelCycleProtocol::execute_wave`], in
/// planning order.
#[derive(Debug)]
pub struct PlannedWork<P> {
    /// The node the plan was made for.
    pub node: NodeIndex,
    /// The protocol-defined description of the deferred work.
    pub plan: P,
    /// `false`: this item's node set is disjoint from every other
    /// non-deferred item in the wave — it may execute concurrently with them.
    /// `true`: it conflicts with an earlier item and must execute after all
    /// non-deferred items, in list order relative to other deferred items.
    pub deferred: bool,
}

/// A [`CycleProtocol`] whose per-node work can be split into a sequential
/// *planning* phase and a parallelisable *execution* phase.
///
/// The contract that makes [`CycleEngine::run_parallel_with_observer`]
/// bit-for-bit equivalent to the sequential engine at any thread count:
///
/// * [`plan_node`](ParallelCycleProtocol::plan_node) performs **all** RNG
///   draws and all reads of mutable cross-node state that the sequential
///   `execute_node` would perform before its heavy computation, in the same
///   order. The engine calls it sequentially, in the cycle's shuffled order.
/// * The deferred work described by the returned plan reads and writes only
///   the state of the planned node and of the reported `peer`, and consumes
///   no RNG.
/// * [`execute_wave`](ParallelCycleProtocol::execute_wave) runs the wave's
///   work — concurrently for non-deferred items — and returns one outcome per
///   item in list order.
/// * [`commit_outcome`](ParallelCycleProtocol::commit_outcome) applies an
///   outcome's order-sensitive side effects (global counters, dirty lists);
///   the engine replays outcomes strictly in planning order.
pub trait ParallelCycleProtocol: CycleProtocol {
    /// The deferred-work description produced by planning one node.
    type Plan: Send;
    /// The result of executing one plan, fed back to
    /// [`commit_outcome`](ParallelCycleProtocol::commit_outcome).
    type Outcome: Send;

    /// Plans one node's cycle action, consuming the RNG stream exactly as the
    /// sequential `execute_node` would.
    fn plan_node(
        &mut self,
        node: NodeIndex,
        cycle: u64,
        ctx: &mut EngineContext,
    ) -> NodePlan<Self::Plan>;

    /// Executes a wave of plans, appending one outcome per item (in item
    /// order) to `outcomes`. Non-deferred items touch pairwise-disjoint node
    /// sets and may run on the persistent worker `pool`; deferred items run
    /// after all non-deferred ones, in order.
    fn execute_wave(
        &mut self,
        wave: &mut Vec<PlannedWork<Self::Plan>>,
        pool: &mut WorkerPool,
        outcomes: &mut Vec<Self::Outcome>,
    );

    /// Applies one outcome's side effects. Called in planning order.
    fn commit_outcome(&mut self, outcome: Self::Outcome, ctx: &mut EngineContext);
}

/// Accumulated wall time per engine phase, enabled with
/// [`CycleEngine::enable_profiling`] and read back with
/// [`CycleEngine::phase_profile`].
///
/// The four phases partition a cycle: `plan` covers the sequential scan
/// (churn, RNG draws and wave scheduling), `execute` the deferred per-node
/// computation (the part the worker pool parallelises),
/// `commit` the in-order outcome replay, and `measure` the observer callback
/// (convergence oracles, metric emission). On the sequential engine the whole
/// per-node step lands in `execute`, scheduling overhead in `plan`, and
/// `commit` stays empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Sequential planning: churn, RNG and wave scheduling.
    pub plan: Duration,
    /// Deferred per-node computation (parallelised across the worker pool).
    pub execute: Duration,
    /// In-planning-order outcome replay.
    pub commit: Duration,
    /// Observer callbacks (oracle measurement, metric emission).
    pub measure: Duration,
    /// Number of cycles the durations above accumulate over.
    pub cycles: u64,
}

impl PhaseProfile {
    /// Total profiled wall time across all four phases.
    pub fn total(&self) -> Duration {
        self.plan + self.execute + self.commit + self.measure
    }
}

/// The cycle-driven engine.
///
/// # Example
///
/// ```rust
/// use bss_sim::engine::cycle::{CycleEngine, CycleProtocol, EngineContext};
/// use bss_sim::network::{Network, NodeIndex};
/// use bss_util::rng::SimRng;
/// use std::ops::ControlFlow;
///
/// struct Nothing;
/// impl CycleProtocol for Nothing {
///     fn execute_node(&mut self, _n: NodeIndex, _c: u64, _ctx: &mut EngineContext) {}
/// }
///
/// let mut rng = SimRng::seed_from(0);
/// let network = Network::with_random_ids(8, &mut rng);
/// let mut engine = CycleEngine::new(network, rng);
/// let mut protocol = Nothing;
/// // Stop early from the observer after three cycles.
/// let completed = engine.run_with_observer(&mut protocol, 100, |_p, _ctx, cycle| {
///     if cycle >= 2 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
/// });
/// assert_eq!(completed, 3);
/// ```
#[derive(Debug)]
pub struct CycleEngine {
    context: EngineContext,
    churn: Churn,
    current_cycle: u64,
    /// Reusable per-cycle execution-order buffer; avoids one O(n) allocation
    /// per cycle on the hot path.
    order_scratch: Vec<NodeIndex>,
    /// Persistent worker pool for the parallel engine; created lazily on the
    /// first parallel run and reused (workers stay alive) across runs.
    pool: Option<WorkerPool>,
    /// Per-phase wall-time accumulator; `None` until profiling is enabled.
    profiler: Option<PhaseProfile>,
}

impl CycleEngine {
    /// Creates an engine over `network` with a reliable transport and no churn.
    pub fn new(network: Network, rng: SimRng) -> Self {
        CycleEngine {
            context: EngineContext::new(network, rng),
            churn: Churn::default(),
            current_cycle: 0,
            order_scratch: Vec::new(),
            pool: None,
            profiler: None,
        }
    }

    /// Starts accumulating per-phase wall time into a [`PhaseProfile`]
    /// readable via [`CycleEngine::phase_profile`]. Idempotent: calling it
    /// again keeps the accumulated numbers.
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(PhaseProfile::default());
        }
    }

    /// The per-phase profile accumulated so far, if profiling is enabled.
    pub fn phase_profile(&self) -> Option<&PhaseProfile> {
        self.profiler.as_ref()
    }

    /// Replaces the transport (builder style).
    #[must_use]
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.context.transport = transport;
        self
    }

    /// Replaces the membership timeline (builder style).
    #[must_use]
    pub fn with_churn(mut self, churn: Churn) -> Self {
        self.churn = churn;
        self
    }

    /// Shared access to the engine context (network, RNG, transport).
    pub fn context(&self) -> &EngineContext {
        &self.context
    }

    /// Exclusive access to the engine context.
    pub fn context_mut(&mut self) -> &mut EngineContext {
        &mut self.context
    }

    /// Runs `protocol` for exactly `cycles` cycles. Returns the number of cycles
    /// executed (always `cycles`).
    pub fn run<P: CycleProtocol>(&mut self, protocol: &mut P, cycles: u64) -> u64 {
        self.run_with_observer(protocol, cycles, |_, _, _| ControlFlow::Continue(()))
    }

    /// Runs `protocol` for at most `max_cycles` cycles, invoking `observer` after
    /// every cycle. The observer can stop the run early by returning
    /// [`ControlFlow::Break`]. Returns the number of cycles executed.
    pub fn run_with_observer<P, F>(
        &mut self,
        protocol: &mut P,
        max_cycles: u64,
        mut observer: F,
    ) -> u64
    where
        P: CycleProtocol,
        F: FnMut(&mut P, &mut EngineContext, u64) -> ControlFlow<()>,
    {
        let mut executed = 0;
        for _ in 0..max_cycles {
            let cycle = self.current_cycle;
            let cycle_start = Instant::now();
            self.context.transport.advance_to_cycle(cycle);
            self.apply_churn(protocol, cycle);

            // Fresh random execution order every cycle: this is the cycle-driven
            // equivalent of each node waking up at a random phase inside Δ. The
            // order buffer is engine-owned scratch, reused across cycles.
            self.order_scratch.clear();
            self.order_scratch
                .extend(self.context.network.alive_indices());
            self.context.rng.shuffle(&mut self.order_scratch);
            let node_loop_start = Instant::now();
            for position in 0..self.order_scratch.len() {
                let node = self.order_scratch[position];
                // A node scheduled earlier in the cycle may since have been removed
                // by protocol-driven actions; re-check liveness.
                if self.context.network.is_alive(node) {
                    protocol.execute_node(node, cycle, &mut self.context);
                }
            }
            let node_loop = node_loop_start.elapsed();

            self.current_cycle += 1;
            executed += 1;
            if let Some(profile) = self.profiler.as_mut() {
                profile.execute += node_loop;
                profile.plan += cycle_start.elapsed().saturating_sub(node_loop);
                profile.cycles += 1;
            }
            let measure_start = Instant::now();
            let flow = observer(protocol, &mut self.context, cycle);
            if let Some(profile) = self.profiler.as_mut() {
                profile.measure += measure_start.elapsed();
            }
            if flow.is_break() {
                break;
            }
        }
        executed
    }

    /// Parallel equivalent of [`CycleEngine::run_with_observer`]: executes the
    /// independent per-node computations of each cycle on up to `threads`
    /// worker threads while keeping the run bit-for-bit identical to the
    /// sequential engine at any thread count.
    ///
    /// How: the cycle's shuffled order is scanned sequentially and each node is
    /// *planned* ([`ParallelCycleProtocol::plan_node`] — all RNG consumption
    /// and cross-node reads happen here, on the caller thread, in order). The
    /// deferred work accumulates into a wave; a wave is flushed — executed,
    /// then committed in planning order — whenever the scan reaches a node
    /// whose state a pending plan would modify (planning it earlier would read
    /// stale state). Within a wave, items whose node sets overlap an earlier
    /// item are marked `deferred` and execute sequentially after the disjoint
    /// majority, preserving the sequential interleaving exactly.
    ///
    /// `threads <= 1` falls back to [`CycleEngine::run_with_observer`].
    pub fn run_parallel_with_observer<P, F>(
        &mut self,
        protocol: &mut P,
        max_cycles: u64,
        threads: usize,
        mut observer: F,
    ) -> u64
    where
        P: ParallelCycleProtocol,
        F: FnMut(&mut P, &mut EngineContext, u64) -> ControlFlow<()>,
    {
        if threads <= 1 {
            // The sequential engine also honours profiling, with a coarser
            // split: the whole node step lands in `execute` (planning is not
            // separable from execution there) and the remainder in `plan`.
            // Keeping one thread on this path makes profiled and unprofiled
            // runs of the same configuration directly comparable.
            return self.run_with_observer(protocol, max_cycles, observer);
        }
        // The persistent pool outlives individual runs; recreate it only when
        // the requested thread count changes.
        if self.pool.as_ref().map_or(true, |p| p.threads() != threads) {
            self.pool = Some(WorkerPool::new(threads));
        }
        // Reused across cycles and waves: the pending wave, its outcomes, the
        // claimed-node flags and the list of set flags (for O(wave) clearing).
        let mut wave: Vec<PlannedWork<P::Plan>> = Vec::new();
        let mut outcomes: Vec<P::Outcome> = Vec::new();
        let mut claimed: Vec<bool> = Vec::new();
        let mut claimed_list: Vec<NodeIndex> = Vec::new();

        let mut executed = 0;
        for _ in 0..max_cycles {
            let cycle = self.current_cycle;
            let cycle_start = Instant::now();
            let mut flushed = Duration::ZERO;
            self.context.transport.advance_to_cycle(cycle);
            self.apply_churn(protocol, cycle);

            self.order_scratch.clear();
            self.order_scratch
                .extend(self.context.network.alive_indices());
            self.context.rng.shuffle(&mut self.order_scratch);

            claimed.resize(self.context.network.len(), false);
            debug_assert!(claimed_list.is_empty() && wave.is_empty());
            for position in 0..self.order_scratch.len() {
                let node = self.order_scratch[position];
                if !self.context.network.is_alive(node) {
                    continue;
                }
                if claimed[node.as_usize()] {
                    // A pending plan will modify this node's state; planning it
                    // now would read the wrong (pre-wave) state. Flush first.
                    Self::flush_wave(
                        protocol,
                        &mut self.context,
                        &mut wave,
                        &mut outcomes,
                        self.pool.as_mut().expect("pool created above"),
                        &mut self.profiler,
                        &mut flushed,
                    );
                    for claimed_node in claimed_list.drain(..) {
                        claimed[claimed_node.as_usize()] = false;
                    }
                }
                match protocol.plan_node(node, cycle, &mut self.context) {
                    NodePlan::Idle => {}
                    NodePlan::Work { peer, plan } => {
                        let conflict =
                            claimed[node.as_usize()] || peer.is_some_and(|p| claimed[p.as_usize()]);
                        if !claimed[node.as_usize()] {
                            claimed[node.as_usize()] = true;
                            claimed_list.push(node);
                        }
                        if let Some(p) = peer {
                            if !claimed[p.as_usize()] {
                                claimed[p.as_usize()] = true;
                                claimed_list.push(p);
                            }
                        }
                        wave.push(PlannedWork {
                            node,
                            plan,
                            deferred: conflict,
                        });
                    }
                }
            }
            Self::flush_wave(
                protocol,
                &mut self.context,
                &mut wave,
                &mut outcomes,
                self.pool.as_mut().expect("pool created above"),
                &mut self.profiler,
                &mut flushed,
            );
            for claimed_node in claimed_list.drain(..) {
                claimed[claimed_node.as_usize()] = false;
            }

            self.current_cycle += 1;
            executed += 1;
            if let Some(profile) = self.profiler.as_mut() {
                // Everything this cycle spent outside execute/commit flushes is
                // the sequential planning scan (plus churn).
                profile.plan += cycle_start.elapsed().saturating_sub(flushed);
                profile.cycles += 1;
            }
            let measure_start = Instant::now();
            let flow = observer(protocol, &mut self.context, cycle);
            if let Some(profile) = self.profiler.as_mut() {
                profile.measure += measure_start.elapsed();
            }
            if flow.is_break() {
                break;
            }
        }
        executed
    }

    /// Executes and commits a pending wave (no-op when empty). `flushed`
    /// accumulates the wall time spent here so the caller can attribute the
    /// remainder of the cycle to the planning phase.
    fn flush_wave<P: ParallelCycleProtocol>(
        protocol: &mut P,
        context: &mut EngineContext,
        wave: &mut Vec<PlannedWork<P::Plan>>,
        outcomes: &mut Vec<P::Outcome>,
        pool: &mut WorkerPool,
        profile: &mut Option<PhaseProfile>,
        flushed: &mut Duration,
    ) {
        if wave.is_empty() {
            return;
        }
        outcomes.clear();
        let execute_start = Instant::now();
        protocol.execute_wave(wave, pool, outcomes);
        let execute_elapsed = execute_start.elapsed();
        debug_assert_eq!(outcomes.len(), wave.len());
        wave.clear();
        let commit_start = Instant::now();
        for outcome in outcomes.drain(..) {
            protocol.commit_outcome(outcome, context);
        }
        let commit_elapsed = commit_start.elapsed();
        if let Some(profile) = profile.as_mut() {
            profile.execute += execute_elapsed;
            profile.commit += commit_elapsed;
        }
        *flushed += execute_elapsed + commit_elapsed;
    }

    fn apply_churn<P: CycleProtocol>(&mut self, protocol: &mut P, cycle: u64) {
        let ctx = &mut self.context;
        self.churn
            .apply(cycle, &mut ctx.network, &mut ctx.rng)
            .deliver(protocol, cycle, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnStep;

    /// Records which nodes executed in which cycle, plus join/leave notifications.
    #[derive(Default)]
    struct Recorder {
        executions: Vec<(u64, NodeIndex)>,
        joined: Vec<NodeIndex>,
        departed: Vec<NodeIndex>,
    }

    impl CycleProtocol for Recorder {
        fn execute_node(&mut self, node: NodeIndex, cycle: u64, _ctx: &mut EngineContext) {
            self.executions.push((cycle, node));
        }
        fn node_joined(&mut self, node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {
            self.joined.push(node);
        }
        fn node_departed(&mut self, node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {
            self.departed.push(node);
        }
    }

    fn engine(size: usize, seed: u64) -> CycleEngine {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        CycleEngine::new(network, rng)
    }

    #[test]
    fn every_alive_node_executes_once_per_cycle() {
        let mut eng = engine(20, 1);
        let mut protocol = Recorder::default();
        let executed = eng.run(&mut protocol, 5);
        assert_eq!(executed, 5);
        assert_eq!(protocol.executions.len(), 20 * 5);
        for cycle in 0..5u64 {
            let mut nodes: Vec<_> = protocol
                .executions
                .iter()
                .filter(|(c, _)| *c == cycle)
                .map(|(_, n)| *n)
                .collect();
            nodes.sort();
            nodes.dedup();
            assert_eq!(nodes.len(), 20, "cycle {cycle} missed some node");
        }
    }

    #[test]
    fn execution_order_is_shuffled_between_cycles() {
        let mut eng = engine(50, 2);
        let mut protocol = Recorder::default();
        eng.run(&mut protocol, 2);
        let cycle0: Vec<_> = protocol
            .executions
            .iter()
            .filter(|(c, _)| *c == 0)
            .map(|(_, n)| *n)
            .collect();
        let cycle1: Vec<_> = protocol
            .executions
            .iter()
            .filter(|(c, _)| *c == 1)
            .map(|(_, n)| *n)
            .collect();
        assert_ne!(cycle0, cycle1, "order should differ between cycles");
    }

    #[test]
    fn runs_are_reproducible_from_the_seed() {
        let mut first = Recorder::default();
        let mut second = Recorder::default();
        engine(30, 7).run(&mut first, 4);
        engine(30, 7).run(&mut second, 4);
        assert_eq!(first.executions, second.executions);
    }

    #[test]
    fn observer_can_stop_the_run_early() {
        let mut eng = engine(10, 3);
        let mut protocol = Recorder::default();
        let executed = eng.run_with_observer(&mut protocol, 100, |_p, _ctx, cycle| {
            if cycle >= 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(executed, 5);
    }

    #[test]
    fn churn_hooks_are_invoked() {
        let mut rng = SimRng::seed_from(4);
        let network = Network::with_random_ids(40, &mut rng);
        let mut eng = CycleEngine::new(network, rng).with_churn(Churn::new([ChurnStep::Replace {
            start: 0,
            end: u64::MAX,
            fraction: 0.1,
        }]));
        let mut protocol = Recorder::default();
        eng.run(&mut protocol, 5);
        assert!(
            !protocol.departed.is_empty(),
            "uniform churn should remove nodes"
        );
        assert!(
            !protocol.joined.is_empty(),
            "uniform churn should add nodes"
        );
        // Network size stays roughly constant under replacement churn.
        assert_eq!(eng.context().network.alive_count(), 40);
    }

    #[test]
    fn catastrophic_failure_removes_requested_fraction() {
        let mut rng = SimRng::seed_from(5);
        let network = Network::with_random_ids(100, &mut rng);
        let mut eng = CycleEngine::new(network, rng).with_churn(Churn::new([ChurnStep::Kill {
            at: 2,
            fraction: 0.7,
        }]));
        let mut protocol = Recorder::default();
        eng.run(&mut protocol, 5);
        assert_eq!(protocol.departed.len(), 70);
        assert_eq!(eng.context().network.alive_count(), 30);
        // Dead nodes stop executing.
        let last_cycle_executions = protocol.executions.iter().filter(|(c, _)| *c == 4).count();
        assert_eq!(last_cycle_executions, 30);
    }

    #[test]
    fn transport_is_reachable_through_the_context() {
        let mut rng = SimRng::seed_from(6);
        let network = Network::with_random_ids(4, &mut rng);
        let mut eng = CycleEngine::new(network, rng)
            .with_transport(Transport::reliable().with_loss_window(0, u64::MAX, 1.0));
        assert!(!eng
            .context_mut()
            .deliver(NodeIndex::new(0), NodeIndex::new(1)));
        assert_eq!(eng.context().transport.messages_dropped(), 1);
    }
}
