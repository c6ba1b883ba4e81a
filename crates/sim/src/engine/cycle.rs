//! The cycle-driven simulation engine.
//!
//! This is the execution model under which all of the paper's results were
//! produced (PeerSim's cycle-driven mode). Time advances in discrete cycles; in
//! every cycle each alive node executes its protocol step exactly once, and the
//! per-cycle execution order is re-randomised, which models the nodes' random start
//! phases within the interval Δ (§5: "We start the bootstrapping protocol at each
//! node at a different random time within an interval of length Δ").

use crate::adversary::AdversaryModel;
use crate::churn::Churn;
use crate::network::{Network, NodeIndex};
use crate::transport::Transport;
use bss_util::rng::SimRng;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Mutable state shared by the engine and the protocol during a run: the node
/// registry, the random number generator, the transport and the adversary.
#[derive(Debug)]
pub struct EngineContext {
    /// The global node registry.
    pub network: Network,
    /// The deterministic random number generator driving every stochastic choice.
    pub rng: SimRng,
    /// The message delivery policy.
    pub transport: Transport,
    /// The run's Byzantine adversary model (`None` when honest), set before
    /// any node is initialised; churn marks conversions in it. Every protocol
    /// layer reads this one copy, on the planning thread or in event handlers
    /// only, so runs stay bit-identical at any thread count.
    pub adversary: Option<AdversaryModel>,
}

impl EngineContext {
    /// Creates a context with a [reliable](Transport::reliable) transport and no adversary.
    pub fn new(network: Network, rng: SimRng) -> Self {
        EngineContext {
            network,
            rng,
            transport: Transport::reliable(),
            adversary: None,
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
/// membership hooks do nothing by default and
/// [`execute_cycle`](CycleProtocol::execute_cycle) runs the cycle inline. A
/// peer sampler is a `CycleProtocol` too, whose `execute_node` is its gossip
/// step. Byzantine conversions are no hook: they land in
/// [`EngineContext::adversary`].
pub trait CycleProtocol {
    /// Called once per alive node per cycle, in a random order.
    fn execute_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext);

    /// Runs one cycle: for every node of `order` still alive when its turn
    /// comes, the effects of [`execute_node`](CycleProtocol::execute_node),
    /// in that order. A protocol may spread the work over up to `threads`
    /// threads, provided the result is bit for bit the one-thread result —
    /// the same RNG draws, the same final states, the same counters. The
    /// default ignores `threads` and runs [`execute_inline`].
    ///
    /// With `profile`, adds the calling thread's time spent executing work or
    /// waiting for other threads to `execute`, and its time spent applying
    /// finished work to `commit`; the engine counts the rest of the cycle as
    /// `plan`.
    fn execute_cycle(
        &mut self,
        order: &[NodeIndex],
        cycle: u64,
        _threads: usize,
        ctx: &mut EngineContext,
        profile: Option<&mut PhaseProfile>,
    ) {
        execute_inline(self, order, cycle, ctx, profile);
    }

    /// Called when churn adds a node to the network. A protocol stacked on a
    /// peer sampler seeds the joiner's sampler through the sampler's
    /// `init_node`, not through the sampler's own `node_joined`.
    fn node_joined(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}

    /// Called when churn removes a node from the network.
    fn node_departed(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}

    /// Called when a scenario orders an alive node to re-initialise its
    /// protocol state from the seed set (the `ReBootstrap` recovery event).
    /// Membership is unchanged; the default does nothing.
    fn node_rebootstrapped(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}
}

/// The one-thread cycle: [`CycleProtocol::execute_node`] for every node of
/// `order` still alive when its turn comes, timed as `execute`.
pub fn execute_inline<P: CycleProtocol + ?Sized>(
    protocol: &mut P,
    order: &[NodeIndex],
    cycle: u64,
    ctx: &mut EngineContext,
    profile: Option<&mut PhaseProfile>,
) {
    let started = Instant::now();
    for &node in order {
        // A node scheduled earlier in the cycle may since have been removed
        // by protocol-driven actions; re-check liveness.
        if ctx.network.is_alive(node) {
            protocol.execute_node(node, cycle, ctx);
        }
    }
    if let Some(profile) = profile {
        profile.execute += started.elapsed();
    }
}

/// Accumulated wall time per engine phase, enabled with
/// [`CycleEngine::enable_profiling`] and read back with
/// [`CycleEngine::phase_profile`].
///
/// The four phases partition the calling thread's cycle: `plan` covers the
/// sequential scan (churn, RNG draws, handing work to other threads),
/// `execute` the per-node computation the calling thread runs itself plus
/// its waits for other threads, `commit` applying finished work (in planning
/// order), and `measure` the observer callback (convergence oracles, metric
/// emission). On one thread the whole per-node step lands in `execute`,
/// scheduling overhead in `plan`, and `commit` stays empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Sequential planning: churn, RNG draws and hand-off.
    pub plan: Duration,
    /// Per-node computation on the calling thread, and its waits for the
    /// other threads.
    pub execute: Duration,
    /// Applying finished work in planning order.
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
/// let completed = engine.run_with_observer(&mut protocol, 100, 1, |_p, _ctx, cycle| {
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

    /// Runs `protocol` for exactly `cycles` cycles on one thread. Returns the
    /// number of cycles executed (always `cycles`).
    pub fn run<P: CycleProtocol>(&mut self, protocol: &mut P, cycles: u64) -> u64 {
        self.run_with_observer(protocol, cycles, 1, |_, _, _| ControlFlow::Continue(()))
    }

    /// Runs `protocol` for at most `max_cycles` cycles, handing each cycle's
    /// shuffled order to [`CycleProtocol::execute_cycle`] with a budget of
    /// `threads` threads and invoking `observer` after every cycle. The
    /// observer can stop the run early by returning [`ControlFlow::Break`].
    /// Returns the number of cycles executed. Whatever of a cycle
    /// `execute_cycle` does not report as `execute` or `commit` is profiled
    /// as `plan`.
    pub fn run_with_observer<P, F>(
        &mut self,
        protocol: &mut P,
        max_cycles: u64,
        threads: usize,
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
            let stepped_before = self.profiler.map(|p| p.execute + p.commit);
            protocol.execute_cycle(
                &self.order_scratch,
                cycle,
                threads,
                &mut self.context,
                self.profiler.as_mut(),
            );

            self.current_cycle += 1;
            executed += 1;
            if let (Some(profile), Some(before)) = (self.profiler.as_mut(), stepped_before) {
                let stepped = (profile.execute + profile.commit).saturating_sub(before);
                profile.plan += cycle_start.elapsed().saturating_sub(stepped);
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
    use crate::churn::tests::{kill, replace};
    use crate::transport::tests::whole_run_loss;

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
        let executed = eng.run_with_observer(&mut protocol, 100, 1, |_p, _ctx, cycle| {
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
        let mut eng =
            CycleEngine::new(network, rng).with_churn(Churn::new(&[replace(0, u64::MAX, 0.1)]));
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
        let mut eng = CycleEngine::new(network, rng).with_churn(Churn::new(&[kill(2, 0.7)]));
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
        let mut eng = CycleEngine::new(network, rng).with_transport(whole_run_loss(1.0));
        assert!(!eng
            .context_mut()
            .deliver(NodeIndex::new(0), NodeIndex::new(1)));
        assert_eq!(eng.context().transport.messages_dropped(), 1);
    }
}
