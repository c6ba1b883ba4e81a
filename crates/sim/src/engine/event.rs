//! The discrete-event simulation engine.
//!
//! The cycle-driven engine executes request/response exchanges atomically within a
//! cycle, which is the model the paper evaluates. The event-driven engine relaxes
//! that: messages are scheduled with a per-message latency drawn from the
//! transport, nodes wake up on timers rather than in lock-step, and replies can
//! arrive cycles after their request was sent. It is used by the reproduction to
//! confirm that the protocol's behaviour is not an artifact of the synchronous
//! cycle abstraction.

use crate::engine::cycle::EngineContext;
use crate::network::{Network, NodeIndex};
use crate::transport::Transport;
use bss_util::rng::SimRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Debug;

/// A protocol driven by the [`EventEngine`].
pub trait EventProtocol {
    /// The message type exchanged between nodes.
    type Message: Debug;

    /// Called once per node when the simulation starts, in index order.
    fn on_start(&mut self, node: NodeIndex, ctx: &mut EventContext<'_, Self::Message>);

    /// Called when a message addressed to `node` is delivered.
    fn on_message(
        &mut self,
        node: NodeIndex,
        from: NodeIndex,
        message: Self::Message,
        ctx: &mut EventContext<'_, Self::Message>,
    );

    /// Called when a timer set by `node` fires.
    fn on_timer(&mut self, node: NodeIndex, timer: u64, ctx: &mut EventContext<'_, Self::Message>);
}

/// What the engine schedules.
#[derive(Debug)]
enum Payload<M> {
    Message { from: NodeIndex, body: M },
    Timer { id: u64 },
}

#[derive(Debug)]
struct Scheduled<M> {
    at: u64,
    seq: u64,
    to: NodeIndex,
    payload: Payload<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The engine-side interface handed to protocol callbacks: read the clock and the
/// network, send messages, set timers.
///
/// The full [`EngineContext`] (network registry, RNG and transport) is exposed
/// through [`EventContext::engine`], which is what lets protocols written
/// against the cycle engine's context — peer samplers in particular — run
/// unchanged under the event engine.
#[derive(Debug)]
pub struct EventContext<'a, M> {
    now: u64,
    engine: &'a mut EngineContext,
    effects: &'a mut Effects<M>,
}

impl<'a, M> EventContext<'a, M> {
    /// Current simulation time in milliseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The shared engine context: node registry, RNG and transport. Handing
    /// out the same type the cycle engine uses means cycle-oriented helpers
    /// (samplers, convergence oracles) work inside event callbacks too.
    pub fn engine(&mut self) -> &mut EngineContext {
        self.engine
    }

    /// The deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.engine.rng
    }

    /// Queues a message from `from` to `to`. Delivery (and loss) is decided by the
    /// engine's transport when the callback returns, and the transport counts it
    /// at that hand-off — not here — so "sent" means the same thing in both
    /// engines: *offered to the transport* ([`Transport::messages_offered`]).
    pub fn send(&mut self, from: NodeIndex, to: NodeIndex, message: M) {
        self.effects.outbox.push((from, to, message));
    }

    /// Schedules `timer` to fire at `node` after `delay_millis`.
    pub fn set_timer(&mut self, node: NodeIndex, delay_millis: u64, timer: u64) {
        self.effects.timers.push((node, delay_millis, timer));
    }
}

/// A discrete-event scheduler over a [`Network`], a [`Transport`] and a protocol.
#[derive(Debug)]
pub struct EventEngine<M> {
    context: EngineContext,
    queue: BinaryHeap<Scheduled<M>>,
    /// What the running callback queued; drained after every callback, so
    /// its two buffers are reused for the whole run.
    effects: Effects<M>,
    now: u64,
    seq: u64,
    started: bool,
}

impl<M: Debug> EventEngine<M> {
    /// Creates an engine with a reliable, 1 ms transport.
    pub fn new(network: Network, rng: SimRng) -> Self {
        EventEngine {
            context: EngineContext::new(network, rng),
            queue: BinaryHeap::new(),
            effects: Effects {
                outbox: Vec::new(),
                timers: Vec::new(),
            },
            now: 0,
            seq: 0,
            started: false,
        }
    }

    /// Replaces the transport (builder style).
    #[must_use]
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.context.transport = transport;
        self
    }

    /// Shared access to the engine context (network, RNG, transport) — the
    /// same type the cycle engine exposes, so measurement helpers work on
    /// either engine.
    pub fn context(&self) -> &EngineContext {
        &self.context
    }

    /// Exclusive access to the engine context (for scenario scripting between
    /// run slices: applying churn, advancing transport windows).
    pub fn context_mut(&mut self) -> &mut EngineContext {
        &mut self.context
    }

    /// Cancels every queued event addressed to a node that is dead in the
    /// registry — pending exchange timers and in-flight answers alike — and
    /// returns how many were removed. Scenario drivers call this right after
    /// killing nodes (catastrophic failure, churn): a dead node must generate
    /// zero traffic from the moment of its failure, and its timer chain must
    /// not linger in the queue. (The pop loop also skips events for dead
    /// recipients as a defence in depth, but that leaves the queue holding a
    /// dead entry per victim until its due time; explicit cancellation keeps
    /// the queue an honest picture of the live network.)
    pub fn cancel_dead(&mut self) -> usize {
        let before = self.queue.len();
        let network = &self.context.network;
        self.queue.retain(|event| network.is_alive(event.to));
        before - self.queue.len()
    }

    /// Runs the start phase now — one `on_start` callback per alive node — if
    /// it has not run yet. [`EventEngine::run_until`] does this automatically
    /// on its first invocation; scenario drivers call it explicitly *before*
    /// applying cycle-0 membership events, so that joiners added at cycle 0
    /// (started individually via [`EventEngine::start_node`]) are not started
    /// a second time by the deferred start phase.
    pub fn start<P>(&mut self, protocol: &mut P)
    where
        P: EventProtocol<Message = M>,
    {
        if self.started {
            return;
        }
        self.started = true;
        let start_nodes: Vec<NodeIndex> = self.context.network.alive_indices().collect();
        for node in start_nodes {
            self.start_node(protocol, node);
        }
    }

    /// Runs `node`'s `on_start` callback at the current simulation time and
    /// applies its effects (queued messages, timers). The first
    /// [`EventEngine::run_until`] call does this automatically for every node
    /// alive at that point; call it explicitly for nodes that join *during*
    /// the run (scenario joins) so they can schedule their first timers.
    pub fn start_node<P>(&mut self, protocol: &mut P, node: NodeIndex)
    where
        P: EventProtocol<Message = M>,
    {
        self.with_context(|ctx, p: &mut P| p.on_start(node, ctx), protocol);
    }

    /// Runs the protocol until the event queue drains or the clock passes
    /// `end_time_millis`, whichever comes first. Returns the number of events
    /// processed.
    ///
    /// The first call triggers the start phase (an `on_start` callback per
    /// alive node); later calls simply resume the queue, so a driver can run
    /// the simulation in slices — one per cycle Δ — and script scenario events
    /// (churn, partitions) between them.
    pub fn run_until<P>(&mut self, protocol: &mut P, end_time_millis: u64) -> u64
    where
        P: EventProtocol<Message = M>,
    {
        self.start(protocol);

        let mut processed = 0;
        while let Some(event) = self.queue.pop() {
            if event.at > end_time_millis {
                // Put it back conceptually; we simply stop (the queue resumes
                // on the next run_until slice).
                self.queue.push(event);
                break;
            }
            self.now = event.at;
            processed += 1;
            if !self.context.network.is_alive(event.to) {
                continue; // Messages and timers for dead nodes are silently dropped.
            }
            match event.payload {
                Payload::Message { from, body } => {
                    self.with_context(
                        |ctx, p: &mut P| p.on_message(event.to, from, body, ctx),
                        protocol,
                    );
                }
                Payload::Timer { id } => {
                    self.with_context(|ctx, p: &mut P| p.on_timer(event.to, id, ctx), protocol);
                }
            }
        }
        // The slice ends on the requested horizon even when the queue drained
        // earlier, so per-cycle drivers can map `now` back to a cycle index.
        self.now = self.now.max(end_time_millis);
        processed
    }

    /// Runs one callback against the engine's effect buffers, then hands
    /// what it queued to the transport and the queue.
    fn with_context<P, F>(&mut self, f: F, protocol: &mut P)
    where
        F: FnOnce(&mut EventContext<'_, M>, &mut P),
    {
        let mut ctx = EventContext {
            now: self.now,
            engine: &mut self.context,
            effects: &mut self.effects,
        };
        f(&mut ctx, protocol);
        for (from, to, body) in self.effects.outbox.drain(..) {
            let context = &mut self.context;
            if context.transport.should_deliver(from, to, &mut context.rng) {
                let latency = context.transport.latency_millis(from, to, &mut context.rng);
                self.seq += 1;
                self.queue.push(Scheduled {
                    at: self.now + latency.max(1),
                    seq: self.seq,
                    to,
                    payload: Payload::Message { from, body },
                });
            }
        }
        for (node, delay, id) in self.effects.timers.drain(..) {
            self.seq += 1;
            self.queue.push(Scheduled {
                at: self.now + delay.max(1),
                seq: self.seq,
                to: node,
                payload: Payload::Timer { id },
            });
        }
    }
}

/// The messages and timers one callback queued, in the order it queued them.
#[derive(Debug)]
struct Effects<M> {
    outbox: Vec<(NodeIndex, NodeIndex, M)>,
    timers: Vec<(NodeIndex, u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::whole_run_loss;
    use crate::transport::LatencyModel;

    /// A ping-pong protocol: node 0 pings node 1, each pong triggers another ping,
    /// bounded by a hop counter in the message.
    struct PingPong {
        received: Vec<(NodeIndex, u32)>,
    }

    impl EventProtocol for PingPong {
        type Message = u32;

        fn on_start(&mut self, node: NodeIndex, ctx: &mut EventContext<'_, u32>) {
            if node == NodeIndex::new(0) {
                ctx.send(node, NodeIndex::new(1), 8);
            }
        }

        fn on_message(
            &mut self,
            node: NodeIndex,
            from: NodeIndex,
            message: u32,
            ctx: &mut EventContext<'_, u32>,
        ) {
            self.received.push((node, message));
            if message > 0 {
                ctx.send(node, from, message - 1);
            }
        }

        fn on_timer(&mut self, _node: NodeIndex, _timer: u64, _ctx: &mut EventContext<'_, u32>) {}
    }

    /// A protocol that reschedules itself with a periodic timer and counts firings.
    struct PeriodicTimer {
        fired: Vec<(NodeIndex, u64)>,
    }

    impl EventProtocol for PeriodicTimer {
        type Message = ();

        fn on_start(&mut self, node: NodeIndex, ctx: &mut EventContext<'_, ()>) {
            ctx.set_timer(node, 10, 1);
        }

        fn on_message(
            &mut self,
            _n: NodeIndex,
            _f: NodeIndex,
            _m: (),
            _ctx: &mut EventContext<'_, ()>,
        ) {
        }

        fn on_timer(&mut self, node: NodeIndex, timer: u64, ctx: &mut EventContext<'_, ()>) {
            self.fired.push((node, ctx.now()));
            ctx.set_timer(node, 10, timer);
        }
    }

    fn small_engine<M: Debug>(nodes: usize, seed: u64) -> EventEngine<M> {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(nodes, &mut rng);
        EventEngine::new(network, rng)
    }

    fn jittery() -> Transport {
        let latency = LatencyModel::Uniform {
            min_millis: 5,
            max_millis: 50,
        };
        Transport::new(latency, None, 0)
    }

    #[test]
    fn ping_pong_exchanges_the_expected_number_of_messages() {
        let mut engine = small_engine(2, 1);
        let mut protocol = PingPong {
            received: Vec::new(),
        };
        let processed = engine.run_until(&mut protocol, 1_000_000);
        // 9 messages total (hops 8..=0), all delivered.
        assert_eq!(protocol.received.len(), 9);
        assert_eq!(engine.context().transport.messages_offered(), 9);
        assert_eq!(engine.context().transport.messages_dropped(), 0);
        assert_eq!(processed, 9);
        // Alternating receivers.
        assert_eq!(protocol.received[0].0, NodeIndex::new(1));
        assert_eq!(protocol.received[1].0, NodeIndex::new(0));
    }

    #[test]
    fn drop_transport_silences_the_conversation() {
        let mut engine: EventEngine<u32> =
            small_engine::<u32>(2, 2).with_transport(whole_run_loss(1.0));
        let mut protocol = PingPong {
            received: Vec::new(),
        };
        engine.run_until(&mut protocol, 1_000_000);
        assert!(protocol.received.is_empty());
        assert_eq!(engine.context().transport.messages_offered(), 1);
        assert_eq!(engine.context().transport.messages_dropped(), 1);
    }

    #[test]
    fn timers_fire_periodically_until_the_horizon() {
        let mut engine: EventEngine<()> = small_engine(3, 3);
        let mut protocol = PeriodicTimer { fired: Vec::new() };
        engine.run_until(&mut protocol, 100);
        // Each of the 3 nodes fires at t = 10, 20, ..., 100 -> 10 firings each.
        assert_eq!(protocol.fired.len(), 30);
        assert!(protocol.fired.iter().all(|&(_, t)| t <= 100 && t % 10 == 0));
        assert_eq!(engine.now, 100);
    }

    #[test]
    fn sent_counter_agrees_with_the_transport_under_loss() {
        // "Sent" is what was offered to the transport, in both engines, and
        // the transport is the one place that counts it: once the queue
        // drains (nothing in flight, no dead recipients) the protocol has
        // received offered - dropped messages.
        let mut engine: EventEngine<u32> =
            small_engine::<u32>(2, 8).with_transport(whole_run_loss(0.4));
        let mut protocol = PingPong {
            received: Vec::new(),
        };
        engine.run_until(&mut protocol, 1_000_000);
        let transport = &engine.context().transport;
        assert_eq!(
            protocol.received.len() as u64,
            transport.messages_offered() - transport.messages_dropped()
        );
        // The conversation ends at the first drop, so exactly one message was
        // dropped and every earlier one was delivered.
        assert_eq!(transport.messages_dropped(), 1);
    }

    #[test]
    fn cancel_dead_purges_the_queue_and_silences_victims() {
        let mut engine: EventEngine<()> = small_engine(4, 9);
        let mut protocol = PeriodicTimer { fired: Vec::new() };
        engine.run_until(&mut protocol, 25);
        assert_eq!(engine.queue.len(), 4, "one pending timer per node");
        // Two nodes die mid-run; cancellation removes exactly their timers.
        engine.context_mut().network.kill(NodeIndex::new(1));
        engine.context_mut().network.kill(NodeIndex::new(2));
        assert_eq!(engine.cancel_dead(), 2);
        assert_eq!(engine.queue.len(), 2);
        assert_eq!(engine.cancel_dead(), 0, "idempotent");
        let before = protocol.fired.len();
        engine.run_until(&mut protocol, 60);
        let survivors_fired = protocol.fired[before..]
            .iter()
            .filter(|&&(node, _)| node == NodeIndex::new(0) || node == NodeIndex::new(3))
            .count();
        assert_eq!(
            protocol.fired.len() - before,
            survivors_fired,
            "dead nodes generate zero events after cancellation"
        );
        assert!(survivors_fired > 0);
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        let mut engine = small_engine(2, 4);
        engine.context_mut().network.kill(NodeIndex::new(1));
        let mut protocol = PingPong {
            received: Vec::new(),
        };
        engine.run_until(&mut protocol, 1_000);
        assert!(protocol.received.is_empty(), "dead node must not receive");
        assert_eq!(engine.context().network.alive_count(), 1);
    }

    #[test]
    fn latency_orders_events_deterministically() {
        let mut engine: EventEngine<u32> = small_engine::<u32>(2, 5).with_transport(jittery());
        let mut protocol = PingPong {
            received: Vec::new(),
        };
        engine.run_until(&mut protocol, 10_000);
        assert_eq!(protocol.received.len(), 9);
        // Re-running with the same seed reproduces the same trace.
        let mut engine2: EventEngine<u32> = small_engine::<u32>(2, 5).with_transport(jittery());
        let mut protocol2 = PingPong {
            received: Vec::new(),
        };
        engine2.run_until(&mut protocol2, 10_000);
        assert_eq!(protocol.received, protocol2.received);
        assert_eq!(engine.now, engine2.now);
    }

    #[test]
    fn run_until_can_be_sliced_without_restarting() {
        // Two half-horizon slices must equal one full run: the start phase only
        // fires once, and the queue resumes where the first slice stopped.
        let mut sliced: EventEngine<()> = small_engine(3, 3);
        let mut sliced_protocol = PeriodicTimer { fired: Vec::new() };
        sliced.run_until(&mut sliced_protocol, 50);
        assert_eq!(sliced.now, 50);
        sliced.run_until(&mut sliced_protocol, 100);

        let mut whole: EventEngine<()> = small_engine(3, 3);
        let mut whole_protocol = PeriodicTimer { fired: Vec::new() };
        whole.run_until(&mut whole_protocol, 100);
        assert_eq!(sliced_protocol.fired, whole_protocol.fired);
        assert_eq!(sliced.now, whole.now);
    }

    #[test]
    fn late_joiners_start_when_asked() {
        let mut engine: EventEngine<()> = small_engine(2, 7);
        let mut protocol = PeriodicTimer { fired: Vec::new() };
        engine.run_until(&mut protocol, 50);
        assert_eq!(protocol.fired.len(), 10, "two nodes, five firings each");
        // A node joins mid-run; its timers only begin once start_node is called.
        let joiner = {
            let context = engine.context_mut();
            context.network.add_random_node(&mut context.rng)
        };
        engine.start_node(&mut protocol, joiner);
        engine.run_until(&mut protocol, 100);
        let join_firings = protocol.fired.iter().filter(|&&(n, _)| n == joiner).count();
        assert_eq!(join_firings, 5, "joiner fires from t=60 to t=100");
    }

    #[test]
    fn run_stops_at_the_requested_horizon() {
        let mut engine: EventEngine<()> = small_engine(1, 6);
        let mut protocol = PeriodicTimer { fired: Vec::new() };
        let processed = engine.run_until(&mut protocol, 35);
        assert_eq!(processed, 3, "only timers at 10, 20, 30 fit in the horizon");
        assert!(engine.now <= 35);
    }
}
