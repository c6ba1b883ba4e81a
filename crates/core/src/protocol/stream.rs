//! The stream: table work leaves for worker threads as it is planned.
//!
//! One executor serves both engines. The calling thread plans — the cycle's
//! nodes in order on the cycle engine, the handlers in event order on the
//! event engine — so every RNG draw and all sampler and engine state stay
//! there, in the one-thread order. Each piece of table work leaves at once as
//! a job with the packed states it touches, and comes back with them and its
//! outcome. A job is a cycle's exchange, on the initiator and its engaged
//! peer, or an event handler's operation on one node ([`EventOp`]). Three
//! rules keep the result the one-thread result:
//!
//! * The planner waits for a node before planning on it. Planning reads that
//!   node's leaf set (SELECTPEER) and no other table: of a peer it only asks
//!   whether the slot holds a state, and a state away on a worker leaves an
//!   empty one in its slot.
//! * A job leaves only once every state it touches is home, so each node sees
//!   its jobs in planning order. Jobs out at the same time therefore touch
//!   disjoint nodes and may run in any order. An event operation that applies
//!   a received message also waits until the job composing it has committed.
//! * Outcomes are committed in planning order.
//!
//! The planner executes jobs too: the oldest queued one whenever more are
//! queued than the workers are about to take, and any queued one while it
//! waits. The threads thus share planning and execution, where a wave made
//! execution wait for planning and planning for execution. At one thread no
//! worker is spawned and the planner runs each job as it leaves.

use super::{
    execute_exchange, BootstrapProtocol, Compose, EventOp, ExchangeOutcome, ExchangePlan,
    ExchangeScratch,
};
use crate::compact::CompactNode;
use bss_sampling::sampler::PeerSampler;
use bss_sim::engine::cycle::{EngineContext, PhaseProfile};
use bss_sim::network::NodeIndex;
use bss_util::config::BootstrapParams;
use bss_util::id::NodeId;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Jobs left queued per worker before the planner runs one itself: a worker
/// that finishes one finds the next while the planner is busy. At 2^13 nodes
/// on two threads, 1 starved the worker and 4 was no faster.
const QUEUED_PER_WORKER: usize = 2;

/// What a job does with the states it carries.
enum Work {
    Exchange(ExchangePlan),
    Event(EventOp),
}

/// What a job produced, to commit in planning order.
enum Outcome {
    Exchange(ExchangeOutcome),
    Event(NodeIndex, Option<Compose>, bool),
}

/// Table work out of the planner's hands: the states it works on and, once
/// executed, its outcome.
struct Job {
    seq: u32,
    node: NodeIndex,
    state: CompactNode,
    /// An exchange's engaged peer and its state.
    peer: Option<(NodeIndex, CompactNode)>,
    work: Work,
    outcome: Option<Outcome>,
}

impl Job {
    fn run(&mut self, ids: &[NodeId], params: &BootstrapParams, scratch: &mut ExchangeScratch) {
        let (node, state) = (self.node, &mut self.state);
        self.outcome = Some(match &mut self.work {
            Work::Exchange(plan) => {
                let peer = self.peer.as_mut().map(|(_, state)| state);
                let outcome = execute_exchange(plan, node, state, peer, ids, params, scratch);
                Outcome::Exchange(outcome)
            }
            Work::Event(op) => {
                let changed = op.run(node, state, ids, params, scratch);
                Outcome::Event(node, op.compose.take(), changed)
            }
        });
    }
}

/// What the planner and the workers share, behind one lock.
#[derive(Default)]
struct Queue {
    /// Jobs ready to run, oldest first.
    ready: VecDeque<Job>,
    /// Executed jobs the planner has not collected yet.
    done: Vec<Job>,
    /// Workers asleep on `Stream::work`.
    idle: usize,
    /// The planner is asleep on `Stream::finished`.
    planner_waiting: bool,
    /// Nothing more comes: workers leave once `ready` is empty.
    closed: bool,
    /// A thread panicked: nobody waits for it.
    broken: bool,
}

#[derive(Default)]
struct Stream {
    queue: Mutex<Queue>,
    /// Signalled when `ready` gains a job or the queue closes.
    work: Condvar,
    /// Signalled when `done` gains a job or a thread panics.
    finished: Condvar,
}

impl Stream {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Every update under the lock is one push, pop or flag, so the queue
        // stays valid whoever panicked holding it; `broken` says that someone did.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's loop: run the oldest ready job and hand it back, until the
    /// queue is closed and empty. One trip to the lock per job.
    fn work(&self, ids: &[NodeId], params: &BootstrapParams, scratch: &mut ExchangeScratch) {
        let _leave = Leave(self);
        let mut queue = self.lock();
        loop {
            match queue.ready.pop_front() {
                Some(mut job) => {
                    drop(queue);
                    job.run(ids, params, scratch);
                    queue = self.lock();
                    queue.done.push(job);
                    if queue.planner_waiting {
                        self.finished.notify_one();
                    }
                }
                None if queue.closed => return,
                None => {
                    queue.idle += 1;
                    queue = self
                        .work
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                    queue.idle -= 1;
                }
            }
        }
    }

    /// The planner's trip to the queue: hands over `send`, collects what the
    /// workers finished into `inbox`, and takes back the oldest ready job for
    /// the planner to run when more than `keep` are ready. With `wait`,
    /// sleeps until there is a job to take or to collect.
    fn trade(
        &self,
        send: Option<Job>,
        inbox: &mut Vec<Job>,
        keep: usize,
        wait: bool,
    ) -> Option<Job> {
        let mut queue = self.lock();
        if let Some(job) = send {
            queue.ready.push_back(job);
            if queue.idle > 0 {
                self.work.notify_one();
            }
        }
        loop {
            assert!(!queue.broken, "a worker thread of the stream panicked");
            inbox.append(&mut queue.done);
            if queue.ready.len() > keep {
                return queue.ready.pop_front();
            }
            if !wait || !inbox.is_empty() {
                return None;
            }
            queue.planner_waiting = true;
            queue = self
                .finished
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.planner_waiting = false;
        }
    }
}

/// Closes the queue when its holder leaves the stream, however it leaves:
/// workers return once nothing is ready, and a planner waiting for a worker
/// that panicked stops waiting.
struct Leave<'a>(&'a Stream);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let mut queue = self.0.lock();
        queue.closed = true;
        queue.broken |= std::thread::panicking();
        drop(queue);
        self.0.work.notify_all();
        self.0.finished.notify_all();
    }
}

/// The planner's side of an open stream.
pub(super) struct Lane<'s> {
    /// The queue the workers take from; `None` when no worker runs.
    stream: Option<&'s Stream>,
    /// Jobs left queued for the workers before the planner runs one itself.
    keep: usize,
    /// The planner's working memory for the jobs it runs.
    scratch: &'s mut ExchangeScratch,
    /// Per node: whether its state is away on a job.
    out: Vec<bool>,
    /// The sequence number of `planned[0]`, the oldest uncommitted job.
    base: u32,
    /// Per uncommitted job, in planning order: its outcome once back.
    planned: VecDeque<Option<Outcome>>,
    /// Jobs back from execution, to collect.
    inbox: Vec<Job>,
    profile: Option<&'s mut PhaseProfile>,
}

impl Lane<'_> {
    fn clock(&self) -> Option<Instant> {
        self.profile.is_some().then(Instant::now)
    }
}

impl<S: PeerSampler> BootstrapProtocol<S> {
    /// Runs `plan` with a stream open on `threads - 1` scoped workers (none
    /// at one thread), then waits for every job and commits it. With
    /// `profile`, the planner's time running jobs and waiting adds to
    /// `execute` and its time committing to `commit`.
    pub(super) fn with_lane<R>(
        &mut self,
        threads: usize,
        profile: Option<&mut PhaseProfile>,
        plan: impl FnOnce(&mut Self, &mut Lane<'_>) -> R,
    ) -> R {
        let params = self.params;
        let mut scratch = std::mem::take(&mut self.worker_scratch);
        scratch.resize_with(threads.max(1), || ExchangeScratch::new(&params));
        let (own, workers) = scratch.split_first_mut().expect("at least one slot");
        let ids = Arc::clone(&self.ids);
        let stream = Stream::default();
        let mut lane = Lane {
            stream: (!workers.is_empty()).then_some(&stream),
            keep: QUEUED_PER_WORKER * workers.len(),
            scratch: own,
            out: vec![false; self.nodes.len()],
            base: 0,
            planned: VecDeque::new(),
            inbox: Vec::new(),
            profile,
        };
        let result = std::thread::scope(|scope| {
            let _leave = Leave(&stream);
            for scratch in workers {
                let (stream, ids) = (&stream, ids.as_slice());
                scope.spawn(move || stream.work(ids, &params, scratch));
            }
            let result = plan(self, &mut lane);
            while !lane.planned.is_empty() {
                self.trade(&mut lane, None, 0, true);
            }
            result
        });
        drop(lane);
        self.worker_scratch = scratch;
        result
    }

    /// `CycleProtocol::execute_cycle` above one thread: the calling thread
    /// plans and `threads - 1` scoped workers execute.
    pub(super) fn stream_cycle(
        &mut self,
        order: &[NodeIndex],
        cycle: u64,
        threads: usize,
        ctx: &mut EngineContext,
        profile: Option<&mut PhaseProfile>,
    ) {
        self.with_lane(threads, profile, |protocol, lane| {
            for &node in order {
                if !ctx.network.is_alive(node) {
                    continue;
                }
                protocol.wait_for(node, lane);
                if let Some(plan) = protocol.plan_exchange(node, cycle, ctx) {
                    let peer = plan.peer_engaged.then_some(plan.peer);
                    if let Some(peer) = peer {
                        protocol.wait_for(peer, lane);
                    }
                    protocol.dispatch(lane, node, peer, Work::Exchange(plan));
                }
            }
        });
    }

    /// Sends `op` off on `node` once the node is home and the body it
    /// applies is filled. The message it composes gets room here for the
    /// whole union `CREATEMESSAGE` selects from, so a worker composing into
    /// it allocates nothing that outlives the stream.
    pub(super) fn submit(&mut self, lane: &mut Lane<'_>, node: NodeIndex, mut op: EventOp) {
        self.wait_for(node, lane);
        if let (Some(compose), Some(packed)) = (op.compose.as_mut(), self.packed_node(node)) {
            let union = packed.leaf_entries().len() + packed.prefix_entries().len();
            compose
                .descriptors
                .reserve_exact(1 + union + compose.samples.len());
        }
        if let Some(body) = &op.apply {
            while body.get().is_none() {
                assert!(!lane.planned.is_empty(), "a message body no job fills");
                self.trade(lane, None, 0, true);
            }
        }
        self.dispatch(lane, node, None, Work::Event(op));
    }

    /// Trades with the queue until `node`'s state is home.
    pub(super) fn wait_for(&mut self, node: NodeIndex, lane: &mut Lane<'_>) {
        while lane.out.get(node.as_usize()) == Some(&true) {
            self.trade(lane, None, 0, true);
        }
    }

    /// Numbers a job, packs it with the states it touches (leaving empty ones
    /// in their slots) and sends it off.
    fn dispatch(
        &mut self,
        lane: &mut Lane<'_>,
        node: NodeIndex,
        peer: Option<NodeIndex>,
        work: Work,
    ) {
        let seq = lane.base + lane.planned.len() as u32;
        lane.planned.push_back(None);
        let mut take = |index: NodeIndex| {
            lane.out[index.as_usize()] = true;
            let slot = self.nodes[index.as_usize()].as_mut();
            std::mem::take(slot.expect("a job's nodes hold state"))
        };
        let job = Job {
            seq,
            node,
            state: take(node),
            peer: peer.map(|peer| (peer, take(peer))),
            work,
            outcome: None,
        };
        let keep = lane.keep;
        self.trade(lane, Some(job), keep, false);
    }

    /// One trip to the queue (see [`Stream::trade`]); runs the job it brings
    /// back on this thread, then collects. Without workers, runs `send`.
    fn trade(&mut self, lane: &mut Lane<'_>, send: Option<Job>, keep: usize, wait: bool) {
        let started = lane.clock();
        let job = match lane.stream {
            Some(stream) => stream.trade(send, &mut lane.inbox, keep, wait),
            None => send,
        };
        let ran = job.is_some();
        if let Some(mut job) = job {
            job.run(&self.ids, &self.params, lane.scratch);
            lane.inbox.push(job);
        }
        if let (true, Some(profile), Some(started)) =
            (ran || wait, lane.profile.as_deref_mut(), started)
        {
            profile.execute += started.elapsed();
        }
        self.collect(lane);
    }

    /// Takes back what execution returned: puts the states home and commits
    /// every outcome that is now next in planning order.
    fn collect(&mut self, lane: &mut Lane<'_>) {
        if lane.inbox.is_empty() {
            return;
        }
        let started = lane.clock();
        let mut inbox = std::mem::take(&mut lane.inbox);
        for job in inbox.drain(..) {
            for (index, state) in std::iter::once((job.node, job.state)).chain(job.peer) {
                lane.out[index.as_usize()] = false;
                let slot = self.nodes[index.as_usize()].as_mut();
                *slot.expect("a state out on a job keeps its slot") = state;
            }
            lane.planned[(job.seq - lane.base) as usize] = job.outcome;
        }
        lane.inbox = inbox;
        while let Some(outcome) = lane.planned.front_mut().and_then(Option::take) {
            lane.planned.pop_front();
            lane.base += 1;
            match outcome {
                Outcome::Exchange(outcome) => self.commit_outcome(outcome),
                Outcome::Event(node, composed, changed) => {
                    self.commit_event(node, composed, changed);
                }
            }
        }
        if let (Some(profile), Some(started)) = (lane.profile.as_deref_mut(), started) {
            profile.commit += started.elapsed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Body;

    /// A job that panics on a worker breaks the queue: the planner waiting
    /// for it panics too, and the scope ends, where it would have hung.
    #[test]
    #[should_panic(expected = "a worker thread of the stream panicked")]
    fn a_panicking_job_surfaces_as_a_panic_not_a_hang() {
        let params = BootstrapParams::paper_default();
        let unfilled = EventOp {
            cycle: 0,
            compose: None,
            apply: Some(Body::default()),
        };
        let job = Job {
            seq: 0,
            node: NodeIndex::new(0),
            state: CompactNode::default(),
            peer: None,
            work: Work::Event(unfilled),
            outcome: None,
        };
        let stream = Stream::default();
        let mut scratch = ExchangeScratch::new(&params);
        std::thread::scope(|scope| {
            let _leave = Leave(&stream);
            scope.spawn(|| stream.work(&[], &params, &mut scratch));
            // The planner keeps every job for the worker and waits for it.
            stream.trade(Some(job), &mut Vec::new(), usize::MAX, true);
        });
    }
}
