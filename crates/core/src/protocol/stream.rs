//! The parallel cycle: exchanges stream to worker threads as they are planned.
//!
//! The calling thread plans the cycle's nodes in order, exactly as the
//! sequential engine does, so every RNG draw happens there and in the same
//! order. Each planned exchange leaves at once with the packed states of the
//! one or two nodes it touches, and comes back with them and its outcome.
//! Three rules keep the result the sequential engine's:
//!
//! * The planner waits for the node it is about to plan. Planning reads that
//!   node's leaf set and no other table: of the peer it only asks whether the
//!   slot holds a state, and a state away on a worker leaves an empty one in
//!   its slot.
//! * An exchange leaves only once its peer is home too, so every node sees
//!   its exchanges in planning order. Exchanges out at the same time
//!   therefore touch disjoint nodes and may run in any order.
//! * Outcomes are committed in planning order.
//!
//! The planner executes exchanges too: the oldest queued one whenever more
//! are queued than the workers are about to take, and any queued one while
//! it waits. The threads thus share planning and execution, where a wave
//! made execution wait for planning and planning for execution.

use super::{execute_exchange, BootstrapProtocol, ExchangeOutcome, ExchangePlan, ExchangeScratch};
use crate::compact::CompactNode;
use bss_sampling::sampler::PeerSampler;
use bss_sim::engine::cycle::{EngineContext, PhaseProfile};
use bss_sim::network::NodeIndex;
use bss_util::config::BootstrapParams;
use bss_util::id::NodeId;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Exchanges left queued per worker before the planner runs one itself: a
/// worker that finishes one finds the next while the planner is busy. At
/// 2^13 nodes on two threads, 1 starved the worker and 4 was no faster.
const QUEUED_PER_WORKER: usize = 2;

/// An exchange out of the planner's hands: the plan, the states it works on
/// and, once executed, its outcome.
struct Job {
    seq: u32,
    node: NodeIndex,
    plan: ExchangePlan,
    node_state: CompactNode,
    peer_state: Option<CompactNode>,
    outcome: Option<ExchangeOutcome>,
}

impl Job {
    fn run(&mut self, ids: &[NodeId], params: &BootstrapParams, scratch: &mut ExchangeScratch) {
        self.outcome = Some(execute_exchange(
            &self.plan,
            self.node,
            &mut self.node_state,
            self.peer_state.as_mut(),
            ids,
            params,
            scratch,
        ));
    }
}

/// What the planner and the workers share, behind one lock.
#[derive(Default)]
struct Queue {
    /// Exchanges ready to run, oldest first.
    ready: VecDeque<Job>,
    /// Executed exchanges the planner has not collected yet.
    done: Vec<Job>,
    /// Workers asleep on `Stream::work`.
    idle: usize,
    /// The planner is asleep on `Stream::finished`.
    planner_waiting: bool,
    /// Nothing more comes this cycle: workers leave once `ready` is empty.
    closed: bool,
    /// A thread panicked: nobody waits for it.
    broken: bool,
}

#[derive(Default)]
struct Stream {
    queue: Mutex<Queue>,
    /// Signalled when `ready` gains an exchange or the queue closes.
    work: Condvar,
    /// Signalled when `done` gains an exchange or a thread panics.
    finished: Condvar,
}

impl Stream {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Every update under the lock is one push, pop or flag, so the queue
        // stays valid whoever panicked holding it; `broken` says that someone did.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's loop: run the oldest ready exchange and hand it back, until
    /// the queue is closed and empty. One trip to the lock per exchange.
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
    /// workers finished into `inbox`, and takes back the oldest ready
    /// exchange for the planner to run when more than `keep` are ready. With
    /// `wait`, sleeps until there is an exchange to take or to collect.
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
            assert!(
                !queue.broken,
                "a worker thread of the parallel cycle panicked"
            );
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

/// Closes the queue when its holder leaves the cycle, however it leaves:
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

/// The planner's side of a streamed cycle.
struct Planner<'p> {
    /// Per node: whether its state is away on an exchange.
    out: Vec<bool>,
    /// The sequence number of `planned[0]`, the oldest uncommitted exchange.
    base: u32,
    /// Per uncommitted exchange, in planning order: its outcome once back.
    planned: VecDeque<Option<ExchangeOutcome>>,
    /// Exchanges back from execution, to collect.
    inbox: Vec<Job>,
    profile: Option<&'p mut PhaseProfile>,
}

impl Planner<'_> {
    fn clock(&self) -> Option<Instant> {
        self.profile.is_some().then(Instant::now)
    }
}

impl<S: PeerSampler> BootstrapProtocol<S> {
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
        let params = self.params;
        let mut scratch = std::mem::take(&mut self.worker_scratch);
        scratch.resize_with(threads.max(1), || ExchangeScratch::new(&params));
        let (own, workers) = scratch.split_first_mut().expect("at least one slot");
        let keep = QUEUED_PER_WORKER * workers.len();
        let ids = Arc::clone(&self.ids);
        let stream = Stream::default();
        let mut planner = Planner {
            out: vec![false; ctx.network.len()],
            base: 0,
            planned: VecDeque::new(),
            inbox: Vec::new(),
            profile,
        };
        std::thread::scope(|scope| {
            let _leave = Leave(&stream);
            for scratch in workers {
                let (stream, ids) = (&stream, ids.as_slice());
                scope.spawn(move || stream.work(ids, &params, scratch));
            }
            for &node in order {
                if !ctx.network.is_alive(node) {
                    continue;
                }
                // Planning reads the node's own leaf set: wait until it is home.
                self.wait_for(node, &stream, &mut planner, own);
                if let Some(plan) = self.plan_exchange(node, cycle, ctx) {
                    if plan.peer_engaged {
                        self.wait_for(plan.peer, &stream, &mut planner, own);
                    }
                    let job = self.dispatch(&mut planner, node, plan);
                    self.trade(&stream, &mut planner, own, Some(job), keep, false);
                }
            }
            while !planner.planned.is_empty() {
                self.trade(&stream, &mut planner, own, None, 0, true);
            }
        });
        self.worker_scratch = scratch;
    }

    /// Trades with the queue until `node`'s state is home.
    fn wait_for(
        &mut self,
        node: NodeIndex,
        stream: &Stream,
        planner: &mut Planner<'_>,
        scratch: &mut ExchangeScratch,
    ) {
        while planner.out[node.as_usize()] {
            self.trade(stream, planner, scratch, None, 0, true);
        }
    }

    /// Numbers a planned exchange and packs it with the states it touches,
    /// leaving empty ones in their slots.
    fn dispatch(&mut self, planner: &mut Planner<'_>, node: NodeIndex, plan: ExchangePlan) -> Job {
        let seq = planner.base + planner.planned.len() as u32;
        planner.planned.push_back(None);
        let mut take = |index: NodeIndex| {
            planner.out[index.as_usize()] = true;
            let slot = self.nodes[index.as_usize()].as_mut();
            std::mem::take(slot.expect("a planned exchange's nodes hold state"))
        };
        Job {
            seq,
            node,
            node_state: take(node),
            peer_state: plan.peer_engaged.then(|| take(plan.peer)),
            plan,
            outcome: None,
        }
    }

    /// One trip to the queue (see [`Stream::trade`]); runs the exchange it
    /// brings back on this thread, then collects.
    fn trade(
        &mut self,
        stream: &Stream,
        planner: &mut Planner<'_>,
        scratch: &mut ExchangeScratch,
        send: Option<Job>,
        keep: usize,
        wait: bool,
    ) {
        let started = planner.clock();
        let job = stream.trade(send, &mut planner.inbox, keep, wait);
        let ran = job.is_some();
        if let Some(mut job) = job {
            job.run(&self.ids, &self.params, scratch);
            planner.inbox.push(job);
        }
        if let (true, Some(profile), Some(started)) =
            (ran || wait, planner.profile.as_deref_mut(), started)
        {
            profile.execute += started.elapsed();
        }
        self.collect(planner);
    }

    /// Takes back what execution returned: puts the states home and commits
    /// every outcome that is now next in planning order.
    fn collect(&mut self, planner: &mut Planner<'_>) {
        if planner.inbox.is_empty() {
            return;
        }
        let started = planner.clock();
        let mut inbox = std::mem::take(&mut planner.inbox);
        for job in inbox.drain(..) {
            let states = [
                (job.node, Some(job.node_state)),
                (job.plan.peer, job.peer_state),
            ];
            for (index, state) in states {
                if let Some(state) = state {
                    planner.out[index.as_usize()] = false;
                    let slot = self.nodes[index.as_usize()].as_mut();
                    *slot.expect("a state out on an exchange keeps its slot") = state;
                }
            }
            planner.planned[(job.seq - planner.base) as usize] = job.outcome;
        }
        planner.inbox = inbox;
        while let Some(outcome) = planner.planned.front_mut().and_then(Option::take) {
            planner.planned.pop_front();
            planner.base += 1;
            self.commit_outcome(outcome);
        }
        if let (Some(profile), Some(started)) = (planner.profile.as_deref_mut(), started) {
            profile.commit += started.elapsed();
        }
    }
}
