//! A persistent worker pool for the parallel cycle engine.
//!
//! The first parallel engine spawned a fresh `thread::scope` per wave, which
//! put two thread spawns and two joins on the critical path of every wave —
//! measurable once a million-node cycle runs hundreds of waves. This pool
//! spawns its workers once and feeds them closures over channels; a wave
//! costs two channel sends per busy worker instead of a spawn/join pair.
//!
//! # Borrowed closures and why the one `unsafe` block is sound
//!
//! [`WorkerPool::run`] accepts closures that borrow the caller's stack
//! (`Task<'scope>`), exactly like `std::thread::scope`. Channels require
//! `'static` payloads, so the closure's lifetime is erased with a transmute
//! before dispatch. Soundness rests on `run` being a completion barrier:
//!
//! * every dispatched task is acknowledged by its worker after it finishes
//!   (or panics — tasks run under `catch_unwind`), and
//! * `run` does not return — and does not *unwind* — until it has collected
//!   one acknowledgement per dispatched task (`AckGuard` drains them even
//!   while propagating a panic from the caller-executed task).
//!
//! Therefore no erased closure can outlive the borrows it captures: the
//! frames it borrows from are alive for the whole of `run`, and the closure
//! is gone (executed and dropped worker-side) before `run` ends.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A unit of work submitted to the pool: a closure that may borrow the
/// caller's stack for `'scope`, as with `std::thread::scope`.
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// The same closure with its borrow lifetime erased so it can cross a
/// channel. Only ever constructed inside [`WorkerPool::run`], which
/// guarantees the closure finishes before the borrows expire.
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

/// A worker's report for one finished task: `None` for normal completion,
/// `Some(payload)` if the task panicked (the payload is re-thrown by `run`).
type Ack = Option<Box<dyn std::any::Any + Send>>;

struct Worker {
    sender: Sender<ErasedTask>,
    handle: Option<JoinHandle<()>>,
}

/// A pool of `threads - 1` long-lived worker threads plus the calling thread.
///
/// Created once per engine and reused across every wave of every cycle. With
/// `threads <= 1` no workers are spawned and [`WorkerPool::run`] executes all
/// tasks inline, so single-threaded callers pay nothing.
pub struct WorkerPool {
    threads: usize,
    workers: Vec<Worker>,
    ack_receiver: Receiver<Ack>,
}

impl WorkerPool {
    /// Creates a pool sized for `threads` total executors: the calling thread
    /// plus `threads - 1` spawned workers.
    pub(crate) fn new(threads: usize) -> WorkerPool {
        let (ack_sender, ack_receiver) = channel::<Ack>();
        let workers = (1..threads.max(1))
            .map(|_| {
                let (sender, receiver) = channel::<ErasedTask>();
                let acks = ack_sender.clone();
                let handle = std::thread::spawn(move || {
                    for task in receiver {
                        let outcome = catch_unwind(AssertUnwindSafe(task)).err();
                        if acks.send(outcome).is_err() {
                            break;
                        }
                    }
                });
                Worker {
                    sender,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool {
            threads: threads.max(1),
            workers,
            ack_receiver,
        }
    }

    /// Total executor count (workers plus the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task to completion before returning, using the calling
    /// thread plus the pool's workers. Tasks may borrow the caller's stack.
    ///
    /// If any task panics, the first panic payload is re-thrown — but only
    /// after every dispatched task has finished, preserving the barrier.
    pub fn run(&mut self, mut tasks: Vec<Task<'_>>) {
        if self.workers.is_empty() || tasks.len() <= 1 {
            for task in tasks.drain(..) {
                task();
            }
            return;
        }

        // Keep one task back for the calling thread so it contributes work
        // instead of idling on the acknowledgement channel.
        let inline = tasks.pop();
        let dispatched = tasks.len();
        for (slot, task) in tasks.drain(..).enumerate() {
            let erased = erase::erase_task(task);
            let worker = &self.workers[slot % self.workers.len()];
            worker
                .sender
                .send(erased)
                .expect("worker thread terminated while the pool is alive");
        }

        // The guard drains exactly `dispatched` acknowledgements on drop, so
        // even if the inline task panics, `run`'s frame stays on the stack
        // until every borrowed closure has finished worker-side.
        let mut guard = AckGuard {
            receiver: &self.ack_receiver,
            pending: dispatched,
            panic: None,
        };
        if let Some(task) = inline {
            task();
        }
        guard.drain();
        if let Some(payload) = guard.panic.take() {
            drop(guard);
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Dropping the sender closes the channel; the worker's `for` loop
            // ends and the thread exits.
            let (closed, _) = channel::<ErasedTask>();
            worker.sender = closed;
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, formatter: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        formatter
            .debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Collects one acknowledgement per dispatched task, including during unwind.
struct AckGuard<'pool> {
    receiver: &'pool Receiver<Ack>,
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl AckGuard<'_> {
    fn drain(&mut self) {
        while self.pending > 0 {
            match self.receiver.recv() {
                Ok(ack) => {
                    self.pending -= 1;
                    if self.panic.is_none() {
                        self.panic = ack;
                    }
                }
                // A worker died without acknowledging. Its thread is gone, so
                // it no longer touches borrowed state; stop waiting.
                Err(_) => break,
            }
        }
    }
}

impl Drop for AckGuard<'_> {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The single `unsafe` operation in the crate, quarantined with its safety
/// argument. See the module documentation for the full reasoning.
mod erase {
    #[allow(unsafe_code)]
    pub(super) fn erase_task(task: super::Task<'_>) -> super::ErasedTask {
        // SAFETY: the erased closure is sent to a pool worker, executed, and
        // dropped before `WorkerPool::run` returns or unwinds (the `AckGuard`
        // blocks until the worker acknowledges completion). The borrows
        // captured for `'scope` are therefore live for the closure's entire
        // existence, which is exactly the guarantee `'static` is standing in
        // for across the channel.
        unsafe { std::mem::transmute::<super::Task<'_>, super::ErasedTask>(task) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_threaded_pool_runs_inline() {
        let mut pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let counter = AtomicU64::new(0);
        let tasks: Vec<Task<'_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn parallel_pool_completes_all_borrowed_tasks() {
        let mut pool = WorkerPool::new(4);
        let mut results = vec![0u64; 64];
        let tasks: Vec<Task<'_>> = results
            .iter_mut()
            .enumerate()
            .map(|(index, slot)| {
                Box::new(move || {
                    *slot = (index as u64 + 1) * 3;
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        for (index, &value) in results.iter().enumerate() {
            assert_eq!(value, (index as u64 + 1) * 3);
        }
    }

    #[test]
    fn pool_is_reusable_across_many_rounds() {
        let mut pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        for _ in 0..50 {
            let tasks: Vec<Task<'_>> = (0..5)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 250);
    }

    #[test]
    fn worker_panic_propagates_after_the_barrier() {
        let mut pool = WorkerPool::new(2);
        let counter = AtomicU64::new(0);
        let tasks: Vec<Task<'_>> = vec![
            Box::new(|| panic!("worker task exploded")),
            Box::new(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            }),
        ];
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        assert!(outcome.is_err(), "panic must propagate to the caller");
        // The pool survives a panicking task and keeps working.
        let tasks: Vec<Task<'_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert!(counter.load(Ordering::Relaxed) >= 4);
    }
}
