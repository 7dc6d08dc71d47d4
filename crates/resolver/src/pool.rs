//! A persistent worker pool: long-lived OS threads fed by per-worker
//! FIFO queues.
//!
//! [`QueryEngine`](crate::QueryEngine)'s batch path used to tear down
//! and respawn scoped threads for every batch — a 25–35% per-batch tax
//! on a single-CPU host, paid again for every wave, day, and vantage of
//! a campaign. The [`WorkerPool`] replaces those scoped spawns with
//! workers that are started once (lazily, on the first batch that needs
//! them) and then reused for the engine's whole lifetime.
//!
//! ## Design
//!
//! - **One FIFO queue per worker.** Work is submitted to an explicit
//!   worker index, not to a shared queue, and there is no work stealing.
//!   This is what the engine's determinism contract needs: a zone's
//!   queries are all submitted to the same worker index, so they execute
//!   sequentially in submission order regardless of how many workers the
//!   pool holds or how the OS schedules them.
//! - **Jobs are owned closures** (`Box<dyn FnOnce() + Send>`). The
//!   workspace forbids `unsafe`, so the pool cannot lend workers
//!   stack-borrowed data the way `std::thread::scope` does; callers move
//!   `Arc`-shared state into each job and collect results over a
//!   channel.
//! - **Panics don't poison the pool.** Each job runs under
//!   `catch_unwind`, so a panicking job cannot kill its worker — the
//!   caller observes the panic as a disconnect on whatever result
//!   channel the job held (every capture is dropped during the unwind),
//!   and the worker moves on to its next queued job. One bad batch
//!   cannot wedge the campaign, and a job enqueued behind a panicking
//!   one still runs.
//!
//! Dropping the pool closes every queue and joins every worker, so an
//! engine going out of scope leaks no threads.

use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::thread::{Builder, JoinHandle};

/// A unit of work for one worker: an owned closure.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// One long-lived worker: its job queue and thread handle.
struct Worker {
    queue: Option<Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn(index: usize) -> Worker {
        let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
        let handle = Builder::new()
            .name(format!("engine-worker-{index}"))
            .spawn(move || {
                // Run jobs in FIFO order until the pool drops the sender.
                // A panicking job must not take the worker (and the jobs
                // queued behind it) down with it: its captures — result
                // senders included — are dropped during the unwind,
                // which is how the submitting batch observes the
                // failure, and the worker moves on.
                while let Ok(job) = rx.recv() {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                }
            })
            .expect("spawn engine worker thread");
        Worker { queue: Some(tx), handle: Some(handle) }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Close the queue first so the thread's `recv` loop ends, then
        // join it. A worker that died in a job panic joins immediately;
        // the panic itself was already surfaced to the submitting batch
        // through its result channel, so the payload is dropped here.
        self.queue.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A set of persistent workers addressed by index. See the module docs.
#[derive(Default)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// An empty pool; workers are spawned by [`WorkerPool::ensure`].
    pub fn new() -> WorkerPool {
        WorkerPool::default()
    }

    /// Number of workers currently alive.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Grow the pool to at least `n` workers. Existing workers (and
    /// their queued work) are untouched; the pool never shrinks.
    pub fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            self.workers.push(Worker::spawn(self.workers.len()));
        }
    }

    /// Enqueue `job` on worker `index`'s FIFO queue and return
    /// immediately. Jobs submitted to one index run sequentially in
    /// submission order; jobs on different indices run concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range — call
    /// [`ensure`](WorkerPool::ensure) first.
    pub fn submit(&mut self, index: usize, job: Job) {
        let worker = &self.workers[index];
        let Some(queue) = worker.queue.as_ref() else {
            unreachable!("live workers always hold their queue sender")
        };
        if let Err(SendError(job)) = queue.send(job) {
            // Unreachable in practice: job panics are caught inside the
            // worker loop, so its receiver only closes if the thread was
            // torn down some other way. Respawn rather than wedge.
            self.workers[index] = Worker::spawn(index);
            let fresh = self.workers[index].queue.as_ref().expect("fresh worker holds its queue");
            fresh.send(job).expect("freshly spawned worker accepts work");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Submit one job per entry of `work` and wait for all of them,
    /// panicking if any worker died first — the collection pattern the
    /// engine's batch path uses.
    fn run_all(pool: &mut WorkerPool, work: Vec<(usize, Job)>) {
        let (tx, rx) = channel::<()>();
        let total = work.len();
        for (index, job) in work {
            let done = tx.clone();
            pool.submit(
                index,
                Box::new(move || {
                    job();
                    let _ = done.send(());
                }),
            );
        }
        drop(tx);
        let acked = rx.iter().count();
        assert!(acked == total, "a worker panicked ({acked}/{total} jobs finished)");
    }

    #[test]
    fn jobs_run_and_pool_is_reusable() {
        let mut pool = WorkerPool::new();
        pool.ensure(3);
        assert_eq!(pool.size(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _round in 0..4 {
            let work: Vec<(usize, Job)> = (0..3)
                .map(|w| {
                    let c = counter.clone();
                    (
                        w,
                        Box::new(move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        }) as Job,
                    )
                })
                .collect();
            run_all(&mut pool, work);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 12);
        // `ensure` with a smaller count never shrinks the pool.
        pool.ensure(1);
        assert_eq!(pool.size(), 3);
    }

    #[test]
    fn one_worker_runs_its_queue_in_fifo_order() {
        let mut pool = WorkerPool::new();
        pool.ensure(1);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let work: Vec<(usize, Job)> = (0..16)
            .map(|i| {
                let log = log.clone();
                (
                    0usize,
                    Box::new(move || {
                        log.lock().push(i);
                    }) as Job,
                )
            })
            .collect();
        run_all(&mut pool, work);
        assert_eq!(*log.lock(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_is_observable_and_pool_keeps_serving() {
        let mut pool = WorkerPool::new();
        pool.ensure(2);

        // The panicking job drops its result sender during unwind, so
        // the caller sees a disconnect instead of a completion — the
        // signal the engine turns into its batch-level panic.
        let (tx, rx) = channel::<u32>();
        let good = tx.clone();
        pool.submit(
            0,
            Box::new(move || {
                good.send(7).unwrap();
            }),
        );
        let bad = tx.clone();
        pool.submit(
            1,
            Box::new(move || {
                let _hold = bad;
                panic!("injected job failure");
            }),
        );
        // A job queued behind the panicking one on the same worker must
        // still run: the unwind is caught inside the worker loop.
        let after = tx.clone();
        pool.submit(
            1,
            Box::new(move || {
                after.send(9).unwrap();
            }),
        );
        drop(tx);
        let mut received: Vec<u32> = rx.iter().collect();
        received.sort_unstable();
        assert_eq!(
            received,
            vec![7, 9],
            "panicking job must not produce a result or kill its queue"
        );

        // The pool keeps serving whole batches after a panic, on the
        // same worker set.
        assert_eq!(pool.size(), 2);
        let counter = Arc::new(AtomicUsize::new(0));
        let work: Vec<(usize, Job)> = (0..2)
            .map(|w| {
                let c = counter.clone();
                (
                    w,
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as Job,
                )
            })
            .collect();
        run_all(&mut pool, work);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_joins_all_workers() {
        let mut pool = WorkerPool::new();
        pool.ensure(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let work: Vec<(usize, Job)> = (0..4)
            .map(|w| {
                let c = counter.clone();
                (
                    w,
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as Job,
                )
            })
            .collect();
        // Submit without waiting, then drop: Drop must still run every
        // queued job's worker to completion before joining.
        for (index, job) in work {
            pool.submit(index, job);
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }
}
