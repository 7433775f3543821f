//! A persistent worker pool: threads are spawned once per [`crate::Runtime`]
//! and reused across every dispatch, replacing the per-call
//! `std::thread::scope` spawning of the original design (OS thread creation
//! dominated small- and mid-sized products).
//!
//! Jobs are `'static` closures; callers share inputs via `Arc` and collect
//! owned per-chunk outputs over a channel, which keeps the pool free of
//! `unsafe` lifetime laundering (`#![forbid(unsafe_code)]` holds).

use std::cell::Cell;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;

thread_local! {
    /// True on threads spawned by a [`WorkerPool`]. Dispatch primitives
    /// consult this to run *nested* dispatches inline: a pool job that
    /// itself dispatched to the pool and blocked on the results could
    /// deadlock once every worker is such a job (all waiting, none
    /// computing). Inline nested execution is bit-identical by the
    /// thread-invariance contract, so this only changes scheduling.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the calling thread is a [`WorkerPool`] worker.
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// A fixed-size pool of worker threads executing boxed jobs in FIFO order.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (min 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        #[expect(clippy::expect_used, reason = "failing to spawn pool workers at construction is unrecoverable")]
        #[expect(clippy::disallowed_methods, reason = "the runtime pool is the one place numerics threads come from; every dispatch keeps its fixed partition")]
        let workers = (0..threads.max(1))
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("srmac-rt-{i}"))
                    .spawn(move || {
                        IN_WORKER.with(|flag| flag.set(true));
                        loop {
                            // Holding the lock only while dequeueing;
                            // disconnect (pool drop) ends the loop.
                            let job = {
                                #[expect(clippy::expect_used, reason = "a poisoned receiver means a worker already panicked — propagate the abort")]
                                let rx = receiver.lock().expect("pool receiver poisoned");
                                rx.recv()
                            };
                            match job {
                                // Isolate panics so one bad job cannot kill
                                // the worker: the pool keeps its full size,
                                // and the job's result-sender drops during
                                // unwinding, so the dispatching call observes
                                // a missing block and fails loudly instead of
                                // hanging on a channel that never disconnects.
                                Ok(job) => {
                                    let outcome =
                                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                                    if let Err(payload) = outcome {
                                        let msg = payload
                                            .downcast_ref::<&str>()
                                            .map(ToString::to_string)
                                            .or_else(|| payload.downcast_ref::<String>().cloned())
                                            .unwrap_or_else(|| "non-string panic".to_owned());
                                        eprintln!("srmac-runtime worker: job panicked: {msg}");
                                    }
                                }
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("failed to spawn runtime worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one job.
    ///
    /// # Panics
    ///
    /// Panics if the pool has already shut down (cannot happen while the
    /// pool is alive: workers only exit when the sender is dropped).
    pub fn execute(&self, job: Job) {
        #[expect(
            clippy::expect_used,
            reason = "submitting after shutdown() is an API-misuse bug worth aborting on, and workers only disconnect after a panic — propagate the abort"
        )]
        self.sender
            .as_ref()
            .expect("pool already shut down")
            .send(job)
            .expect("runtime worker pool disconnected");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain pending jobs and exit.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs_and_joins_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(3);
            assert_eq!(pool.threads(), 3);
            let (tx, rx) = channel();
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                let tx = tx.clone();
                pool.execute(Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(());
                }));
            }
            drop(tx);
            // All 64 jobs complete even while the pool stays alive.
            for _ in 0..64 {
                rx.recv().unwrap();
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        // Two panicking jobs, then a healthy one: with only one worker,
        // the healthy job can only complete if the worker survived both.
        for _ in 0..2 {
            pool.execute(Box::new(|| panic!("boom")));
        }
        pool.execute(Box::new(move || {
            let _ = tx.send(42);
        }));
        assert_eq!(rx.recv().unwrap(), 42);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn pool_survives_reuse_across_many_batches() {
        let pool = WorkerPool::new(2);
        for _ in 0..10 {
            let (tx, rx) = channel();
            for i in 0..8usize {
                let tx = tx.clone();
                pool.execute(Box::new(move || {
                    let _ = tx.send(i * i);
                }));
            }
            drop(tx);
            let mut got: Vec<usize> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36, 49]);
        }
    }
}
