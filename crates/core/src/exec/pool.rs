//! A scoped worker pool built on `std::thread::scope`: one shared FIFO
//! queue, drained by every worker.
//!
//! Tasks are `FnOnce` closures that may borrow from the enclosing job run
//! (the job, the cluster spec, the input records): the pool's lifetime
//! parameter ties every task to the scope that owns the worker threads.
//! With zero workers the pool degrades to immediate inline execution on
//! the submitting thread, which is what makes the `threads = 1`
//! configuration share the exact code path of the parallel one.
//!
//! # Scheduling
//!
//! The pool only ever sees coarse tasks — a map-task plan (≥ 100 µs), one
//! reducer's finish, one dataflow partition's plan — so a single
//! mutex-guarded queue is uncontended and nothing cleverer pays: workers
//! pop the oldest task, and a thread waiting on results helps through
//! [`Pool::try_run_one`].
//!
//! Which worker runs a task never influences results: tasks communicate
//! only through [`super::Gather`]/[`super::Planner`] slots, and the
//! scheduling layer consumes those by index, in event order.
//!
//! # Parking
//!
//! Idle workers wait on a condvar and are counted, under the queue lock,
//! as sleepers; a submitter reads the count under the same lock and skips
//! the notify syscall while every worker is busy (the common case
//! mid-wave). [`Pool::submit_batch`] enqueues a whole wave with one wake
//! decision instead of one notify per task.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::Duration;

/// A unit of pool work: a boxed closure tied to the job-run scope.
pub type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

struct Queue<'env> {
    tasks: VecDeque<Task<'env>>,
    /// Workers waiting on `cv`. Guarded by the queue lock, like the tasks
    /// they wait for, so a wakeup cannot be lost.
    sleepers: usize,
    shutdown: bool,
}

struct Shared<'env> {
    queue: Mutex<Queue<'env>>,
    cv: Condvar,
    panicked: AtomicBool,
}

/// A fixed-size pool of scoped worker threads over one FIFO queue.
pub struct Pool<'env> {
    shared: Arc<Shared<'env>>,
    workers: usize,
    /// Tasks ever handed to `submit`/`submit_batch`.
    #[cfg(test)]
    submitted: Arc<std::sync::atomic::AtomicUsize>,
}

impl<'env> Pool<'env> {
    /// Spawns `workers` threads on `scope`. Zero workers is valid: tasks
    /// then run inline at submission.
    pub fn new<'scope>(scope: &'scope Scope<'scope, 'env>, workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                sleepers: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        for _ in 0..workers {
            let sh = Arc::clone(&shared);
            scope.spawn(move || worker_loop(&sh));
        }
        Pool {
            shared,
            workers,
            #[cfg(test)]
            submitted: Arc::default(),
        }
    }

    /// Number of worker threads (0 means inline execution).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a task — or runs it immediately when the pool has no
    /// workers.
    pub fn submit(&self, task: impl FnOnce() + Send + 'env) {
        self.submit_batch(vec![Box::new(task) as Task<'env>]);
    }

    /// Enqueues a whole batch, in order, with a single wake decision.
    pub fn submit_batch(&self, tasks: Vec<Task<'env>>) {
        #[cfg(test)]
        self.submitted.fetch_add(tasks.len(), Ordering::Relaxed);
        if self.workers == 0 {
            for task in tasks {
                task();
            }
            return;
        }
        let n = tasks.len();
        let sleepers = {
            let mut q = self.shared.queue.lock().expect("pool queue lock");
            q.tasks.extend(tasks);
            q.sleepers
        };
        // No syscall when nobody is parked: a busy worker finds the tasks
        // on its next pop.
        match n.min(sleepers) {
            0 => {}
            1 => self.shared.cv.notify_one(),
            _ => self.shared.cv.notify_all(),
        }
    }

    /// Runs the oldest queued task on the calling thread, if there is one.
    /// Waiters use this to help drain the pool instead of blocking.
    pub fn try_run_one(&self) -> bool {
        if self.workers == 0 {
            return false;
        }
        let task = self
            .shared
            .queue
            .lock()
            .expect("pool queue lock")
            .tasks
            .pop_front();
        task.map(|task| task()).is_some()
    }

    /// Drops every task no worker has started, and returns how many. An
    /// engine call ends with this: what is still queued then is
    /// speculation, planned again by the next call (see
    /// [`super::Planner::rewind`]).
    pub fn discard_queued(&self) -> usize {
        let discarded =
            std::mem::take(&mut self.shared.queue.lock().expect("pool queue lock").tasks);
        discarded.len()
    }

    /// Propagates a worker-thread panic to the caller. Waiters call this
    /// inside their wait loops so a crashed worker cannot deadlock the
    /// scheduler.
    pub fn assert_healthy(&self) {
        if self.shared.panicked.load(Ordering::Acquire) {
            panic!("an execution-layer worker thread panicked");
        }
    }

    /// A short bounded sleep used by wait loops between health checks.
    pub(crate) fn wait_beat() -> Duration {
        Duration::from_millis(25)
    }

    /// The live count of tasks ever submitted.
    #[cfg(test)]
    pub(crate) fn submitted(&self) -> Arc<std::sync::atomic::AtomicUsize> {
        Arc::clone(&self.submitted)
    }
}

impl Drop for Pool<'_> {
    fn drop(&mut self) {
        // `Drop` must not panic: the lock is poisoned only if a thread died
        // holding it, and tasks run outside it.
        if let Ok(mut q) = self.shared.queue.lock() {
            q.shutdown = true;
        }
        self.shared.cv.notify_all();
    }
}

/// Runs queued tasks until the pool shuts down with the queue drained.
/// `panicked` is stored with `Release` after a task unwinds and read with
/// `Acquire` by [`Pool::assert_healthy`].
fn worker_loop(sh: &Shared<'_>) {
    let mut q = sh.queue.lock().expect("pool queue lock");
    loop {
        if let Some(task) = q.tasks.pop_front() {
            drop(q);
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
                sh.panicked.store(true, Ordering::Release);
            }
            q = sh.queue.lock().expect("pool queue lock");
        } else if q.shutdown {
            return;
        } else {
            q.sleepers += 1;
            q = sh.cv.wait(q).expect("pool queue lock");
            q.sleepers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn zero_workers_runs_inline() {
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let pool = Pool::new(s, 0);
            pool.submit(|| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 1, "inline = done at submit");
            assert!(!pool.try_run_one(), "nothing queued");
            assert_eq!(pool.submitted().load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn one_worker_drains_in_fifo_order() {
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let pool = Pool::new(s, 1);
            let tasks: Vec<Task<'_>> = (0..100)
                .map(|i| {
                    let tx = tx.clone();
                    Box::new(move || tx.send(i).expect("receiver alive")) as Task<'_>
                })
                .collect();
            pool.submit_batch(tasks);
            pool.submit(move || tx.send(100).expect("receiver alive"));
            assert_eq!(pool.submitted().load(Ordering::SeqCst), 101);
        });
        // The scope joined the worker: everything ran, oldest first.
        assert_eq!(rx.iter().collect::<Vec<_>>(), (0..=100).collect::<Vec<_>>());
    }

    #[test]
    fn a_waiter_helps_through_try_run_one() {
        // The only worker is held inside a task, so nothing else can run
        // the queued one: the caller must.
        let (entered_tx, entered) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let pool = Pool::new(s, 1);
            pool.submit(move || {
                entered_tx.send(()).expect("receiver alive");
                released.recv().expect("sender alive");
            });
            entered.recv().expect("worker started the blocker");
            pool.submit(|| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert!(pool.try_run_one(), "the queued task is ours to run");
            assert_eq!(hits.load(Ordering::SeqCst), 1);
            assert!(!pool.try_run_one(), "queue is empty again");
            release.send(()).expect("worker alive");
        });
    }

    #[test]
    fn a_panicking_task_fails_the_health_check_not_the_worker() {
        let (done_tx, done) = mpsc::channel();
        std::thread::scope(|s| {
            let pool = Pool::new(s, 1);
            pool.assert_healthy();
            pool.submit(|| panic!("task panics (expected by this test)"));
            // Same worker, next task: it survived the unwind, and FIFO
            // order means the panic has been recorded by now.
            pool.submit(move || done_tx.send(()).expect("receiver alive"));
            done.recv().expect("worker outlives a panicking task");
            let health = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.assert_healthy();
            }));
            assert!(health.is_err(), "assert_healthy re-raises the worker panic");
        });
    }

    #[test]
    fn pool_drop_releases_parked_workers() {
        // The scope would hang forever if Drop failed to wake the workers.
        std::thread::scope(|s| {
            let pool = Pool::new(s, 2);
            while pool.shared.queue.lock().expect("pool queue lock").sleepers < 2 {
                std::thread::yield_now();
            }
        });
    }
}
