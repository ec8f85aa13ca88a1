//! The parallel execution layer.
//!
//! The engine is split into two layers:
//!
//! - a **scheduling layer** (the event loop in [`crate::engine`]) that owns
//!   every piece of shared simulation state — disk queues, progress,
//!   timeline, metrics — and mutates it in a deterministic order derived
//!   purely from the event queue;
//! - an **execution layer** (this module) that runs the *pure*, coarse
//!   part of the work — map-task plans and the reducers' finish wave — on
//!   a pool of host threads.
//!
//! Nothing a worker thread computes depends on simulated time or on any
//! other worker, so the scheduling layer can replay recorded results in
//! exactly the order the sequential engine would have produced them. The
//! consequence is the engine's core contract: a job's [`crate::job::JobOutcome`]
//! is bit-identical at any thread count, including `threads = 1`.
//!
//! What is *not* here: shuffle deliveries. A reducer's mailbox is ~1.5 µs
//! of work, far below the cost of handing it to another thread and of
//! moving the reducer's table to that thread's cache, so the scheduler
//! records and replays deliveries itself, in pop order (`Engine::land`).
//!
//! Three primitives:
//!
//! - [`Pool`] — scoped `std::thread` workers draining one shared FIFO
//!   queue (the sanctioned dependency set has no crossbeam); tasks may
//!   borrow the job and input. Zero workers means inline execution.
//! - [`Planner`] — speculative execution of indexed pure tasks (map-task
//!   plans): a bounded window of upcoming tasks runs ahead on the pool,
//!   and the scheduler claims results by index, stealing unstarted work
//!   inline so it never idles.
//! - [`Gather`] — a fan-out/fan-in cell: submit N tasks as one
//!   [`Pool::submit_batch`], then collect all N results while helping the
//!   pool drain; only the completing task wakes the waiter.

mod gather;
mod planner;
mod pool;

pub use gather::Gather;
pub use planner::Planner;
pub use pool::{Pool, Task};
