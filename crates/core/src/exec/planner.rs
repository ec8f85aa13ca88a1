//! Speculative execution of indexed pure tasks.
//!
//! The scheduler consumes map-task plans in chunk-index order, but the
//! plans themselves are pure functions of the index. The planner keeps a
//! bounded window of upcoming indices in flight on the pool; when the
//! scheduler asks for index `i` it either finds the result ready, helps
//! the pool while a worker finishes it, or — if no worker has started it
//! yet — steals the slot and computes inline. The steal path is also the
//! entire behavior at `threads = 1`, so both configurations execute the
//! same code.
//!
//! The pool a planner submits to lives for one engine call, and the call
//! ends by discarding the tasks no worker started
//! ([`Pool::discard_queued`]). Their slots are `Pending` again, and
//! [`Planner::rewind`] moves the submission frontier back so the next
//! call's [`Planner::prime`] plans them again; results a worker had
//! finished stay `Done`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use super::Pool;

enum Slot<T> {
    /// Not started; either a worker or the scheduler may claim it.
    Pending,
    /// Some thread is computing it right now.
    Claimed,
    /// Result ready for pickup.
    Done(T),
    /// Result already handed to the scheduler.
    Taken,
}

struct State<T> {
    slots: Vec<Slot<T>>,
    /// Next index eligible for speculative submission to the pool.
    next_submit: usize,
    /// Results handed to the scheduler so far: submission runs at most
    /// `window` indices ahead of them.
    taken: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// A bounded-window prefetcher for `n` indexed pure tasks.
pub struct Planner<T> {
    shared: Arc<Shared<T>>,
    window: usize,
}

impl<T: Send> Planner<T> {
    /// A planner over task indices `0..n` keeping at most `window`
    /// speculative submissions ahead of the scheduler.
    pub fn new(n: usize, window: usize) -> Self {
        let slots = (0..n).map(|_| Slot::Pending).collect();
        Planner {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    slots,
                    next_submit: 0,
                    taken: 0,
                }),
                cv: Condvar::new(),
            }),
            window: window.max(1),
        }
    }

    /// Fills the speculation window on `pool`. Call at the start of each
    /// call that opens a pool, before its event loop.
    pub fn prime<'env, F>(&self, pool: &Pool<'env>, compute: F)
    where
        T: 'env,
        F: Fn(usize) -> T + Copy + Send + 'env,
    {
        while self.submit_one(pool, compute) {}
    }

    /// Once a call's pool is gone: moves the submission frontier back to
    /// the first slot whose queued task was discarded.
    pub fn rewind(&self) {
        let mut st = self.shared.state.lock().expect("planner lock");
        let frontier = st.next_submit;
        if let Some(i) = st.slots[..frontier]
            .iter()
            .position(|s| matches!(s, Slot::Pending))
        {
            st.next_submit = i;
        }
    }

    /// Submits the next pending index to the pool while the window has
    /// room. Speculation is disabled on a worker-less pool: the scheduler
    /// will claim every slot inline via [`Planner::take`] instead.
    fn submit_one<'env, F>(&self, pool: &Pool<'env>, compute: F) -> bool
    where
        T: 'env,
        F: Fn(usize) -> T + Copy + Send + 'env,
    {
        if pool.workers() == 0 {
            return false;
        }
        let index = {
            let mut st = self.shared.state.lock().expect("planner lock");
            // Skip slots a past call planned or the scheduler stole.
            while st
                .slots
                .get(st.next_submit)
                .is_some_and(|s| !matches!(s, Slot::Pending))
            {
                st.next_submit += 1;
            }
            if st.next_submit >= st.slots.len().min(st.taken + self.window) {
                return false;
            }
            let i = st.next_submit;
            st.next_submit += 1;
            i
        };
        let shared = Arc::clone(&self.shared);
        pool.submit(move || {
            let claimed = {
                let mut st = shared.state.lock().expect("planner lock");
                if matches!(st.slots[index], Slot::Pending) {
                    st.slots[index] = Slot::Claimed;
                    true
                } else {
                    false
                }
            };
            if !claimed {
                // The scheduler stole this index; nothing to do.
                return;
            }
            let computed = catch_unwind(AssertUnwindSafe(|| compute(index)));
            let mut st = shared.state.lock().expect("planner lock");
            let value = match computed {
                Ok(value) => value,
                Err(panic) => {
                    // Unclaimed again: the scheduler computes it inline and
                    // meets the panic itself — in this call, or in a later
                    // one whose pool never saw this worker fail.
                    st.slots[index] = Slot::Pending;
                    drop(st);
                    shared.cv.notify_all();
                    resume_unwind(panic);
                }
            };
            st.slots[index] = Slot::Done(value);
            drop(st);
            shared.cv.notify_all();
        });
        true
    }

    /// Returns the result for `index`, computing it inline if no worker
    /// has started it. Tops up the speculation window as a side effect.
    pub fn take<'env, F>(&self, index: usize, pool: &Pool<'env>, compute: F) -> T
    where
        T: 'env,
        F: Fn(usize) -> T + Copy + Send + 'env,
    {
        self.shared.state.lock().expect("planner lock").taken += 1;
        self.submit_one(pool, compute);
        loop {
            let mut st = self.shared.state.lock().expect("planner lock");
            match st.slots[index] {
                Slot::Done(_) => {
                    let Slot::Done(value) = std::mem::replace(&mut st.slots[index], Slot::Taken)
                    else {
                        unreachable!()
                    };
                    return value;
                }
                Slot::Pending => {
                    // Steal: mark claimed so a late worker task skips it.
                    st.slots[index] = Slot::Claimed;
                    drop(st);
                    return compute(index);
                }
                Slot::Claimed => {
                    drop(st);
                    // A worker is on it; make progress elsewhere instead
                    // of sleeping, then re-check.
                    if pool.try_run_one() {
                        continue;
                    }
                    let st = self.shared.state.lock().expect("planner lock");
                    if matches!(st.slots[index], Slot::Claimed) {
                        let _ = self
                            .shared
                            .cv
                            .wait_timeout(st, Pool::wait_beat())
                            .expect("planner cv");
                        pool.assert_healthy();
                    }
                }
                Slot::Taken => unreachable!("map-task plan {index} taken twice"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_path_computes_every_index() {
        std::thread::scope(|s| {
            let pool = Pool::new(s, 0);
            let planner: Planner<usize> = Planner::new(8, 4);
            planner.prime(&pool, |i| i * i);
            for i in 0..8 {
                assert_eq!(planner.take(i, &pool, |i| i * i), i * i);
            }
        });
    }

    #[test]
    fn speculative_path_matches_inline_results() {
        std::thread::scope(|s| {
            let pool = Pool::new(s, 4);
            let planner: Planner<usize> = Planner::new(100, 8);
            planner.prime(&pool, |i| i * 3 + 1);
            for i in 0..100 {
                assert_eq!(planner.take(i, &pool, |i| i * 3 + 1), i * 3 + 1);
            }
        });
    }

    #[test]
    fn plans_discarded_with_a_call_are_planned_by_the_next() {
        let planner: Planner<usize> = Planner::new(40, 6);
        for calls in [0..3, 3..4, 4..40] {
            std::thread::scope(|s| {
                let pool = Pool::new(s, 2);
                planner.prime(&pool, |i| i + 1);
                for i in calls {
                    assert_eq!(planner.take(i, &pool, |i| i + 1), i + 1);
                }
                pool.discard_queued();
            });
            planner.rewind();
        }
    }

    #[test]
    fn a_plan_that_panicked_on_a_worker_is_computed_by_a_later_call() {
        let planner: Planner<usize> = Planner::new(1, 1);
        std::thread::scope(|s| {
            // Dropping the pool lets its worker run the queued plan, which
            // panics there; the call sees nothing.
            let pool = Pool::new(s, 1);
            planner.prime(&pool, |_| panic!("plan panics (expected by this test)"));
        });
        let unclaimed = matches!(
            planner.shared.state.lock().expect("planner lock").slots[0],
            Slot::Pending
        );
        assert!(unclaimed, "a claimed slot would stall its taker forever");
        planner.rewind();
        std::thread::scope(|s| {
            let pool = Pool::new(s, 0);
            assert_eq!(planner.take(0, &pool, |i| i + 7), 7);
        });
    }

    #[test]
    fn out_of_order_takes_are_supported() {
        // The scheduler normally consumes in order, but nothing in the
        // contract requires it.
        std::thread::scope(|s| {
            let pool = Pool::new(s, 2);
            let planner: Planner<usize> = Planner::new(10, 3);
            planner.prime(&pool, |i| i + 7);
            for i in (0..10).rev() {
                assert_eq!(planner.take(i, &pool, |i| i + 7), i + 7);
            }
        });
    }
}
