//! Fan-out/fan-in collection of a fixed-size task batch.
//!
//! The scheduler uses this for the reducers' finish wave (and the dataflow
//! skip path for its per-partition plans): it submits one task per slot,
//! then waits for all of them, helping the pool drain while it waits so
//! the main thread is never idle capacity.

use std::sync::{Arc, Condvar, Mutex};

use super::Pool;

struct State<T> {
    slots: Vec<Option<T>>,
    remaining: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// A one-shot collection cell for exactly `n` slotted results.
pub struct Gather<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Gather<T> {
    fn clone(&self) -> Self {
        Gather {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send> Gather<T> {
    /// A gather expecting results for slots `0..n`.
    pub fn new(n: usize) -> Self {
        Gather {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    slots: (0..n).map(|_| None).collect(),
                    remaining: n,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Deposits the result for `slot`. Each slot must be filled exactly
    /// once.
    ///
    /// Only the put that completes the batch notifies the waiter: the
    /// waiter cannot return before `remaining == 0` anyway, and while
    /// results are still outstanding it is busy helping the pool drain,
    /// not blocked. A wave costs one notify, not one per task.
    pub fn put(&self, slot: usize, value: T) {
        let remaining = {
            let mut st = self.shared.state.lock().expect("gather lock");
            assert!(st.slots[slot].is_none(), "gather slot {slot} filled twice");
            st.slots[slot] = Some(value);
            st.remaining -= 1;
            st.remaining
        };
        if remaining == 0 {
            self.shared.cv.notify_all();
        }
    }

    /// Blocks until all slots are filled, returning them in slot order.
    /// Helps the pool drain while waiting.
    pub fn wait(self, pool: &Pool<'_>) -> Vec<T> {
        loop {
            {
                let mut st = self.shared.state.lock().expect("gather lock");
                if st.remaining == 0 {
                    return st
                        .slots
                        .iter_mut()
                        .map(|s| s.take().expect("gather slot filled"))
                        .collect();
                }
            }
            if pool.try_run_one() {
                continue;
            }
            let st = self.shared.state.lock().expect("gather lock");
            if st.remaining > 0 {
                let _ = self
                    .shared
                    .cv
                    .wait_timeout(st, Pool::wait_beat())
                    .expect("gather cv");
                pool.assert_healthy();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_in_slot_order_regardless_of_fill_order() {
        std::thread::scope(|s| {
            let pool = Pool::new(s, 2);
            let gather: Gather<&'static str> = Gather::new(3);
            for (slot, word) in [(2usize, "c"), (0, "a"), (1, "b")] {
                let g = gather.clone();
                pool.submit(move || g.put(slot, word));
            }
            assert_eq!(gather.wait(&pool), vec!["a", "b", "c"]);
        });
    }

    #[test]
    fn zero_slot_gather_returns_immediately() {
        std::thread::scope(|s| {
            let pool = Pool::new(s, 0);
            let gather: Gather<u8> = Gather::new(0);
            assert!(gather.wait(&pool).is_empty());
        });
    }

    #[test]
    fn inline_pool_fills_before_wait() {
        std::thread::scope(|s| {
            let pool = Pool::new(s, 0);
            let gather: Gather<u32> = Gather::new(2);
            for slot in 0..2u32 {
                let g = gather.clone();
                pool.submit(move || g.put(slot as usize, slot * 10));
            }
            assert_eq!(gather.wait(&pool), vec![0, 10]);
        });
    }
}
