//! The FREQUENT algorithm with attached per-key state.
//!
//! Classic FREQUENT maintains `s` (key, counter) slots: a monitored key's
//! arrival increments its counter; an unmonitored key takes over a
//! zero-counter slot if one exists; otherwise *all* counters are decremented
//! and the item is discarded. DINC-hash (paper §4.3) extends each slot with
//! the reduce state `s[i]` and a coverage counter `t[i]`, and instead of
//! discarding rejected tuples it spills them to a hash bucket.
//!
//! The decrement-all step is O(1) amortized here via a global `base` offset:
//! a slot's effective counter is `stored − base`, so "decrement everything"
//! is `base += 1`. Zero-counter slots are found through a lazy min-heap
//! holding one `(bound, slot)` entry per occupied slot, `bound` being at
//! most the slot's stored counter: a combine leaves the entry alone, and an
//! entry that surfaces below its slot's counter is re-keyed, not dropped.
//! Every entry being a lower bound, the first exact entry to surface is
//! the minimum `(stored, slot)` of all.

use opa_common::SeededState;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

/// One monitored slot, as exposed to callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgEntry<K, S> {
    /// The monitored key (`k[i]` in the paper).
    pub key: K,
    /// Effective FREQUENT counter (`c[i]`).
    pub count: u64,
    /// Tuples combined since the key was last installed (`t[i]`), used for
    /// coverage estimation.
    pub t: u64,
    /// Attached state of the partial computation (`s[i]`).
    pub state: S,
}

/// What happened to an offered tuple.
#[derive(Debug, PartialEq, Eq)]
pub enum MgOutcome<K, S> {
    /// The key was already monitored: the combine closure ran, `c` and `t`
    /// were incremented. The tuple is fully absorbed.
    Combined,
    /// The key was not monitored but a zero-counter slot existed: the new
    /// key was installed with `c = 1`, `t = 1`. If the slot previously held
    /// a key, that entry is returned for the caller to spill (or, per
    /// workload policy, output directly).
    Installed {
        /// The displaced occupant, if the slot was not empty.
        evicted: Option<MgEntry<K, S>>,
    },
    /// No slot was available (every counter positive, or every
    /// zero-counter occupant vetoed by the guard): the tuple is handed
    /// back for the caller to stage to disk.
    Rejected {
        /// The offered key, returned unconsumed.
        key: K,
        /// The offered state, returned unconsumed.
        state: S,
    },
}

#[derive(Debug)]
struct Slot<K, S> {
    key: K,
    /// Stored counter; effective value is `stored − base`.
    stored: u64,
    t: u64,
    state: S,
}

/// FREQUENT with `s` slots and attached state.
#[derive(Debug)]
pub struct MisraGries<K, S> {
    slots: Vec<Slot<K, S>>,
    index: HashMap<K, usize, SeededState>,
    /// Lazy min-heap of one `(lower bound of stored, slot)` entry per
    /// occupied slot (none for a slot a search has popped and not yet put
    /// back), for zero-slot and minimum discovery.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    base: u64,
    capacity: usize,
    offered: u64,
}

impl<K: Clone + Eq + Hash, S> MisraGries<K, S> {
    /// Creates a monitor with `s` slots.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize) -> Self {
        assert!(s > 0, "slot count must be positive");
        MisraGries {
            slots: Vec::with_capacity(s.min(1 << 20)),
            index: HashMap::with_capacity_and_hasher(s.min(1 << 20), SeededState::fixed()),
            heap: BinaryHeap::new(),
            base: 0,
            capacity: s,
            offered: 0,
        }
    }

    /// Capacity `s`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no key is monitored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total tuples offered so far (`M`).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Offers one tuple. `state` is the tuple's initial state (consumed on
    /// install or rejection-free combine); `cb` merges it into an existing
    /// state when the key is already monitored.
    pub fn offer(&mut self, key: K, state: S, cb: impl FnOnce(&K, &mut S, S)) -> MgOutcome<K, S> {
        self.offer_guarded(key, state, cb, |_, _| true)
    }

    /// Like [`MisraGries::offer`], but `guard(key, state)` can veto the
    /// eviction of a zero-counter occupant (the paper's §6.2 sessionization
    /// rule: evict only when the state's sessions have all expired). When
    /// every zero-counter slot is vetoed the tuple is rejected and the
    /// classic decrement still applies to every *positive* counter (idle
    /// keys keep decaying toward evictability); the vetoed slots are
    /// clamped at zero.
    pub fn offer_guarded(
        &mut self,
        key: K,
        state: S,
        cb: impl FnOnce(&K, &mut S, S),
        mut guard: impl FnMut(&K, &S) -> bool,
    ) -> MgOutcome<K, S> {
        self.offered += 1;
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i];
            cb(&slot.key, &mut slot.state, state);
            slot.stored += 1;
            slot.t += 1;
            return MgOutcome::Combined;
        }
        // Unoccupied capacity counts as zero slots.
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Slot {
                key: key.clone(),
                stored: self.base + 1,
                t: 1,
                state,
            });
            self.index.insert(key, i);
            self.heap.push(Reverse((self.base + 1, i)));
            return MgOutcome::Installed { evicted: None };
        }
        // Find a zero-counter slot whose occupant the guard lets us evict.
        // Vetoed slots are set aside and restored afterwards (they keep
        // their zero counters and stay candidates for later offers).
        let mut vetoed: Vec<usize> = Vec::new();
        let mut chosen: Option<usize> = None;
        while let Some(i) = self.pop_min_slot(self.base) {
            if guard(&self.slots[i].key, &self.slots[i].state) {
                chosen = Some(i);
                break;
            }
            vetoed.push(i);
        }
        if chosen.is_none() && !vetoed.is_empty() {
            // Rejection with protected zero-counter occupants: keep the
            // classic decrement pressure on every *positive* counter so
            // idle keys keep decaying toward evictability, while the
            // vetoed slots (exactly the zero-counter ones — the scan above
            // exhausted them) are clamped at zero.
            self.base += 1;
            for i in vetoed {
                self.slots[i].stored += 1;
                self.heap.push(Reverse((self.slots[i].stored, i)));
            }
            return MgOutcome::Rejected { key, state };
        }
        for i in vetoed {
            self.heap.push(Reverse((self.slots[i].stored, i)));
        }
        match chosen {
            Some(i) => {
                let slot = &mut self.slots[i];
                let old_key = std::mem::replace(&mut slot.key, key.clone());
                let old_state = std::mem::replace(&mut slot.state, state);
                let evicted = MgEntry {
                    key: old_key.clone(),
                    count: 0,
                    t: slot.t,
                    state: old_state,
                };
                slot.stored = self.base + 1;
                slot.t = 1;
                self.index.remove(&old_key);
                self.index.insert(key, i);
                self.heap.push(Reverse((slot.stored, i)));
                MgOutcome::Installed {
                    evicted: Some(evicted),
                }
            }
            None => {
                // Decrement every counter: all are ≥ 1, so base + 1 never
                // exceeds any stored value.
                self.base += 1;
                MgOutcome::Rejected { key, state }
            }
        }
    }

    /// Forcibly installs `key` by evicting the occupant with the minimum
    /// effective counter, honoring `guard`'s veto — the admission
    /// override used when a frequency sketch (seeded from the same fixed
    /// family as this monitor's map hasher, see `opa_common::sketch`)
    /// judges the arriving key hotter than the coldest monitored one.
    ///
    /// Unlike [`MisraGries::offer_guarded`] this never decrements
    /// counters and never touches `offered` — callers invoke it *after*
    /// an offer returned [`MgOutcome::Rejected`], handing back the
    /// rejected key/state. A key that is already monitored, or a monitor
    /// whose minimum-counter occupants are all vetoed, rejects the tuple
    /// unchanged.
    pub fn replace_min_guarded(
        &mut self,
        key: K,
        state: S,
        mut guard: impl FnMut(&K, &S) -> bool,
    ) -> MgOutcome<K, S> {
        if self.index.contains_key(&key) {
            return MgOutcome::Rejected { key, state };
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Slot {
                key: key.clone(),
                stored: self.base + 1,
                t: 1,
                state,
            });
            self.index.insert(key, i);
            self.heap.push(Reverse((self.base + 1, i)));
            return MgOutcome::Installed { evicted: None };
        }
        // Walk the slots in increasing counter order, setting vetoed ones
        // aside (restored afterwards) until the guard accepts a victim.
        let mut vetoed: Vec<usize> = Vec::new();
        let mut chosen: Option<usize> = None;
        while let Some(i) = self.pop_min_slot(u64::MAX) {
            if guard(&self.slots[i].key, &self.slots[i].state) {
                chosen = Some(i);
                break;
            }
            vetoed.push(i);
        }
        for i in vetoed {
            self.heap.push(Reverse((self.slots[i].stored, i)));
        }
        match chosen {
            Some(i) => {
                let base = self.base;
                let slot = &mut self.slots[i];
                let old_key = std::mem::replace(&mut slot.key, key.clone());
                let old_state = std::mem::replace(&mut slot.state, state);
                let evicted = MgEntry {
                    key: old_key.clone(),
                    count: slot.stored - base,
                    t: slot.t,
                    state: old_state,
                };
                slot.stored = base + 1;
                slot.t = 1;
                self.index.remove(&old_key);
                self.index.insert(key, i);
                self.heap.push(Reverse((slot.stored, i)));
                MgOutcome::Installed {
                    evicted: Some(evicted),
                }
            }
            None => MgOutcome::Rejected { key, state },
        }
    }

    /// Takes the slot with the least `(stored, slot)` off the heap, if its
    /// stored counter is at most `limit` (`base` finds a zero slot); the
    /// caller pushes a fresh entry for it. An entry that surfaces below
    /// its slot's counter (the slot combined since) sinks back under the
    /// current one.
    fn pop_min_slot(&mut self, limit: u64) -> Option<usize> {
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((bound, i)) = *top;
            let stored = self.slots[i].stored;
            if bound != stored {
                *top = Reverse((stored, i));
            } else if stored <= limit {
                PeekMut::pop(top);
                return Some(i);
            } else {
                return None; // the minimum counter is over the limit
            }
        }
        None
    }

    /// Entries in the lazy heap.
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Looks up a monitored key.
    pub fn get(&self, key: &K) -> Option<MgEntry<K, S>>
    where
        S: Clone,
    {
        let &i = self.index.get(key)?;
        let s = &self.slots[i];
        Some(MgEntry {
            key: s.key.clone(),
            count: s.stored - self.base,
            t: s.t,
            state: s.state.clone(),
        })
    }

    /// Estimated frequency of a key: the effective counter if monitored,
    /// zero otherwise. Guaranteed to satisfy
    /// `f_k − M/(s+1) ≤ estimate ≤ f_k`.
    pub fn estimate(&self, key: &K) -> u64 {
        self.index
            .get(key)
            .map(|&i| self.slots[i].stored - self.base)
            .unwrap_or(0)
    }

    /// Lower bound on the coverage of a monitored key:
    /// `γ = t / (t + M/(s+1)) ≤ t/f_k = coverage(k)` (paper §4.3).
    /// Returns 0 for unmonitored keys.
    pub fn coverage_lower_bound(&self, key: &K) -> f64 {
        match self.index.get(key) {
            Some(&i) => {
                let t = self.slots[i].t as f64;
                let slack = self.offered as f64 / (self.capacity as f64 + 1.0);
                t / (t + slack)
            }
            None => 0.0,
        }
    }

    /// Iterates over the monitored entries (arbitrary order), exposing the
    /// effective counters.
    pub fn iter(&self) -> impl Iterator<Item = MgEntry<K, S>> + '_
    where
        S: Clone,
    {
        let base = self.base;
        self.slots.iter().map(move |s| MgEntry {
            key: s.key.clone(),
            count: s.stored - base,
            t: s.t,
            state: s.state.clone(),
        })
    }

    /// Consumes the monitor, returning all monitored entries. This is the
    /// end-of-input step where DINC writes the in-memory key-state pairs to
    /// their bucket files.
    pub fn drain(mut self) -> Vec<MgEntry<K, S>> {
        self.index.clear();
        let base = self.base;
        self.slots
            .drain(..)
            .map(|s| MgEntry {
                key: s.key,
                count: s.stored - base,
                t: s.t,
                state: s.state,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Feeds a stream of u64 keys with `()` state; returns the monitor.
    fn run(stream: &[u64], s: usize) -> MisraGries<u64, u64> {
        let mut mg = MisraGries::new(s);
        for &k in stream {
            let _ = mg.offer(k, 1u64, |_, acc, v| *acc += v);
        }
        mg
    }

    #[test]
    fn single_hot_key_is_retained() {
        let mut stream = vec![];
        for i in 0..1000u64 {
            stream.push(7);
            stream.push(1000 + i); // unique cold keys
        }
        let mg = run(&stream, 4);
        assert!(mg.get(&7).is_some(), "hot key must stay monitored");
        let est = mg.estimate(&7);
        let m = stream.len() as u64;
        assert!(est <= 1000);
        assert!(est + m / 5 >= 1000, "estimate {est} too low");
    }

    #[test]
    fn frequency_error_bound_holds() {
        // Zipf-ish synthetic stream.
        let mut stream = Vec::new();
        for k in 1..=50u64 {
            for _ in 0..(2000 / k) {
                stream.push(k);
            }
        }
        // Deterministic interleave.
        stream.sort_by_key(|&k| k.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17));
        let s = 10;
        let mg = run(&stream, s);
        let m = stream.len() as u64;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &stream {
            *truth.entry(k).or_default() += 1;
        }
        for (&k, &f) in &truth {
            let est = mg.estimate(&k);
            assert!(est <= f, "overestimate for {k}: {est} > {f}");
            assert!(
                est + m / (s as u64 + 1) >= f,
                "error bound violated for {k}: {est} + {} < {f}",
                m / (s as u64 + 1)
            );
        }
    }

    #[test]
    fn combine_work_bound() {
        // M' = Σ max(0, f_i − M/(s+1)) combine ops must happen in memory.
        // Combined outcomes are exactly the in-memory combines (installs
        // also absorb a tuple; count them too as "absorbed work").
        let mut stream = Vec::new();
        for rep in 0..500 {
            stream.push(1); // f=1500
            stream.push(2); // f=1000 (every other rep pushes two)
            if rep % 2 == 0 {
                stream.push(1);
            }
            stream.push(100 + rep); // cold
        }
        let s = 3;
        let mut mg = MisraGries::new(s);
        let mut absorbed = 0u64;
        for &k in &stream {
            match mg.offer(k, (), |_, _, _| {}) {
                MgOutcome::Combined | MgOutcome::Installed { .. } => absorbed += 1,
                MgOutcome::Rejected { .. } => {}
            }
        }
        let m = stream.len() as u64;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &stream {
            *truth.entry(k).or_default() += 1;
        }
        let mut freqs: Vec<u64> = truth.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let m_prime: u64 = freqs
            .iter()
            .take(s)
            .map(|&f| f.saturating_sub(m / (s as u64 + 1)))
            .sum();
        assert!(
            absorbed >= m_prime,
            "absorbed {absorbed} < guaranteed {m_prime}"
        );
    }

    #[test]
    fn states_accumulate_through_combines() {
        let mut mg: MisraGries<&str, Vec<u32>> = MisraGries::new(2);
        let _ = mg.offer("a", vec![1], |_, acc, mut v| acc.append(&mut v));
        let _ = mg.offer("a", vec![2], |_, acc, mut v| acc.append(&mut v));
        let _ = mg.offer("a", vec![3], |_, acc, mut v| acc.append(&mut v));
        let e = mg.get(&"a").unwrap();
        assert_eq!(e.state, vec![1, 2, 3]);
        assert_eq!(e.count, 3);
        assert_eq!(e.t, 3);
    }

    #[test]
    fn eviction_returns_previous_occupant() {
        let mut mg: MisraGries<u64, u64> = MisraGries::new(1);
        assert!(matches!(
            mg.offer(1, 10, |_, a, b| *a += b),
            MgOutcome::Installed { evicted: None }
        ));
        // Key 2 arrives: counter of key 1 is 1 > 0 → reject + decrement.
        assert!(matches!(
            mg.offer(2, 20, |_, a, b| *a += b),
            MgOutcome::Rejected { .. }
        ));
        // Key 2 again: counter of key 1 is now 0 → evict key 1.
        match mg.offer(2, 20, |_, a, b| *a += b) {
            MgOutcome::Installed { evicted: Some(e) } => {
                assert_eq!(e.key, 1);
                assert_eq!(e.state, 10);
                assert_eq!(e.count, 0);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(mg.estimate(&2), 1);
        assert_eq!(mg.estimate(&1), 0);
    }

    #[test]
    fn coverage_lower_bound_is_a_lower_bound() {
        let mut stream = Vec::new();
        for i in 0..3000u64 {
            stream.push(42);
            if i % 3 == 0 {
                stream.push(i + 100);
            }
        }
        let s = 8;
        let mut mg: MisraGries<u64, ()> = MisraGries::new(s);
        for &k in &stream {
            let _ = mg.offer(k, (), |_, _, _| {});
        }
        let f42 = stream.iter().filter(|&&k| k == 42).count() as f64;
        let t = mg.get(&42).expect("hot key monitored").t as f64;
        let gamma = mg.coverage_lower_bound(&42);
        assert!(
            gamma > 0.0 && gamma <= t / f42 + 1e-12,
            "γ={gamma}, true={}",
            t / f42
        );
        // Unmonitored keys have zero coverage.
        assert_eq!(mg.coverage_lower_bound(&999_999), 0.0);
    }

    #[test]
    fn drain_returns_every_monitored_entry() {
        let mg = run(&[1, 1, 2, 3, 2, 1], 4);
        let mut entries = mg.drain();
        entries.sort_by_key(|e| e.key);
        let keys: Vec<u64> = entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        let counts: Vec<u64> = entries.iter().map(|e| e.count).collect();
        assert_eq!(counts, vec![3, 2, 1]);
    }

    #[test]
    fn guard_vetoes_eviction_and_skips_decrement() {
        let mut mg: MisraGries<u64, u64> = MisraGries::new(1);
        let _ = mg.offer(1, 10, |_, a, b| *a += b);
        // Drive key 1's counter to zero.
        assert!(matches!(
            mg.offer(2, 20, |_, a, b| *a += b),
            MgOutcome::Rejected { .. }
        ));
        assert_eq!(mg.estimate(&1), 0);
        // Guard protects key 1: offer is rejected, no decrement, occupant
        // stays.
        let out = mg.offer_guarded(3, 30, |_, a, b| *a += b, |_, _| false);
        assert!(matches!(out, MgOutcome::Rejected { .. }));
        assert!(mg.get(&1).is_some());
        assert_eq!(mg.estimate(&1), 0, "vetoed slot keeps zero counter");
        // Once the guard allows it, the eviction proceeds.
        let out = mg.offer_guarded(3, 30, |_, a, b| *a += b, |_, _| true);
        match out {
            MgOutcome::Installed { evicted: Some(e) } => assert_eq!(e.key, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(mg.get(&3).is_some());
    }

    #[test]
    fn guard_picks_first_evictable_among_zero_slots() {
        // Two slots, both at zero; guard protects one of them.
        let mut mg: MisraGries<u64, u64> = MisraGries::new(2);
        let _ = mg.offer(1, 0, |_, a, b| *a += b);
        let _ = mg.offer(2, 0, |_, a, b| *a += b);
        // Reject once to zero both counters.
        assert!(matches!(
            mg.offer(3, 0, |_, a, b| *a += b),
            MgOutcome::Rejected { .. }
        ));
        assert_eq!(mg.estimate(&1), 0);
        assert_eq!(mg.estimate(&2), 0);
        // Guard only allows evicting key 2.
        let out = mg.offer_guarded(3, 0, |_, a, b| *a += b, |k, _| *k == 2);
        match out {
            MgOutcome::Installed { evicted: Some(e) } => assert_eq!(e.key, 2),
            other => panic!("expected eviction of key 2, got {other:?}"),
        }
        assert!(mg.get(&1).is_some(), "protected key survives");
    }

    #[test]
    fn offered_counts_all_tuples() {
        let mg = run(&[5; 100], 2);
        assert_eq!(mg.offered(), 100);
        assert_eq!(mg.len(), 1);
        assert_eq!(mg.estimate(&5), 100);
    }

    #[test]
    fn replace_min_evicts_the_coldest_occupant() {
        let mut mg: MisraGries<u64, u64> = MisraGries::new(2);
        for _ in 0..5 {
            let _ = mg.offer(1, 1, |_, a, b| *a += b); // hot, c=5
        }
        let _ = mg.offer(2, 1, |_, a, b| *a += b); // cold, c=1
        let offered = mg.offered();
        // A classic offer would be rejected (both counters positive)…
        match mg.replace_min_guarded(3, 7, |_, _| true) {
            MgOutcome::Installed { evicted: Some(e) } => {
                // …but the forced install evicts the minimum-counter key,
                // reporting its effective counter.
                assert_eq!(e.key, 2);
                assert_eq!(e.count, 1);
                assert_eq!(e.state, 1);
            }
            other => panic!("expected forced eviction, got {other:?}"),
        }
        assert!(mg.get(&1).is_some(), "hot key untouched");
        assert_eq!(mg.estimate(&3), 1, "newcomer starts at c=1");
        assert_eq!(mg.offered(), offered, "offered is not re-counted");
        // Guard veto on every occupant rejects the tuple unchanged.
        match mg.replace_min_guarded(4, 9, |_, _| false) {
            MgOutcome::Rejected { key, state } => {
                assert_eq!((key, state), (4, 9));
            }
            other => panic!("expected veto rejection, got {other:?}"),
        }
        // Already-monitored keys are rejected rather than duplicated.
        assert!(matches!(
            mg.replace_min_guarded(1, 0, |_, _| true),
            MgOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn replace_min_uses_spare_capacity_first() {
        let mut mg: MisraGries<u64, u64> = MisraGries::new(2);
        let _ = mg.offer(1, 1, |_, a, b| *a += b);
        assert!(matches!(
            mg.replace_min_guarded(2, 2, |_, _| true),
            MgOutcome::Installed { evicted: None }
        ));
        assert_eq!(mg.len(), 2);
        // The monitor keeps behaving normally afterwards: drive both
        // counters to zero and verify the classic offer path still works.
        assert!(matches!(
            mg.offer(3, 3, |_, a, b| *a += b),
            MgOutcome::Rejected { .. }
        ));
        assert!(matches!(
            mg.offer(3, 3, |_, a, b| *a += b),
            MgOutcome::Installed { evicted: Some(_) }
        ));
    }
}

/// The monitor as it was when its lazy heap took one entry per combined
/// tuple and dropped the stale ones it met (heap memory O(tuples offered)):
/// the reference the one-entry-per-slot heap must agree with, decision for
/// decision.
#[cfg(test)]
mod reference {
    use super::{MgEntry, MgOutcome, Slot};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    pub struct PushPerCombine {
        slots: Vec<Slot<u64, u64>>,
        index: HashMap<u64, usize>,
        heap: BinaryHeap<Reverse<(u64, usize)>>,
        base: u64,
        capacity: usize,
    }

    impl PushPerCombine {
        pub fn new(capacity: usize) -> Self {
            PushPerCombine {
                slots: Vec::new(),
                index: HashMap::new(),
                heap: BinaryHeap::new(),
                base: 0,
                capacity,
            }
        }

        pub fn heap_len(&self) -> usize {
            self.heap.len()
        }

        pub fn entries(&self) -> Vec<MgEntry<u64, u64>> {
            self.slots
                .iter()
                .map(|s| MgEntry {
                    key: s.key,
                    count: s.stored - self.base,
                    t: s.t,
                    state: s.state,
                })
                .collect()
        }

        fn install_spare(&mut self, key: u64, state: u64) -> MgOutcome<u64, u64> {
            let i = self.slots.len();
            self.slots.push(Slot {
                key,
                stored: self.base + 1,
                t: 1,
                state,
            });
            self.index.insert(key, i);
            self.heap.push(Reverse((self.base + 1, i)));
            MgOutcome::Installed { evicted: None }
        }

        fn install_over(&mut self, i: usize, key: u64, state: u64) -> MgOutcome<u64, u64> {
            let slot = &mut self.slots[i];
            let evicted = MgEntry {
                key: slot.key,
                count: slot.stored.saturating_sub(self.base),
                t: slot.t,
                state: slot.state,
            };
            (slot.key, slot.state, slot.stored, slot.t) = (key, state, self.base + 1, 1);
            self.index.remove(&evicted.key);
            self.index.insert(key, i);
            self.heap.push(Reverse((self.base + 1, i)));
            MgOutcome::Installed {
                evicted: Some(evicted),
            }
        }

        pub fn offer_guarded(
            &mut self,
            key: u64,
            state: u64,
            mut guard: impl FnMut(&u64, &u64) -> bool,
        ) -> MgOutcome<u64, u64> {
            if let Some(&i) = self.index.get(&key) {
                let slot = &mut self.slots[i];
                slot.state += state;
                slot.stored += 1;
                slot.t += 1;
                self.heap.push(Reverse((slot.stored, i)));
                return MgOutcome::Combined;
            }
            if self.slots.len() < self.capacity {
                return self.install_spare(key, state);
            }
            let mut vetoed: Vec<usize> = Vec::new();
            let mut chosen: Option<usize> = None;
            while let Some(i) = self.pop_zero_slot() {
                if guard(&self.slots[i].key, &self.slots[i].state) {
                    chosen = Some(i);
                    break;
                }
                vetoed.push(i);
            }
            if chosen.is_none() && !vetoed.is_empty() {
                self.base += 1;
                for i in vetoed {
                    self.slots[i].stored += 1;
                    self.heap.push(Reverse((self.slots[i].stored, i)));
                }
                return MgOutcome::Rejected { key, state };
            }
            for i in vetoed {
                self.heap.push(Reverse((self.slots[i].stored, i)));
            }
            match chosen {
                Some(i) => self.install_over(i, key, state),
                None => {
                    self.base += 1;
                    MgOutcome::Rejected { key, state }
                }
            }
        }

        pub fn replace_min_guarded(
            &mut self,
            key: u64,
            state: u64,
            mut guard: impl FnMut(&u64, &u64) -> bool,
        ) -> MgOutcome<u64, u64> {
            if self.index.contains_key(&key) {
                return MgOutcome::Rejected { key, state };
            }
            if self.slots.len() < self.capacity {
                return self.install_spare(key, state);
            }
            let mut vetoed: Vec<(u64, usize)> = Vec::new();
            let mut chosen: Option<usize> = None;
            while let Some(&Reverse((stored, i))) = self.heap.peek() {
                self.heap.pop();
                if self.slots[i].stored != stored {
                    continue; // stale
                }
                if guard(&self.slots[i].key, &self.slots[i].state) {
                    chosen = Some(i);
                    break;
                }
                vetoed.push((stored, i));
            }
            for (stored, i) in vetoed {
                self.heap.push(Reverse((stored, i)));
            }
            match chosen {
                Some(i) => self.install_over(i, key, state),
                None => MgOutcome::Rejected { key, state },
            }
        }

        fn pop_zero_slot(&mut self) -> Option<usize> {
            while let Some(&Reverse((stored, i))) = self.heap.peek() {
                if self.slots[i].stored != stored {
                    self.heap.pop(); // stale
                    continue;
                }
                if stored <= self.base {
                    self.heap.pop();
                    return Some(i);
                }
                return None;
            }
            None
        }
    }
}

#[cfg(test)]
mod heap_tests {
    use super::reference::PushPerCombine;
    use super::*;
    use opa_common::rng::SplitMix64;

    #[test]
    fn heap_holds_one_entry_per_slot() {
        // Eight hot keys in a 16-slot monitor: every offer after the first
        // eight combines.
        let mut mg: MisraGries<u64, u64> = MisraGries::new(16);
        let mut old = PushPerCombine::new(16);
        for i in 0..100_000u64 {
            let _ = mg.offer(i % 8, 1, |_, a, b| *a += b);
            let _ = old.offer_guarded(i % 8, 1, |_, _| true);
        }
        assert_eq!((mg.len(), mg.heap_len()), (8, 8));
        assert_eq!(old.heap_len(), 100_000, "the reference grows per tuple");

        // A full monitor, a cold key every fourth tuple: rejections,
        // decrements, evictions and re-installs all keep the bound.
        let mut mg: MisraGries<u64, u64> = MisraGries::new(16);
        let mut old = PushPerCombine::new(16);
        for i in 0..100_000u64 {
            let key = if i % 4 == 3 { 1_000 + i } else { i % 16 };
            let _ = mg.offer(key, 1, |_, a, b| *a += b);
            let _ = old.offer_guarded(key, 1, |_, _| true);
            assert_eq!(mg.heap_len(), mg.len(), "after offer {i}");
        }
        assert_eq!(mg.heap_len(), 16);
        assert!(old.heap_len() > 10_000, "{}", old.heap_len());
    }

    #[test]
    fn one_entry_per_slot_decides_as_a_push_per_combine_did() {
        let (mut rejected, mut evicted, mut vetoes) = (0u64, 0u64, 0u64);
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0x0f4e_0000 + seed);
            let capacity = 1 + rng.next_below(12) as usize;
            let keys = capacity as u64 + 1 + rng.next_below(24);
            let mut mg: MisraGries<u64, u64> = MisraGries::new(capacity);
            let mut old = PushPerCombine::new(capacity);
            for step in 0..20_000u64 {
                // Skewed keys: low ones stay hot, the tail churns.
                let key = rng.next_below(keys).min(rng.next_below(keys));
                let state = 1 + rng.next_below(9);
                // A seeded veto over (occupant, state), about one in four;
                // each monitor's questions are logged.
                let salt = rng.next();
                let veto = |asked: &mut Vec<u64>, k: &u64, s: &u64| {
                    asked.push(*k);
                    (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ s ^ salt) & 3 != 0
                };
                let (mut asked_new, mut asked_old) = (Vec::new(), Vec::new());
                let guard_new = |k: &u64, s: &u64| veto(&mut asked_new, k, s);
                let guard_old = |k: &u64, s: &u64| veto(&mut asked_old, k, s);
                let (new, was) = if rng.next_below(5) == 0 {
                    (
                        mg.replace_min_guarded(key, state, guard_new),
                        old.replace_min_guarded(key, state, guard_old),
                    )
                } else {
                    (
                        mg.offer_guarded(key, state, |_, a, b| *a += b, guard_new),
                        old.offer_guarded(key, state, guard_old),
                    )
                };
                assert_eq!(
                    asked_new, asked_old,
                    "seed {seed} step {step}: victims tried"
                );
                assert_eq!(new, was, "seed {seed} step {step}");
                assert_eq!(mg.iter().collect::<Vec<_>>(), old.entries());
                assert!(mg.heap_len() <= capacity);
                vetoes += asked_new.len() as u64;
                match new {
                    MgOutcome::Rejected { .. } => rejected += 1,
                    MgOutcome::Installed { evicted: Some(_) } => evicted += 1,
                    _ => {}
                }
            }
        }
        assert!(
            rejected > 10_000 && evicted > 10_000 && vetoes > 10_000,
            "{rejected} rejections, {evicted} evictions, {vetoes} guard calls"
        );
    }
}

impl<K: Clone + Eq + Hash, S> MisraGries<K, S> {
    /// Rebuilds a monitor from previously exported entries (the checkpoint
    /// counterpart of [`MisraGries::iter`]). The restored monitor behaves
    /// identically to the original from this point on: entries are
    /// installed in the given order with `base = 0` and `stored = count`
    /// exactly, so zero-count occupants remain immediate eviction
    /// candidates and the `(counter, slot)` tie-break order is preserved.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or more than `capacity` entries are given.
    pub fn restore(capacity: usize, offered: u64, entries: Vec<MgEntry<K, S>>) -> Self {
        assert!(
            entries.len() <= capacity,
            "restore: {} entries exceed capacity {capacity}",
            entries.len()
        );
        let mut mg = MisraGries::new(capacity);
        mg.offered = offered;
        for e in entries {
            let i = mg.slots.len();
            mg.slots.push(Slot {
                key: e.key.clone(),
                stored: e.count,
                t: e.t,
                state: e.state,
            });
            mg.index.insert(e.key, i);
            mg.heap.push(Reverse((e.count, i)));
        }
        mg
    }
}
