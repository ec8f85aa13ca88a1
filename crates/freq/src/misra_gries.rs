//! The counter-based hot-key monitor: FREQUENT and SpaceSaving over one
//! slot table, with attached per-key state.
//!
//! Classic FREQUENT maintains `s` (key, counter) slots: a monitored key's
//! arrival increments its counter; an unmonitored key takes over a
//! zero-counter slot if one exists; otherwise *all* counters are decremented
//! and the item is discarded. DINC-hash (paper §4.3) extends each slot with
//! the reduce state `s[i]` and a coverage counter `t[i]`, and instead of
//! discarding rejected tuples it spills them to a hash bucket.
//!
//! SpaceSaving (Metwally, Agrawal, El Abbadi 2005) keeps the same slots
//! and differs only when a new key meets a full table (Agarwal et al.,
//! *Mergeable Summaries*, PODS 2012, show the two summaries isomorphic):
//! the newcomer displaces the *minimum*-count occupant and inherits its
//! count plus one, and nothing is ever decremented. [`MonitorKind`] picks
//! the rule; everything else — slots, heap, guard, checkpoint — is shared.
//!
//! The decrement-all step is O(1) amortized here via a global `base` offset:
//! a slot's effective counter is `stored − base`, so "decrement everything"
//! is `base += 1` (SpaceSaving leaves `base` at zero). Victims are found
//! through a lazy min-heap holding one `(bound, slot)` entry per occupied
//! slot, `bound` being at most the slot's stored counter: a combine leaves
//! the entry alone, and an entry that surfaces below its slot's counter is
//! re-keyed, not dropped. Every entry being a lower bound, the first exact
//! entry to surface is the minimum `(stored, slot)` of all, so both rules
//! offer candidates to the eviction guard in `(stored, slot)` order.

use opa_common::SeededState;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

/// Which counter-based algorithm a [`MisraGries`] monitor runs. The two
/// differ only in what a new key does to a full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorKind {
    /// FREQUENT / Misra-Gries (the paper's choice, §4.3): the newcomer
    /// takes over a zero-counter slot at count 1, or every counter is
    /// decremented and the tuple rejected.
    #[default]
    Frequent,
    /// SpaceSaving (Metwally et al. 2005): the newcomer displaces the
    /// minimum-count occupant and inherits its count plus one.
    SpaceSaving,
}

/// One monitored slot, as exposed to callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgEntry<K, S> {
    /// The monitored key (`k[i]` in the paper).
    pub key: K,
    /// Effective counter (`c[i]`): under FREQUENT an under-estimate of the
    /// key's frequency, under SpaceSaving an over-estimate.
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
    /// The key was not monitored and took a slot — a free one, a
    /// zero-counter one (FREQUENT) or the minimum-count one (SpaceSaving) —
    /// with `t = 1`. If the slot previously held a key, that entry is
    /// returned for the caller to spill (or, per workload policy, output
    /// directly).
    Installed {
        /// The displaced occupant, if the slot was not empty.
        evicted: Option<MgEntry<K, S>>,
    },
    /// No slot was available (FREQUENT: every counter positive; either
    /// kind: every candidate occupant vetoed by the guard): the tuple is
    /// handed back for the caller to stage to disk.
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

/// A hot-key monitor with `s` slots and attached state: FREQUENT by
/// default, SpaceSaving through [`MisraGries::with_kind`].
#[derive(Debug)]
pub struct MisraGries<K, S> {
    kind: MonitorKind,
    slots: Vec<Slot<K, S>>,
    index: HashMap<K, usize, SeededState>,
    /// Lazy min-heap of one `(lower bound of stored, slot)` entry per
    /// occupied slot (none for a slot a search has popped and not yet put
    /// back), for victim discovery.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    base: u64,
    capacity: usize,
    offered: u64,
}

impl<K: Clone + Eq + Hash, S> MisraGries<K, S> {
    /// Creates a FREQUENT monitor with `s` slots.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize) -> Self {
        Self::with_kind(MonitorKind::Frequent, s)
    }

    /// Creates a monitor of the given kind with `s` slots.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn with_kind(kind: MonitorKind, s: usize) -> Self {
        assert!(s > 0, "slot count must be positive");
        MisraGries {
            kind,
            slots: Vec::with_capacity(s.min(1 << 20)),
            index: HashMap::with_capacity_and_hasher(s.min(1 << 20), SeededState::fixed()),
            heap: BinaryHeap::new(),
            base: 0,
            capacity: s,
            offered: 0,
        }
    }

    /// Rebuilds a monitor from previously exported entries (the checkpoint
    /// counterpart of [`MisraGries::iter`]). The restored monitor behaves
    /// identically to the original from this point on: entries are
    /// installed in the given order with `base = 0` and `stored = count`
    /// exactly, so zero-count occupants remain immediate eviction
    /// candidates and the `(counter, slot)` tie-break order is preserved.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or more than `capacity` entries are given.
    pub fn restore(
        kind: MonitorKind,
        capacity: usize,
        offered: u64,
        entries: Vec<MgEntry<K, S>>,
    ) -> Self {
        assert!(
            entries.len() <= capacity,
            "restore: {} entries exceed capacity {capacity}",
            entries.len()
        );
        let mut mg = MisraGries::with_kind(kind, capacity);
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

    /// The algorithm this monitor runs.
    pub fn kind(&self) -> MonitorKind {
        self.kind
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
    /// eviction of an occupant (the paper's §6.2 sessionization rule:
    /// evict only when the state's sessions have all expired). Candidates
    /// are asked in `(counter, slot)` order: under FREQUENT the
    /// zero-counter occupants, under SpaceSaving every occupant. When
    /// every candidate is vetoed the tuple is rejected; under FREQUENT the
    /// classic decrement still applies to every *positive* counter (idle
    /// keys keep decaying toward evictability) and the vetoed slots are
    /// clamped at zero, while SpaceSaving changes nothing.
    pub fn offer_guarded(
        &mut self,
        key: K,
        state: S,
        cb: impl FnOnce(&K, &mut S, S),
        guard: impl FnMut(&K, &S) -> bool,
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
            return self.install_spare(key, state);
        }
        let limit = match self.kind {
            MonitorKind::Frequent => self.base,
            MonitorKind::SpaceSaving => u64::MAX,
        };
        let (chosen, vetoed) = self.find_victim(limit, guard);
        match chosen {
            Some(i) => {
                self.put_back(vetoed);
                // The newcomer inherits the victim's count plus one: under
                // FREQUENT that count is zero (stored = base).
                let stored = self.slots[i].stored + 1;
                self.install_over(i, key, state, stored)
            }
            None => {
                if self.kind == MonitorKind::Frequent {
                    // Decrement every counter: all are ≥ 1 but the vetoed
                    // ones (exactly the zero-counter slots — the search
                    // exhausted them), which are clamped at zero, so
                    // base + 1 never exceeds any stored value.
                    self.base += 1;
                    for &i in &vetoed {
                        self.slots[i].stored += 1;
                    }
                }
                self.put_back(vetoed);
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
    /// unchanged. SpaceSaving always refuses: its offer already asked the
    /// guard about every occupant, so a rejection there was a veto and
    /// stands.
    pub fn replace_min_guarded(
        &mut self,
        key: K,
        state: S,
        guard: impl FnMut(&K, &S) -> bool,
    ) -> MgOutcome<K, S> {
        if self.kind == MonitorKind::SpaceSaving || self.index.contains_key(&key) {
            return MgOutcome::Rejected { key, state };
        }
        if self.slots.len() < self.capacity {
            return self.install_spare(key, state);
        }
        let (chosen, vetoed) = self.find_victim(u64::MAX, guard);
        self.put_back(vetoed);
        match chosen {
            Some(i) => self.install_over(i, key, state, self.base + 1),
            None => MgOutcome::Rejected { key, state },
        }
    }

    /// Installs `key` in a fresh slot at counter 1.
    fn install_spare(&mut self, key: K, state: S) -> MgOutcome<K, S> {
        let i = self.slots.len();
        let stored = self.base + 1;
        self.slots.push(Slot {
            key: key.clone(),
            stored,
            t: 1,
            state,
        });
        self.index.insert(key, i);
        self.heap.push(Reverse((stored, i)));
        MgOutcome::Installed { evicted: None }
    }

    /// Installs `key` over slot `i` (off the heap) at stored counter
    /// `stored`, handing back the occupant with its effective counter.
    fn install_over(&mut self, i: usize, key: K, state: S, stored: u64) -> MgOutcome<K, S> {
        let slot = &mut self.slots[i];
        let evicted = MgEntry {
            key: std::mem::replace(&mut slot.key, key.clone()),
            count: slot.stored - self.base,
            t: slot.t,
            state: std::mem::replace(&mut slot.state, state),
        };
        slot.stored = stored;
        slot.t = 1;
        self.index.remove(&evicted.key);
        self.index.insert(key, i);
        self.heap.push(Reverse((stored, i)));
        MgOutcome::Installed {
            evicted: Some(evicted),
        }
    }

    /// Takes slots off the heap in `(stored, slot)` order, stored counter
    /// at most `limit`, until `guard` accepts an occupant. Returns that
    /// slot and the vetoed ones; all are off the heap until
    /// [`Self::put_back`] or an install pushes them again.
    fn find_victim(
        &mut self,
        limit: u64,
        mut guard: impl FnMut(&K, &S) -> bool,
    ) -> (Option<usize>, Vec<usize>) {
        let mut vetoed = Vec::new();
        while let Some(i) = self.pop_min_slot(limit) {
            if guard(&self.slots[i].key, &self.slots[i].state) {
                return (Some(i), vetoed);
            }
            vetoed.push(i);
        }
        (None, vetoed)
    }

    /// Pushes the given slots back on the heap at their stored counters.
    fn put_back(&mut self, slots: Vec<usize>) {
        for i in slots {
            self.heap.push(Reverse((self.slots[i].stored, i)));
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
    /// zero otherwise. Under FREQUENT `f_k − M/(s+1) ≤ estimate ≤ f_k`;
    /// under SpaceSaving a monitored key has
    /// `f_k ≤ estimate ≤ f_k + M/s`.
    pub fn estimate(&self, key: &K) -> u64 {
        self.index
            .get(key)
            .map(|&i| self.slots[i].stored - self.base)
            .unwrap_or(0)
    }

    /// The most a monitored key's count can be off by: `M/(s+1)` under
    /// FREQUENT, `M/s` under SpaceSaving — the slack term of the coverage
    /// bound γ.
    pub fn slack(&self) -> f64 {
        let s = self.capacity as f64;
        match self.kind {
            MonitorKind::Frequent => self.offered as f64 / (s + 1.0),
            MonitorKind::SpaceSaving => self.offered as f64 / s,
        }
    }

    /// Lower bound on the coverage of a monitored key:
    /// `γ = t / (t + slack) ≤ t/f_k = coverage(k)` (paper §4.3), with
    /// [`MisraGries::slack`]. Returns 0 for unmonitored keys.
    pub fn coverage_lower_bound(&self, key: &K) -> f64 {
        match self.index.get(key) {
            Some(&i) => {
                let t = self.slots[i].t as f64;
                t / (t + self.slack())
            }
            None => 0.0,
        }
    }

    /// Iterates over the monitored entries in slot order, exposing the
    /// effective counters. A key keeps its slot from install to eviction,
    /// a newcomer takes its victim's slot, and [`MisraGries::restore`]
    /// installs entries in the order given: exporting this order and
    /// restoring it keeps the `(counter, slot)` tie-break, and so every
    /// later eviction, of the original monitor.
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

    /// Empties the monitor, returning its entries in slot order. This is
    /// the end-of-input step where DINC writes the in-memory key-state
    /// pairs to their bucket files. `offered`, the capacity and the kind
    /// stay, so [`MisraGries::slack`] still describes the stream offered.
    pub fn drain(&mut self) -> Vec<MgEntry<K, S>> {
        let base = self.base;
        let entries = self
            .slots
            .drain(..)
            .map(|s| MgEntry {
                key: s.key,
                count: s.stored - base,
                t: s.t,
                state: s.state,
            })
            .collect();
        // Free the table, not only its contents: DINC keeps the drained
        // monitor through its bucket pass.
        self.slots = Vec::new();
        self.index = HashMap::with_hasher(SeededState::fixed());
        self.heap = BinaryHeap::new();
        entries
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
        let mut mg = run(&[1, 1, 2, 3, 2, 1], 4);
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

    const KINDS: [MonitorKind; 2] = [MonitorKind::Frequent, MonitorKind::SpaceSaving];

    #[test]
    fn space_saving_refuses_the_second_chance() {
        let mut m: MisraGries<u64, u64> = MisraGries::with_kind(MonitorKind::SpaceSaving, 2);
        let _ = m.offer(1, 1, |_, a, b| *a += b);
        let _ = m.offer(2, 1, |_, a, b| *a += b);
        let before: Vec<_> = m.iter().collect();
        let mut asked = 0;
        match m.replace_min_guarded(3, 7, |_, _| {
            asked += 1;
            true
        }) {
            MgOutcome::Rejected { key, state } => assert_eq!((key, state), (3, 7)),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(asked, 0, "the guard is not asked");
        assert_eq!(m.iter().collect::<Vec<_>>(), before);
    }

    #[test]
    fn slack_is_the_kinds_error_bound() {
        for (kind, slack) in KINDS.into_iter().zip([12.0, 15.0]) {
            let mut m: MisraGries<u64, ()> = MisraGries::with_kind(kind, 4);
            for k in 0..60u64 {
                let _ = m.offer(k % 9, (), |_, _, _| {});
            }
            assert_eq!(m.slack(), slack, "{kind:?}: 60 tuples over 4 slots");
            for e in m.iter() {
                let gamma = e.t as f64 / (e.t as f64 + slack);
                assert_eq!(m.coverage_lower_bound(&e.key), gamma, "{kind:?}");
            }
            // Draining empties the table but keeps the stream's slack.
            assert_eq!(m.drain().len(), 4);
            assert!(m.is_empty());
            assert_eq!((m.offered(), m.slack()), (60, slack));
        }
    }

    #[test]
    fn restored_monitor_decides_as_the_original() {
        for kind in KINDS {
            let mut orig: MisraGries<u64, u64> = MisraGries::with_kind(kind, 5);
            let key = |i: u64| (i * 7) % 13 + i.is_multiple_of(3) as u64 * 100;
            for i in 0..200u64 {
                let _ = orig.offer(key(i), 1, |_, a, b| *a += b);
            }
            let mut copy =
                MisraGries::restore(kind, 5, orig.offered(), orig.iter().collect::<Vec<_>>());
            for i in 200..600u64 {
                // A guard that vetoes odd occupants.
                let guard = |k: &u64, _: &u64| k.is_multiple_of(2);
                let a = orig.offer_guarded(key(i), 1, |_, a, b| *a += b, guard);
                let b = copy.offer_guarded(key(i), 1, |_, a, b| *a += b, guard);
                assert_eq!(a, b, "{kind:?} offer {i}");
                assert_eq!(
                    orig.iter().collect::<Vec<_>>(),
                    copy.iter().collect::<Vec<_>>()
                );
            }
            assert_eq!(
                (orig.offered(), orig.slack()),
                (copy.offered(), copy.slack())
            );
        }
    }
}

/// Earlier designs the monitor must agree with, decision for decision:
/// the FREQUENT heap as it was when it took one entry per combined tuple
/// and dropped the stale ones it met (heap memory O(tuples offered)), and
/// SpaceSaving as it was when it had a slot table of its own and sorted
/// every slot on each full-table install.
#[cfg(test)]
mod reference {
    use super::{MgEntry, MgOutcome, Slot};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    /// SpaceSaving with a `(key, count, t, state)` slot table and a stable
    /// sort of all slots by count for each install into a full table.
    pub struct SortScan {
        slots: Vec<(u64, u64, u64, u64)>,
        index: HashMap<u64, usize>,
        capacity: usize,
    }

    impl SortScan {
        pub fn new(capacity: usize) -> Self {
            SortScan {
                slots: Vec::new(),
                index: HashMap::new(),
                capacity,
            }
        }

        pub fn entries(&self) -> Vec<MgEntry<u64, u64>> {
            let entry = |&(key, count, t, state)| MgEntry {
                key,
                count,
                t,
                state,
            };
            self.slots.iter().map(entry).collect()
        }

        pub fn offer_guarded(
            &mut self,
            key: u64,
            state: u64,
            mut guard: impl FnMut(&u64, &u64) -> bool,
        ) -> MgOutcome<u64, u64> {
            if let Some(&i) = self.index.get(&key) {
                let (_, count, t, acc) = &mut self.slots[i];
                (*count, *t, *acc) = (*count + 1, *t + 1, *acc + state);
                return MgOutcome::Combined;
            }
            if self.slots.len() < self.capacity {
                self.index.insert(key, self.slots.len());
                self.slots.push((key, 1, 1, state));
                return MgOutcome::Installed { evicted: None };
            }
            let mut order: Vec<usize> = (0..self.slots.len()).collect();
            order.sort_by_key(|&i| self.slots[i].1);
            let Some(i) = (order.into_iter()).find(|&i| guard(&self.slots[i].0, &self.slots[i].3))
            else {
                return MgOutcome::Rejected { key, state };
            };
            let min = self.slots[i].1;
            let (old, count, t, old_state) =
                std::mem::replace(&mut self.slots[i], (key, min + 1, 1, state));
            self.index.remove(&old);
            self.index.insert(key, i);
            let evicted = MgEntry {
                key: old,
                count,
                t,
                state: old_state,
            };
            MgOutcome::Installed {
                evicted: Some(evicted),
            }
        }
    }

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
    use super::reference::{PushPerCombine, SortScan};
    use super::*;
    use opa_common::rng::SplitMix64;
    use proptest::prelude::*;

    /// Drives the SpaceSaving monitor and the sort-scan oracle with
    /// `steps` seeded tuples over a skewed key space, a seeded guard
    /// vetoing about one occupant in four, and a second-chance request
    /// after one offer in five (the monitor must refuse it untouched).
    /// Outcomes, guard calls and entries must match after every step;
    /// returns the (rejection, eviction, guard call) counts.
    fn against_sort_scan(seed: u64, capacity: usize, keys: u64, steps: u64) -> (u64, u64, u64) {
        let mut rng = SplitMix64::new(seed);
        let mut mg: MisraGries<u64, u64> =
            MisraGries::with_kind(MonitorKind::SpaceSaving, capacity);
        let mut old = SortScan::new(capacity);
        let (mut rejected, mut evicted, mut vetoes) = (0u64, 0u64, 0u64);
        for step in 0..steps {
            let key = rng.next_below(keys).min(rng.next_below(keys));
            let state = 1 + rng.next_below(9);
            let salt = rng.next();
            let veto = |asked: &mut Vec<u64>, k: &u64, s: &u64| {
                asked.push(*k);
                (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ s ^ salt) & 3 != 0
            };
            let (mut asked_new, mut asked_old) = (Vec::new(), Vec::new());
            let new = mg.offer_guarded(
                key,
                state,
                |_, a, b| *a += b,
                |k, s| veto(&mut asked_new, k, s),
            );
            let was = old.offer_guarded(key, state, |k, s| veto(&mut asked_old, k, s));
            assert_eq!(
                asked_new, asked_old,
                "seed {seed} step {step}: victims tried"
            );
            assert_eq!(new, was, "seed {seed} step {step}");
            if let MgOutcome::Rejected { key, state } = new {
                if rng.next_below(5) == 0 {
                    let again = mg.replace_min_guarded(key, state, |_, _| unreachable!());
                    assert_eq!(again, MgOutcome::Rejected { key, state });
                }
                rejected += 1;
            }
            assert_eq!(mg.iter().collect::<Vec<_>>(), old.entries());
            assert_eq!(mg.heap_len(), mg.len());
            vetoes += asked_new.len() as u64;
            evicted += matches!(was, MgOutcome::Installed { evicted: Some(_) }) as u64;
        }
        (rejected, evicted, vetoes)
    }

    #[test]
    fn space_saving_decides_as_the_sort_scan_did() {
        let (mut rejected, mut evicted, mut vetoes) = (0, 0, 0);
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0x55_0000 + seed);
            let capacity = 1 + rng.next_below(12) as usize;
            let keys = capacity as u64 + 1 + rng.next_below(24);
            let (r, e, v) = against_sort_scan(rng.next(), capacity, keys, 5_000);
            (rejected, evicted, vetoes) = (rejected + r, evicted + e, vetoes + v);
        }
        assert!(
            rejected > 1_000 && evicted > 1_000 && vetoes > 10_000,
            "{rejected} rejections, {evicted} evictions, {vetoes} guard calls"
        );
    }

    proptest! {
        /// The same agreement over arbitrary seeds and table shapes.
        #[test]
        fn space_saving_matches_the_sort_scan(
            seed in any::<u64>(),
            capacity in 1usize..16,
            extra_keys in 1u64..40,
        ) {
            against_sort_scan(seed, capacity, capacity as u64 + extra_keys, 400);
        }
    }

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
