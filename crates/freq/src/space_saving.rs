//! SpaceSaving (Metwally, Agrawal, El Abbadi 2005).
//!
//! The other classic counter-based heavy-hitters algorithm: when a new key
//! arrives and all `s` slots are taken, the *minimum-count* slot is evicted
//! and the newcomer inherits `min + 1`, so its count over-estimates its
//! true frequency by at most `min` — `count − t`, with `t` the tuples
//! combined since the install. Like FREQUENT it explicitly encodes the
//! hot-key set, so it satisfies the paper's requirement for DINC (§4.3);
//! OPA runs it as the monitor-choice ablation (`repro ablation`).

use opa_common::SeededState;

/// SpaceSaving with attached per-key state — the drop-in alternative to
/// [`MisraGries`](crate::MisraGries) for DINC-hash's monitor, used by the
/// `ablation` experiments to test the paper's choice of FREQUENT.
///
/// Differences from FREQUENT: there is no decrement step; an unmonitored
/// arrival displaces the *minimum-count* occupant (inheriting `min + 1`),
/// so installs always succeed unless the eviction guard vetoes every
/// minimal occupant.
#[derive(Debug)]
pub struct SpaceSavingMonitor<K, S> {
    slots: Vec<(K, u64, u64, S)>, // key, count, t, state
    index: std::collections::HashMap<K, usize, SeededState>,
    capacity: usize,
    offered: u64,
}

/// Outcome of offering a tuple to a [`SpaceSavingMonitor`] — mirrors
/// [`MgOutcome`](crate::MgOutcome).
pub type SsOutcome<K, S> = crate::MgOutcome<K, S>;

impl<K: Clone + Eq + std::hash::Hash, S> SpaceSavingMonitor<K, S> {
    /// Creates a monitor with `s` slots.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize) -> Self {
        assert!(s > 0, "slot count must be positive");
        SpaceSavingMonitor {
            slots: Vec::with_capacity(s.min(1 << 20)),
            index: std::collections::HashMap::with_capacity_and_hasher(
                s.min(1 << 20),
                SeededState::fixed(),
            ),
            capacity: s,
            offered: 0,
        }
    }

    /// Capacity `s`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing is monitored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total tuples offered (`M`).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Offers one tuple; `guard` can veto displacing a minimal occupant.
    pub fn offer_guarded(
        &mut self,
        key: K,
        state: S,
        cb: impl FnOnce(&K, &mut S, S),
        mut guard: impl FnMut(&K, &S) -> bool,
    ) -> SsOutcome<K, S> {
        use crate::MgOutcome;
        self.offered += 1;
        if let Some(&i) = self.index.get(&key) {
            let (ref k, ref mut count, ref mut t, ref mut s) = self.slots[i];
            cb(k, s, state);
            *count += 1;
            *t += 1;
            return MgOutcome::Combined;
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push((key.clone(), 1, 1, state));
            self.index.insert(key, i);
            return MgOutcome::Installed { evicted: None };
        }
        // Scan minima in count order until the guard accepts one.
        let mut order: Vec<usize> = (0..self.slots.len()).collect();
        order.sort_by_key(|&i| self.slots[i].1);
        let chosen = order
            .into_iter()
            .find(|&i| guard(&self.slots[i].0, &self.slots[i].3));
        match chosen {
            Some(i) => {
                let min_count = self.slots[i].1;
                let old_t = self.slots[i].2;
                let (old_key, _, _, old_state) =
                    std::mem::replace(&mut self.slots[i], (key.clone(), min_count + 1, 1, state));
                self.index.remove(&old_key);
                self.index.insert(key, i);
                MgOutcome::Installed {
                    evicted: Some(crate::MgEntry {
                        key: old_key,
                        count: min_count,
                        t: old_t,
                        state: old_state,
                    }),
                }
            }
            None => MgOutcome::Rejected { key, state },
        }
    }

    /// Rebuilds a monitor from previously exported entries (the checkpoint
    /// counterpart of [`SpaceSavingMonitor::iter`]). Entries are installed
    /// in the given order, which preserves the stable minimum-scan
    /// tie-break and therefore the monitor's future eviction choices.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or more than `capacity` entries are given.
    pub fn restore(capacity: usize, offered: u64, entries: Vec<crate::MgEntry<K, S>>) -> Self {
        assert!(
            entries.len() <= capacity,
            "restore: {} entries exceed capacity {capacity}",
            entries.len()
        );
        let mut m = SpaceSavingMonitor::new(capacity);
        m.offered = offered;
        for e in entries {
            let i = m.slots.len();
            m.slots.push((e.key.clone(), e.count, e.t, e.state));
            m.index.insert(e.key, i);
        }
        m
    }

    /// Looks up a monitored key.
    pub fn get(&self, key: &K) -> Option<crate::MgEntry<K, S>>
    where
        S: Clone,
    {
        let &i = self.index.get(key)?;
        let (ref k, count, t, ref state) = self.slots[i];
        Some(crate::MgEntry {
            key: k.clone(),
            count,
            t,
            state: state.clone(),
        })
    }

    /// Iterates over the monitored entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = crate::MgEntry<K, S>> + '_
    where
        S: Clone,
    {
        self.slots
            .iter()
            .map(|(k, count, t, state)| crate::MgEntry {
                key: k.clone(),
                count: *count,
                t: *t,
                state: state.clone(),
            })
    }

    /// Consumes the monitor, returning its entries.
    pub fn drain(self) -> Vec<crate::MgEntry<K, S>> {
        self.slots
            .into_iter()
            .map(|(key, count, t, state)| crate::MgEntry {
                key,
                count,
                t,
                state,
            })
            .collect()
    }
}

#[cfg(test)]
mod monitor_tests {
    use super::*;
    use crate::MgOutcome;
    #[test]
    fn monitor_combines_and_installs() {
        let mut m: SpaceSavingMonitor<u64, u64> = SpaceSavingMonitor::new(2);
        assert!(matches!(
            m.offer_guarded(1, 1, |_, a, b| *a += b, |_, _| true),
            MgOutcome::Installed { evicted: None }
        ));
        assert!(matches!(
            m.offer_guarded(1, 1, |_, a, b| *a += b, |_, _| true),
            MgOutcome::Combined
        ));
        assert_eq!(m.len(), 1);
        assert_eq!(m.offered(), 2);
    }

    #[test]
    fn monitor_displaces_minimum() {
        let mut m: SpaceSavingMonitor<&str, ()> = SpaceSavingMonitor::new(2);
        for _ in 0..5 {
            let _ = m.offer_guarded("hot", (), |_, _, _| {}, |_, _| true);
        }
        let _ = m.offer_guarded("cold", (), |_, _, _| {}, |_, _| true);
        // Newcomer displaces "cold" (the minimum), never "hot".
        match m.offer_guarded("new", (), |_, _, _| {}, |_, _| true) {
            MgOutcome::Installed { evicted: Some(e) } => assert_eq!(e.key, "cold"),
            other => panic!("expected eviction of the minimum, got {other:?}"),
        }
        assert_eq!(m.drain().len(), 2);
    }

    #[test]
    fn monitor_guard_vetoes() {
        let mut m: SpaceSavingMonitor<u64, ()> = SpaceSavingMonitor::new(1);
        let _ = m.offer_guarded(1, (), |_, _, _| {}, |_, _| true);
        let out = m.offer_guarded(2, (), |_, _, _| {}, |_, _| false);
        assert!(matches!(out, MgOutcome::Rejected { key: 2, .. }));
        // Occupant unharmed.
        let out = m.offer_guarded(1, (), |_, _, _| {}, |_, _| false);
        assert!(matches!(out, MgOutcome::Combined));
    }
}

/// SpaceSaving's own guarantees, checked on the monitor the engine runs
/// (`S = ()`), where a key's over-estimation error is `count − t`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::MgOutcome;
    use std::collections::HashMap;

    /// Offers `key` with no state and no eviction guard.
    fn offer<K: Clone + Eq + std::hash::Hash>(
        m: &mut SpaceSavingMonitor<K, ()>,
        key: K,
    ) -> MgOutcome<K, ()> {
        m.offer_guarded(key, (), |_, _, _| {}, |_, _| true)
    }

    #[test]
    fn hot_key_survives_cold_stream() {
        let mut m = SpaceSavingMonitor::new(4);
        for i in 0..2000u64 {
            let _ = offer(&mut m, 7);
            let _ = offer(&mut m, 1000 + i);
        }
        let hot = m.get(&7).expect("the hot key is monitored");
        assert!(hot.count >= 2000);
    }

    #[test]
    fn estimates_are_overestimates_within_bound() {
        let mut stream = Vec::new();
        for k in 1..=40u64 {
            for _ in 0..(1200 / k) {
                stream.push(k);
            }
        }
        stream.sort_by_key(|&k| k.wrapping_mul(0x2545f4914f6cdd1d).rotate_left(9));
        let s = 12;
        let mut m = SpaceSavingMonitor::new(s);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &stream {
            let _ = offer(&mut m, k);
            *truth.entry(k).or_default() += 1;
        }
        let total = stream.len() as u64;
        for e in m.iter() {
            let f = truth[&e.key];
            assert!(e.count >= f, "underestimate for {}", e.key);
            assert!(
                e.count <= f + total / s as u64,
                "bound violated for {}",
                e.key
            );
            assert!(
                e.t <= f,
                "count − error (= t) exceeds the truth for {}",
                e.key
            );
        }
    }

    #[test]
    fn eviction_reports_displaced_key() {
        let mut m = SpaceSavingMonitor::new(1);
        assert!(matches!(
            offer(&mut m, "a"),
            MgOutcome::Installed { evicted: None }
        ));
        match offer(&mut m, "b") {
            MgOutcome::Installed { evicted: Some(e) } => assert_eq!(e.key, "a"),
            other => panic!("expected the eviction of a, got {other:?}"),
        }
        let b = m.get(&"b").expect("b is monitored");
        assert_eq!((b.count, b.count - b.t), (2, 1)); // min(1) + 1, error min
    }
}
