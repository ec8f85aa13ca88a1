//! # opa-freq
//!
//! Stream-frequency algorithms underpinning the DINC-hash technique of the
//! paper (§4.3).
//!
//! DINC-hash decides *which keys deserve the in-memory fast path* using the
//! FREQUENT algorithm (Misra & Gries 1982; Berinde et al. 2009): `s`
//! monitored slots, each holding a key, a counter, the state of the partial
//! reduce computation, and `t` — the number of tuples combined since the key
//! was last installed. [`MisraGries`] implements exactly that, generic over
//! the attached state so it doubles as a plain heavy-hitters sketch
//! (`S = ()`).
//!
//! The paper rejects "sketch-based" frequency estimators (Count-Min and
//! friends) because they do not *explicitly encode* the hot-key set; the
//! counter-based SpaceSaving algorithm does, and differs from FREQUENT only
//! in what a new key does to a full table. It is the same [`MisraGries`]
//! type with the other eviction rule ([`MonitorKind::SpaceSaving`]), the
//! monitor-choice ablation's alternative monitor.
//!
//! Guarantees implemented and tested here, with `M` tuples offered:
//!
//! - frequency error: `f_k − M/(s+1) ≤ f̂_k ≤ f_k` under FREQUENT,
//!   `f_k ≤ f̂_k ≤ f_k + M/s` under SpaceSaving;
//! - combine-work bound (FREQUENT): at least
//!   `M' = Σ_{i≤s} max(0, f_i − M/(s+1))` combine operations happen in
//!   memory;
//! - coverage under-estimate: `γ_k = t/(t + slack) ≤ coverage(k)`, the
//!   slack being the frequency error bound (`M/(s+1)` or `M/s`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod misra_gries;

pub use misra_gries::{MgEntry, MgOutcome, MisraGries, MonitorKind};

/// SpaceSaving's guarantees, on the monitor running the SpaceSaving rule.
#[cfg(test)]
mod space_saving {
    /// The outcomes of an offer, the kind one more input where both kinds
    /// share them.
    mod monitor_tests {
        use crate::{MgOutcome, MisraGries, MonitorKind};

        const KINDS: [MonitorKind; 2] = [MonitorKind::Frequent, MonitorKind::SpaceSaving];

        #[test]
        fn monitor_combines_and_installs() {
            for kind in KINDS {
                let mut m: MisraGries<u64, u64> = MisraGries::with_kind(kind, 2);
                assert!(matches!(
                    m.offer(1, 1, |_, a, b| *a += b),
                    MgOutcome::Installed { evicted: None }
                ));
                assert!(matches!(
                    m.offer(1, 1, |_, a, b| *a += b),
                    MgOutcome::Combined
                ));
                let e = m.get(&1).expect("monitored");
                assert_eq!((e.count, e.t, e.state), (2, 2, 2), "{kind:?}");
                assert_eq!((m.len(), m.offered(), m.kind()), (1, 2, kind));
            }
        }

        #[test]
        fn monitor_displaces_minimum() {
            let mut m: MisraGries<&str, ()> = MisraGries::with_kind(MonitorKind::SpaceSaving, 2);
            for _ in 0..5 {
                let _ = m.offer("hot", (), |_, _, _| {});
            }
            let _ = m.offer("cold", (), |_, _, _| {});
            // Newcomer displaces "cold" (the minimum), never "hot".
            match m.offer("new", (), |_, _, _| {}) {
                MgOutcome::Installed { evicted: Some(e) } => assert_eq!(e.key, "cold"),
                other => panic!("expected eviction of the minimum, got {other:?}"),
            }
            assert_eq!(m.drain().len(), 2);
        }

        #[test]
        fn monitor_guard_vetoes() {
            let mut m: MisraGries<u64, ()> = MisraGries::with_kind(MonitorKind::SpaceSaving, 1);
            let _ = m.offer(1, (), |_, _, _| {});
            let out = m.offer_guarded(2, (), |_, _, _| {}, |_, _| false);
            assert!(matches!(out, MgOutcome::Rejected { key: 2, .. }));
            // Occupant unharmed, its count undecremented.
            assert_eq!(m.estimate(&1), 1);
            let out = m.offer_guarded(1, (), |_, _, _| {}, |_, _| false);
            assert!(matches!(out, MgOutcome::Combined));
        }
    }

    /// SpaceSaving's own guarantees, where a key's over-estimation error
    /// is `count − t`.
    mod tests {
        use crate::{MgOutcome, MisraGries, MonitorKind};
        use std::collections::HashMap;

        #[test]
        fn hot_key_survives_cold_stream() {
            let mut m: MisraGries<u64, ()> = MisraGries::with_kind(MonitorKind::SpaceSaving, 4);
            for i in 0..2000u64 {
                let _ = m.offer(7, (), |_, _, _| {});
                let _ = m.offer(1000 + i, (), |_, _, _| {});
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
            let mut m: MisraGries<u64, ()> = MisraGries::with_kind(MonitorKind::SpaceSaving, s);
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for &k in &stream {
                let _ = m.offer(k, (), |_, _, _| {});
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
            let mut m: MisraGries<&str, ()> = MisraGries::with_kind(MonitorKind::SpaceSaving, 1);
            assert!(matches!(
                m.offer("a", (), |_, _, _| {}),
                MgOutcome::Installed { evicted: None }
            ));
            match m.offer("b", (), |_, _, _| {}) {
                MgOutcome::Installed { evicted: Some(e) } => {
                    assert_eq!((e.key, e.count, e.t), ("a", 1, 1));
                }
                other => panic!("expected the eviction of a, got {other:?}"),
            }
            let b = m.get(&"b").expect("b is monitored");
            assert_eq!((b.count, b.count - b.t), (2, 1)); // min(1) + 1, error min
        }
    }
}
