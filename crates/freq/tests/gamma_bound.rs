//! Property tests for the paper's coverage guarantee (§4.3): under
//! Zipf-distributed streams, the monitor-reported coverage estimate
//! `γ = t/(t + slack)` never exceeds the true coverage, where the slack is
//! the algorithm's frequency-estimation error bound — `M/(s+1)` for
//! Misra-Gries (FREQUENT), `M/s` for SpaceSaving. Both kinds run on the
//! monitor DINC-hash uses, with no attached state (`S = ()`).

use opa_common::rng::SplitMix64;
use opa_freq::{MisraGries, MonitorKind};
use opa_workloads::zipf::Zipf;
use proptest::prelude::*;
use std::collections::HashMap;

/// Draws a Zipf(exponent) stream of `len` ranks over `n_keys` keys.
fn zipf_stream(seed: u64, n_keys: usize, exponent: f64, len: usize) -> Vec<u64> {
    let zipf = Zipf::new(n_keys, exponent);
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| zipf.sample(&mut rng) as u64).collect()
}

fn true_counts(stream: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &k in stream {
        *m.entry(k).or_insert(0u64) += 1;
    }
    m
}

/// Each kind's frequency guarantee, and `coverage_lower_bound` a genuine
/// lower bound on the true coverage `t/f_k` of every monitored key, over
/// one Zipf stream. Misra-Gries under-counts by at most `M/(s+1)`.
/// SpaceSaving *over*-counts by at most the per-key error
/// `err = count − t` (itself ≤ M/s), so the guaranteed count
/// `f̂ − err = t` is a lower bound on the true frequency and
/// `γ = t/(t + M/s)` never exceeds `t/f ≤ 1` (`f ≤ f̂ = t + err ≤ t + M/s`).
fn gamma_is_a_lower_bound(
    kind: MonitorKind,
    seed: u64,
    n_keys: usize,
    exponent: f64,
    capacity: usize,
    len: usize,
) -> Result<(), TestCaseError> {
    let stream = zipf_stream(seed, n_keys, exponent, len);
    let truth = true_counts(&stream);

    let mut mg: MisraGries<u64, ()> = MisraGries::with_kind(kind, capacity);
    for &k in &stream {
        mg.offer(k, (), |_, _, _| {});
    }
    prop_assert_eq!(mg.offered(), stream.len() as u64);

    let m = mg.offered() as f64;
    let slack = match kind {
        MonitorKind::Frequent => m / (capacity as f64 + 1.0),
        MonitorKind::SpaceSaving => m / capacity as f64,
    };
    prop_assert_eq!(mg.slack(), slack);
    for entry in mg.iter() {
        let f = truth[&entry.key] as f64;
        let est = mg.estimate(&entry.key) as f64;
        prop_assert_eq!(est, entry.count as f64);
        if kind == MonitorKind::Frequent {
            // f − M/(s+1) ≤ f̂ ≤ f.
            prop_assert!(est <= f + 1e-9, "MG over-estimated: {est} > {f}");
            prop_assert!(
                est >= f - slack - 1e-9,
                "MG under-estimated beyond slack: {est} < {f} - {slack}"
            );
        } else {
            // f ≤ f̂ ≤ f + M/s, err ≤ M/s, and the guaranteed
            // count never exceeds the truth.
            let err = (entry.count - entry.t) as f64;
            prop_assert!(est >= f - 1e-9, "SS under-estimated: {est} < {f}");
            prop_assert!(
                est <= f + slack + 1e-9,
                "SS over-estimated beyond slack: {est} > {f} + {slack}"
            );
            prop_assert!(err <= slack + 1e-9);
            prop_assert!(
                est - err <= f + 1e-9,
                "guaranteed {} exceeds true {f}",
                est - err
            );
        }
        // Coverage guarantee: γ = t/(t + slack) ≤ t/f.
        let gamma = mg.coverage_lower_bound(&entry.key);
        let t = entry.t as f64;
        prop_assert_eq!(gamma, t / (t + slack));
        prop_assert!(
            gamma <= t / f + 1e-9,
            "{kind:?}: γ={gamma} exceeds true coverage {} (t={t}, f={f}, slack={slack})",
            t / f
        );
        prop_assert!((0.0..=1.0 + 1e-9).contains(&gamma));
    }
    // Unmonitored keys report zero coverage, never a false promise.
    let absent = n_keys as u64 + 1;
    prop_assert_eq!(mg.coverage_lower_bound(&absent), 0.0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Misra-Gries: [`gamma_is_a_lower_bound`] under FREQUENT.
    #[test]
    fn misra_gries_gamma_is_a_lower_bound(
        seed in 0u64..200,
        n_keys in 40usize..300,
        exponent in 0.6f64..1.6,
        capacity in 4usize..40,
        len in 1500usize..5000,
    ) {
        gamma_is_a_lower_bound(MonitorKind::Frequent, seed, n_keys, exponent, capacity, len)?;
    }

    /// SpaceSaving: [`gamma_is_a_lower_bound`] under SpaceSaving.
    #[test]
    fn space_saving_gamma_is_a_lower_bound(
        seed in 0u64..200,
        n_keys in 40usize..300,
        exponent in 0.6f64..1.6,
        capacity in 4usize..40,
        len in 1500usize..5000,
    ) {
        gamma_is_a_lower_bound(MonitorKind::SpaceSaving, seed, n_keys, exponent, capacity, len)?;
    }

    /// The monitor's coverage estimate and the analytical model agree:
    /// `coverage_lower_bound` computes exactly the paper's first-come
    /// formula `γ = t/(t + M/(s+1))` that `opa_model::gamma` exposes to
    /// the engine's admission battery and the drift checker.
    #[test]
    fn monitor_bound_agrees_with_the_model_formula(
        seed in 0u64..100,
        n_keys in 40usize..300,
        exponent in 0.6f64..1.6,
        capacity in 4usize..40,
        len in 1500usize..4000,
    ) {
        let stream = zipf_stream(seed, n_keys, exponent, len);
        let mut mg: MisraGries<u64, ()> = MisraGries::new(capacity);
        for &k in &stream {
            mg.offer(k, (), |_, _, _| {});
        }
        for entry in mg.iter() {
            let model = opa_model::gamma::first_come_bound(
                entry.t,
                mg.offered(),
                capacity as u64,
            );
            let monitor = mg.coverage_lower_bound(&entry.key);
            prop_assert!(
                (model - monitor).abs() < 1e-12,
                "model γ {model} != monitor γ {monitor} (t={}, M={}, s={capacity})",
                entry.t,
                mg.offered()
            );
        }
    }

    /// The two sketches agree on the head of a heavily skewed stream: the
    /// true top key is monitored by both and both award it the largest
    /// coverage/guarantee in their summaries.
    #[test]
    fn both_sketches_capture_the_zipf_head(
        seed in 0u64..100,
        n_keys in 100usize..300,
        len in 3000usize..6000,
    ) {
        let stream = zipf_stream(seed, n_keys, 1.4, len);
        let truth = true_counts(&stream);
        let top_key = *truth.iter().max_by_key(|&(_, &c)| c).unwrap().0;

        let mut mg: MisraGries<u64, ()> = MisraGries::new(24);
        let mut ss: MisraGries<u64, ()> = MisraGries::with_kind(MonitorKind::SpaceSaving, 24);
        for &k in &stream {
            mg.offer(k, (), |_, _, _| {});
            ss.offer(k, (), |_, _, _| {});
        }
        prop_assert!(mg.estimate(&top_key) > 0, "MG lost the hottest key");
        prop_assert!(ss.get(&top_key).is_some(), "SS lost the hottest key");
        prop_assert!(mg.coverage_lower_bound(&top_key) > 0.0);
        prop_assert!(ss.coverage_lower_bound(&top_key) > 0.0);
    }
}

/// The frequency-gated second chance (`replace_min_guarded` steered by a
/// [`FreqSketch`], exactly the DINC-hash admission wiring) must leave the
/// monitor holding a hotter resident set than plain FREQUENT: summed over
/// seeds the true frequency mass of the final resident keys strictly
/// grows, and no single seed regresses by more than 10% (FREQUENT is
/// already frequency-aware and new installs restart at counter 1, so
/// individual seeds can tie or wobble).
#[test]
fn sketch_gated_second_chance_holds_a_hotter_resident_set() {
    use opa_common::sketch::FreqSketch;
    use opa_freq::MgOutcome;

    let resident_mass = |mg: &MisraGries<u64, ()>, truth: &HashMap<u64, u64>| -> u64 {
        mg.iter().map(|e| truth[&e.key]).sum()
    };

    let (mut plain_total, mut gated_total) = (0u64, 0u64);
    for seed in 0..10u64 {
        let stream = zipf_stream(0xF11E + seed, 400, 1.2, 6000);
        let truth = true_counts(&stream);

        let mut plain: MisraGries<u64, ()> = MisraGries::new(16);
        let mut gated: MisraGries<u64, ()> = MisraGries::new(16);
        let mut sketch = FreqSketch::with_capacity(512);
        for &k in &stream {
            plain.offer(k, (), |_, _, _| {});
            // Mirror the engine: the sketch sees every arrival before the
            // monitor decides, so estimates are pure functions of the
            // stream prefix.
            sketch.touch(k);
            if let MgOutcome::Rejected { key, state } = gated.offer(k, (), |_, _, _| {}) {
                let est_new = sketch.estimate(k);
                gated.replace_min_guarded(key, state, |occupant, ()| {
                    sketch.estimate(*occupant) < est_new
                });
            }
        }

        let p = resident_mass(&plain, &truth);
        let g = resident_mass(&gated, &truth);
        assert!(
            g * 100 >= p * 90,
            "seed {seed}: gated resident mass {g} regressed >10% below plain {p}"
        );
        plain_total += p;
        gated_total += g;
    }
    assert!(
        gated_total > plain_total,
        "second chance never paid off: gated {gated_total} ≤ plain {plain_total}"
    );
}
