//! The frequency-gated admission gate earns its memory (§4.2/§4.3 +
//! TinyLFU gate): at fixed reduce memory under Zipf skew, the
//! LFU-admitted resident set's total frequency dominates first-come's,
//! measured coverage γ beats both the first-come engine and the paper's
//! `t/(t + M/(s+1))` bound, and reduce-spill (`U_4`) bytes drop. That the
//! gate never changes the answer — off ≡ an untouched build, on ≡ across
//! thread counts and fault plans, books balanced — is checked by the
//! option-space generator (`option_space/mod.rs`); the last four tests
//! are its views.

mod option_space;

use opa_common::rng::SplitMix64;
use opa_common::{AdmissionPolicy, Key, Value};
use opa_core::api::{Combiner, IncrementalReducer, Job, ReduceCtx};
use opa_core::cluster::{ClusterSpec, Framework};
use opa_core::job::{JobBuilder, JobInput, JobOutcome};
use opa_core::metrics::AdmissionStats;
use option_space::{run_batch_cells, Faults};

/// Count-per-key job: one key token per record, commutative/associative
/// combine — the natural INC/DINC workload shape.
struct ZipfCount {
    expected: u64,
}

impl Job for ZipfCount {
    fn name(&self) -> &str {
        "zipf-count"
    }
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
        if !record.is_empty() {
            emit(record, &1u64.to_be_bytes());
        }
    }
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
        let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
        ctx.emit(key.clone(), Value::from_u64(sum));
    }
    fn combiner(&self) -> Option<&dyn Combiner> {
        Some(self)
    }
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        Some(self)
    }
    fn expected_keys(&self) -> Option<u64> {
        Some(self.expected)
    }
}

impl Combiner for ZipfCount {
    fn fold(&self, _key: &Key, acc: &mut Value, value: Value) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + value.as_u64().unwrap_or(0));
    }
}

impl IncrementalReducer for ZipfCount {
    fn init(&self, _key: &Key, value: &[u8]) -> Value {
        Value::from_slice(value)
    }
    fn cb(&self, _key: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
        *acc = Value::from_u64(acc.as_u64().unwrap_or(0) + other.as_u64().unwrap_or(0));
    }
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        ctx.emit(key.clone(), state);
    }
}

const N_KEYS: usize = 5000;
const N_RECORDS: usize = 20_000;

/// One Zipf(`exponent`)-distributed key token per record. Fixed-width key
/// text keeps per-entry memory uniform, so the resident-set size (the
/// paper's `s`) is the same under either policy — the comparison is at
/// genuinely fixed memory.
fn zipf_input(seed: u64, exponent: f64) -> JobInput {
    let mut cdf = Vec::with_capacity(N_KEYS);
    let mut acc = 0.0f64;
    for k in 1..=N_KEYS {
        acc += 1.0 / (k as f64).powf(exponent);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    let mut rng = SplitMix64::new(seed);
    let recs: Vec<Vec<u8>> = (0..N_RECORDS)
        .map(|_| {
            let u = rng.next_f64();
            let rank = cdf.partition_point(|&c| c < u);
            format!("k{rank:06}").into_bytes()
        })
        .collect();
    JobInput::from_records(recs)
}

/// The spill-happy 2-node cluster: 16 KB of reduce memory is the fixed
/// `M` every comparison below runs at.
fn spec() -> ClusterSpec {
    ClusterSpec::tiny()
}

fn run(framework: Framework, policy: AdmissionPolicy, input: &JobInput) -> JobOutcome {
    JobBuilder::new(ZipfCount {
        expected: N_KEYS as u64,
    })
    .framework(framework)
    .cluster(spec())
    .admission(policy)
    .run(input)
    .expect("job runs")
}

fn adm(outcome: &JobOutcome) -> AdmissionStats {
    outcome
        .metrics
        .admission
        .expect("incremental frameworks report admission stats")
}

const INCREMENTAL: [Framework; 2] = [Framework::IncHash, Framework::DincHash];

/// Satellite (c): under Zipf skew ≥ 1.0, the LFU resident set's total
/// frequency (tuples absorbed into the keys still resident at finish) is
/// at least the first-come resident set's — the gate keeps hotter keys.
///
/// The strict comparison targets INC-hash, whose off-policy *is* the
/// paper's first-come admission. DINC-hash's baseline is the FREQUENT
/// monitor — already frequency-aware — so the second-chance gate only
/// refines near-ties there; its resident frequency must stay within 1%
/// while its measured γ must not regress.
#[test]
fn lfu_resident_set_frequency_dominates_first_come_under_zipf() {
    for exponent in [1.0, 1.2] {
        let input = zipf_input(0xADB4, exponent);
        for fw in INCREMENTAL {
            let off = adm(&run(fw, AdmissionPolicy::Off, &input));
            let on = adm(&run(fw, AdmissionPolicy::Lfu, &input));
            if fw == Framework::IncHash {
                assert!(
                    on.resident_frequency >= off.resident_frequency,
                    "{fw:?} @ Zipf {exponent}: LFU resident frequency {} < first-come {}",
                    on.resident_frequency,
                    off.resident_frequency
                );
            } else {
                assert!(
                    on.resident_frequency * 100 >= off.resident_frequency * 99,
                    "{fw:?} @ Zipf {exponent}: LFU resident frequency {} regressed >1% \
                     below the monitor baseline {}",
                    on.resident_frequency,
                    off.resident_frequency
                );
                assert!(
                    on.gamma_measured() >= off.gamma_measured(),
                    "{fw:?} @ Zipf {exponent}: γ regressed with the gate on"
                );
            }
        }
    }
}

/// The tentpole acceptance, test-enforced: at fixed `M` under Zipf 1.0,
/// measured coverage γ with the gate on strictly beats the first-come
/// engine's γ, meets the paper's `t/(t + M/(s+1))` lower bound at the
/// measured operating point, and `U_4` reduce-spill bytes drop.
#[test]
fn lfu_beats_first_come_gamma_and_spill_at_fixed_memory() {
    for fw in INCREMENTAL {
        let input = zipf_input(0xADB5, 1.0);
        let off_run = run(fw, AdmissionPolicy::Off, &input);
        let on_run = run(fw, AdmissionPolicy::Lfu, &input);
        let off = adm(&off_run);
        let on = adm(&on_run);

        assert!(
            off.rejected > 0,
            "{fw:?}: first-come never overflowed — the comparison is vacuous"
        );
        assert!(
            on.gamma_measured() > off.gamma_measured(),
            "{fw:?}: γ_on {:.4} does not beat first-come γ {:.4}",
            on.gamma_measured(),
            off.gamma_measured()
        );
        // The paper's first-come coverage bound, evaluated at the
        // measured operating point: t̄ = mean resident frequency,
        // M = offered tuples, s = resident keys.
        let t_bar = on.resident_frequency / on.resident_keys.max(1);
        let bound = opa_model::gamma::first_come_bound(t_bar, on.offered, on.resident_keys);
        assert!(
            on.gamma_measured() >= bound,
            "{fw:?}: γ_on {:.4} below the first-come bound {bound:.4}",
            on.gamma_measured()
        );
        assert!(
            on_run.metrics.reduce_spill_bytes < off_run.metrics.reduce_spill_bytes,
            "{fw:?}: U4 did not drop ({} on vs {} off)",
            on_run.metrics.reduce_spill_bytes,
            off_run.metrics.reduce_spill_bytes
        );
    }
}

/// Default options, INC-hash and DINC-hash on every cluster: the whole
/// outcome equals a builder with no option setter called.
#[test]
fn admission_off_is_bit_identical_to_an_untouched_build() {
    run_batch_cells(|c| c.is_plain() && INCREMENTAL.contains(&c.framework));
}

/// The gate on: the whole outcome is the same at 1 thread and at 2, 4 or
/// 8, under every fault plan.
#[test]
fn admission_on_outcome_is_bit_identical_across_thread_counts() {
    run_batch_cells(|c| c.admission.is_on() && INCREMENTAL.contains(&c.framework))
        .require("evicted fired");
}

/// The gate on, no faults: the output is the naive group-by.
#[test]
fn admission_preserves_the_output_multiset() {
    run_batch_cells(|c| {
        c.admission.is_on() && c.faults == Faults::None && INCREMENTAL.contains(&c.framework)
    })
    .require("evicted spilled");
}

/// Either policy, no faults: `offered = absorbed + rejected`, no eviction
/// with the gate off, and the spill split within reduce spill.
#[test]
fn admission_counters_balance_under_both_policies() {
    run_batch_cells(|c| c.faults == Faults::None && INCREMENTAL.contains(&c.framework))
        .require("evicted spilled");
}
