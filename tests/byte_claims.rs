//! The byte claims the docs make, pinned to the value. γ, spill
//! attribution, shuffle bytes and the handoff's saved bytes are
//! virtual-time quantities of the deterministic simulation — a function
//! of the input alone, identical on every host and at any thread count —
//! so each table below is both the number DESIGN.md / EXPERIMENTS.md
//! quote and the acceptance check behind it:
//!
//! - frequency-gated admission raises measured γ and cuts `U_4` at fixed
//!   reduce memory (DESIGN §3.6);
//! - in-node combining (Lee et al.) ships fewer shuffle bytes than
//!   per-task combining, and `opa_model::CombineModel` tracks the engine
//!   within 10 % under every scope — the repo's only pairing of that model
//!   term with a measured one (DESIGN §3.7, EXPERIMENTS "Combiner skew
//!   sweep");
//! - the dataflow join's in-memory handoff books no map output and saves
//!   its whole shuffle (EXPERIMENTS "Dataflow handoffs").
//!
//! A changed value here is a changed engine decision, not noise: update
//! the row and the doc sentence that cites it together.

use opa::common::rng::SplitMix64;
use opa::common::units::KB;
use opa::common::{AdmissionPolicy, CombineScope};
use opa::core::prelude::*;
use opa::model::CombineModel;
use opa::simio::codec::crc32;
use opa::trace::drift;
use opa::workloads::clickstream::{format_click, ClickStreamSpec};
use opa::workloads::top_pages::{PageSessionsJob, TopKFunnelJob, TopPagesJoinJob};
use opa::workloads::zipf::Zipf;
use opa::workloads::{ClickCountJob, PageFreqJob};

/// One cell of the Zipf × admission grid.
struct AdmissionRow {
    zipf: f64,
    policy: AdmissionPolicy,
    /// Measured γ, to four decimals.
    gamma: &'static str,
    admitted_evict: u64,
    rejected_arrival: u64,
    reduce_spill_bytes: u64,
    resident_keys: u64,
    resident_frequency: u64,
}

#[rustfmt::skip]
const ADMISSION: [AdmissionRow; 6] = {
    use AdmissionPolicy::{Lfu, Off};
    [
        AdmissionRow { zipf: 0.8, policy: Off, gamma: "0.4793", admitted_evict: 0,    rejected_arrival: 486_720, reduce_spill_bytes: 799_944, resident_keys: 384, resident_frequency: 18_671 },
        AdmissionRow { zipf: 0.8, policy: Lfu, gamma: "0.5535", admitted_evict: 8664, rejected_arrival: 417_360, reduce_spill_bytes: 681_024, resident_keys: 384, resident_frequency: 17_354 },
        AdmissionRow { zipf: 1.0, policy: Off, gamma: "0.6519", admitted_evict: 0,    rejected_arrival: 289_176, reduce_spill_bytes: 425_352, resident_keys: 384, resident_frequency: 22_566 },
        AdmissionRow { zipf: 1.0, policy: Lfu, gamma: "0.7250", admitted_evict: 6816, rejected_arrival: 228_480, reduce_spill_bytes: 328_752, resident_keys: 384, resident_frequency: 22_136 },
        AdmissionRow { zipf: 1.2, policy: Off, gamma: "0.8366", admitted_evict: 0,    rejected_arrival: 108_768, reduce_spill_bytes: 112_776, resident_keys: 384, resident_frequency: 23_211 },
        AdmissionRow { zipf: 1.2, policy: Lfu, gamma: "0.8834", admitted_evict: 3672, rejected_arrival: 77_664,  reduce_spill_bytes: 83_400,  resident_keys: 384, resident_frequency: 23_172 },
    ]
};

#[test]
fn admission_sweep_reproduces_the_gamma_and_spill_table() {
    // Click counting on INC-hash at fixed reduce memory: 4 KB of state
    // against a 4 000-user pool, so the resident set holds only a few
    // percent of the keys and admission quality — not raw capacity —
    // decides γ.
    let mut cluster = ClusterSpec::tiny();
    cluster.hardware.reduce_buffer = 4 * KB;
    for pair in ADMISSION.chunks(2) {
        let zipf = pair[0].zipf;
        let mut spec = ClickStreamSpec::counting_scaled(6 << 20);
        spec.zipf_exponent = zipf;
        spec.users = 4000;
        let input = spec.generate(42);
        let mut measured = [(0.0f64, 0u64); 2];
        for (slot, row) in pair.iter().enumerate() {
            let label = row.policy.label();
            let outcome = JobBuilder::new(ClickCountJob {
                expected_users: 1000,
            })
            .framework(Framework::IncHash)
            .cluster(cluster)
            .admission(row.policy)
            .run(&input)
            .expect("admission sweep job runs");
            let s = outcome
                .metrics
                .admission
                .expect("incremental run reports admission stats");
            let got = (
                format!("{:.4}", s.gamma_measured()),
                s.spill.admitted_evict,
                s.spill.rejected_arrival,
                outcome.metrics.reduce_spill_bytes,
                s.resident_keys,
                s.resident_frequency,
            );
            let want = (
                row.gamma.to_string(),
                row.admitted_evict,
                row.rejected_arrival,
                row.reduce_spill_bytes,
                row.resident_keys,
                row.resident_frequency,
            );
            assert_eq!(
                got, want,
                "zipf {zipf} {label}: (γ, admitted_evict, rejected_arrival, U4, resident keys, resident frequency)"
            );
            measured[slot] = (s.gamma_measured(), outcome.metrics.reduce_spill_bytes);
        }
        let [(gamma_off, u4_off), (gamma_lfu, u4_lfu)] = measured;
        if zipf >= 1.0 {
            assert!(
                gamma_lfu > gamma_off,
                "zipf {zipf}: γ_lfu {gamma_lfu:.4} does not beat first-come {gamma_off:.4}"
            );
            assert!(
                u4_lfu < u4_off,
                "zipf {zipf}: U4 did not drop ({u4_lfu} lfu vs {u4_off} off)"
            );
        }
    }
}

/// One cell of the Zipf × combine-scope grid.
struct CombineRow {
    zipf: f64,
    scope: CombineScope,
    shuffle_bytes: u64,
    map_output_bytes: u64,
    flushes: u64,
    merged_rows: u64,
    /// The drift checker's combiner-term relative error, to four decimals.
    model_rel_err: &'static str,
}

#[rustfmt::skip]
const COMBINE: [CombineRow; 9] = {
    use CombineScope::{Node, Off, Task};
    [
        CombineRow { zipf: 0.8, scope: Off,  shuffle_bytes: 576_000, map_output_bytes: 576_000, flushes: 0, merged_rows: 0,      model_rel_err: "0.0000" },
        CombineRow { zipf: 0.8, scope: Task, shuffle_bytes: 513_936, map_output_bytes: 513_936, flushes: 0, merged_rows: 0,      model_rel_err: "0.0002" },
        CombineRow { zipf: 0.8, scope: Node, shuffle_bytes: 69_720,  map_output_bytes: 513_936, flushes: 2, merged_rows: 18_509, model_rel_err: "0.0122" },
        CombineRow { zipf: 1.0, scope: Off,  shuffle_bytes: 576_000, map_output_bytes: 576_000, flushes: 0, merged_rows: 0,      model_rel_err: "0.0000" },
        CombineRow { zipf: 1.0, scope: Task, shuffle_bytes: 436_248, map_output_bytes: 436_248, flushes: 0, merged_rows: 0,      model_rel_err: "0.0015" },
        CombineRow { zipf: 1.0, scope: Node, shuffle_bytes: 62_040,  map_output_bytes: 436_248, flushes: 2, merged_rows: 15_592, model_rel_err: "0.0084" },
        CombineRow { zipf: 1.2, scope: Off,  shuffle_bytes: 576_000, map_output_bytes: 576_000, flushes: 0, merged_rows: 0,      model_rel_err: "0.0000" },
        CombineRow { zipf: 1.2, scope: Task, shuffle_bytes: 341_784, map_output_bytes: 341_784, flushes: 0, merged_rows: 0,      model_rel_err: "0.0030" },
        CombineRow { zipf: 1.2, scope: Node, shuffle_bytes: 47_376,  map_output_bytes: 341_784, flushes: 2, merged_rows: 12_267, model_rel_err: "0.0009" },
    ]
};

#[test]
fn combine_sweep_reproduces_the_shuffle_table_and_the_model_tracks_it() {
    const USERS: usize = 1500;
    const RECORDS: usize = 24_000;
    let mut cluster = ClusterSpec::tiny();
    // A roomy staging budget: each node flushes once, the regime where
    // the model's ν = 1 flush-count prediction is exact.
    cluster.node_combine_buffer = 1 << 20;
    for cells in COMBINE.chunks(3) {
        let zipf = cells[0].zipf;
        // i.i.d. Zipf clicks, one pair per record, so the model's draw
        // count is exact — deliberately NOT the sessionized generator,
        // whose per-user click *runs* violate the model's independence
        // assumption.
        let mut rng = SplitMix64::new(0xC0B1 + (zipf * 10.0) as u64);
        let sampler = Zipf::new(USERS, zipf);
        let input = JobInput::from_records(
            (0..RECORDS)
                .map(|i| format_click(i as u64, sampler.sample(&mut rng) as u64, 0))
                .collect(),
        );
        for row in cells {
            let label = row.scope.label();
            let outcome = JobBuilder::new(ClickCountJob {
                expected_users: USERS as u64,
            })
            .framework(Framework::MrHash)
            .cluster(cluster)
            .combine(row.scope)
            .trace(true)
            .run(&input)
            .expect("combine sweep job runs");
            let rollup = outcome
                .trace
                .as_ref()
                .expect("traced run carries a trace log")
                .rollup();
            let model = CombineModel {
                pairs: RECORDS as f64,
                pair_bytes: 24.0, // 8-byte user key + 8-byte count + record overhead
                keys: USERS as u64,
                zipf,
                maps: rollup.map_tasks as f64,
                nodes: cluster.hardware.nodes as f64,
                stage_budget: cluster.node_combine_buffer as f64,
            };
            let term = drift::check_with_combine(
                cluster.system,
                cluster.hardware,
                &rollup,
                Some((row.scope, model)),
            )
            .expect("drift check runs")
            .combine
            .expect("combiner term present");
            assert!(
                term.rel_err() <= 0.10,
                "zipf {zipf} {label}: combiner-term drift {:.2}% exceeds 10% \
                 (predicted {:.0}, measured {:.0} per node)",
                term.rel_err() * 100.0,
                term.predicted,
                term.measured
            );
            let nc = outcome.metrics.node_combine;
            let got = (
                outcome.metrics.shuffle_bytes,
                outcome.metrics.map_output_bytes,
                nc.map_or(0, |s| s.flushes),
                nc.map_or(0, |s| s.merged_rows),
                format!("{:.4}", term.rel_err()),
            );
            let want = (
                row.shuffle_bytes,
                row.map_output_bytes,
                row.flushes,
                row.merged_rows,
                row.model_rel_err.to_string(),
            );
            assert_eq!(
                got, want,
                "zipf {zipf} {label}: (shuffle, map output, flushes, merged rows, model rel err)"
            );
        }
        // The orderings, on the pinned values: task combining always
        // shrinks the shuffle; node scope beats it once the skew gives a
        // node's tasks keys in common, and only by merging rows.
        let [off, task, node] = [&cells[0], &cells[1], &cells[2]];
        assert!(task.shuffle_bytes < off.shuffle_bytes, "zipf {zipf}");
        assert!(node.merged_rows > 0, "zipf {zipf}");
        if zipf >= 1.0 {
            assert!(node.shuffle_bytes < task.shuffle_bytes, "zipf {zipf}");
        }
    }
}

#[test]
fn top_pages_join_skips_its_shuffle_and_saves_every_byte_of_it() {
    // Producers run once; the chain over their union either skips the
    // join's shuffle (Auto) or is forced through the classic reshuffle /
    // materialize-to-file handoffs. All three must agree bit for bit.
    let spec = ClusterSpec::tiny();
    let data = ClickStreamSpec::counting_scaled(8 << 20).generate(42);
    let freq = JobBuilder::new(PageFreqJob {
        expected_pages: 100_000,
    })
    .framework(Framework::IncHash)
    .cluster(spec)
    .run(&data)
    .expect("page_freq producer");
    let sessions = JobBuilder::new(PageSessionsJob {
        expected_pages: 100_000,
    })
    .framework(Framework::MrHash)
    .cluster(spec)
    .run(&data)
    .expect("page_sessions producer");
    let union = Dataset::union(&freq.dataset(&spec), &sessions.dataset(&spec))
        .expect("compatible producers");
    let chain = |policy: HandoffPolicy| {
        Dataflow::new(spec)
            .then(TopPagesJoinJob, Framework::MrHash)
            .then(TopKFunnelJob { k: 20 }, Framework::MrHash)
            .policy(policy)
            .run_from(&union)
            .expect("top-pages chain")
    };
    let skip = chain(HandoffPolicy::Auto);
    assert_eq!(skip.stages[0].handoff, Handoff::InMemory);
    assert_eq!(skip.stages[0].metrics.map_output_bytes, 0);
    assert_eq!(skip.stages[0].bytes_saved, 288_765);
    // The chain's output as an `.opadf` file (partition-major order
    // included) and the skipped stage's books: no rewrite of the skip
    // path may move them.
    let path = std::env::temp_dir().join(format!("opa-byte-claims-{}.opadf", std::process::id()));
    skip.output.write(&path).expect("write the output dataset");
    let opadf_crc = crc32(&std::fs::read(&path).expect("read it back"));
    let decoded = Dataset::read(&path).expect("decode it");
    std::fs::remove_file(&path).ok();
    let join = &skip.stages[0];
    assert_eq!(
        (
            opadf_crc,
            crc32(format!("{decoded:?}").as_bytes()),
            join.records_out,
            join.bytes_out,
            join.metrics.map_spill_bytes,
            join.metrics.reduce_spill_bytes,
            join.metrics.output_records,
        ),
        (
            1_592_154_705,
            1_294_704_037,
            4185,
            159_030,
            0,
            337_892,
            4185
        ),
        "(opadf crc, decoded crc, records_out, bytes_out, map spill, reduce spill, \
         output records)"
    );
    for policy in [HandoffPolicy::Reshuffle, HandoffPolicy::Materialize] {
        assert_eq!(
            chain(policy).sorted_output(),
            skip.sorted_output(),
            "{policy:?} disagrees with the in-memory handoff"
        );
    }
}
