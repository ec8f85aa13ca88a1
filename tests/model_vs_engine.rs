//! Cross-crate integration: the analytical model of §3 must predict the
//! engine's time trends directionally, and its optimizer's recommendation
//! must pay off in the engine. Byte counts are checked term by term
//! through the drift comparer in `model_drift.rs`.

use opa::common::units::{KB, MB};
use opa::common::WorkloadSpec;
use opa::core::prelude::*;
use opa::model::io_model::ModelInput;
use opa::model::optimizer::{recommended_chunk, Optimizer};
use opa::model::time_model::CostConstants;
use opa::workloads::clickstream::ClickStreamSpec;
use opa::workloads::SessionizeJob;

fn cluster(chunk_kb: u64, f: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::paper_scaled();
    spec.system.chunk_size = chunk_kb * KB;
    spec.system.merge_factor = f;
    // Small shuffle buffers put the reducers firmly in the multi-pass
    // regime (β ≈ 9) even at test-sized inputs.
    spec.hardware.reduce_buffer = 128 * KB;
    spec
}

fn run_sm(input: &opa::core::job::JobInput, spec: ClusterSpec, users: u64) -> JobOutcome {
    JobBuilder::new(SessionizeJob {
        gap_secs: 300,
        slack_secs: 400,
        state_capacity: 512,
        charge_fixed_footprint: true,
        expected_users: users,
    })
    .framework(Framework::SortMerge)
    .cluster(spec)
    .run(input)
    .expect("job runs")
}

#[test]
fn model_trend_matches_engine_on_merge_factor() {
    // Fig 4(b)'s key trend: a tiny merge factor costs real time.
    let spec = ClickStreamSpec::paper_scaled(24 * MB);
    let (input, stats) = spec.generate_with_stats(34);
    let slow = run_sm(&input, cluster(64, 2), stats.distinct_users);
    let fast = run_sm(&input, cluster(64, 32), stats.distinct_users);
    assert!(
        slow.metrics.running_time > fast.metrics.running_time,
        "F=2 ({}) should be slower than F=32 ({})",
        slow.metrics.running_time,
        fast.metrics.running_time
    );
    // And the model agrees on the direction.
    let constants = CostConstants::scaled(1024.0);
    let d = input.total_bytes();
    let t = |f: usize| {
        ModelInput::new(
            cluster(64, f).system,
            WorkloadSpec::new(d, 1.0, 1.0),
            cluster(64, f).hardware,
        )
        .unwrap()
        .time_measurement(&constants)
        .total()
    };
    assert!(t(2) > t(32));
}

#[test]
fn optimizer_recommendation_beats_stock_in_engine() {
    let spec = ClickStreamSpec::paper_scaled(24 * MB);
    let (input, stats) = spec.generate_with_stats(35);
    let d = input.total_bytes();
    let hw = ClusterSpec::paper_scaled().hardware;
    let opt = Optimizer::new(
        WorkloadSpec::new(d, 1.0, 1.0),
        hw,
        CostConstants::scaled(1024.0),
    );
    let rec = opt.optimize().expect("optimize");
    // Run the engine at stock and at the recommendation.
    let stock = run_sm(&input, ClusterSpec::paper_scaled(), stats.distinct_users);
    let mut tuned_spec = ClusterSpec::paper_scaled();
    tuned_spec.system.chunk_size = rec.chunk_size;
    // Headroom for skewed reducers, as in the paper's harness.
    tuned_spec.system.merge_factor = rec.merge_factor * 4;
    let tuned = run_sm(&input, tuned_spec, stats.distinct_users);
    assert!(
        tuned.metrics.running_time.as_secs_f64() <= stock.metrics.running_time.as_secs_f64() * 1.02,
        "model-tuned run ({}) should not lose to stock ({})",
        tuned.metrics.running_time,
        stock.metrics.running_time
    );
    // The chunk recommendation itself is the buffer-fit rule.
    assert_eq!(recommended_chunk(1.0, hw.map_buffer), hw.map_buffer);
}
