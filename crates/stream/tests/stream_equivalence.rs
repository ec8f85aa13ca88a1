//! The stream runtime's contracts beyond the option space (where
//! `tests/option_space.rs` holds every streamed run to the batch run):
//! an order-sensitive workload streams thread-invariantly on the paper
//! cluster, batch callbacks see monotone progress, and a thread request
//! is capped at the host.

use opa_common::ExecConfig;
use opa_core::cluster::{ClusterSpec, Framework};
use opa_stream::StreamJobBuilder;
use opa_workloads::click_count::ClickCountJob;
use opa_workloads::clickstream::ClickStreamSpec;
use opa_workloads::sessionize::SessionizeJob;

fn click_job() -> ClickCountJob {
    ClickCountJob {
        expected_users: 100,
    }
}

fn sessionize_job() -> SessionizeJob {
    SessionizeJob {
        gap_secs: 300,
        slack_secs: 400,
        state_capacity: 16384,
        charge_fixed_footprint: false,
        expected_users: 100,
    }
}

#[test]
fn streamed_run_is_thread_invariant() {
    // An order-sensitive workload (sessionization emits from a reorder
    // buffer) on the multi-node paper cluster: the strongest determinism
    // check the repo has, extended to the stream runtime.
    let data = ClickStreamSpec::small().generate(44);
    for fw in [Framework::IncHash, Framework::DincHash] {
        let run = |threads: usize| {
            StreamJobBuilder::new(sessionize_job())
                .framework(fw)
                .cluster(ClusterSpec::paper_scaled())
                .exec(ExecConfig::oversubscribed(threads))
                .batches(5)
                .run_stream(&data, |_| {})
                .expect("stream runs")
        };
        let t1 = run(1);
        let t8 = run(8);
        assert_eq!(
            t1.job.output, t8.job.output,
            "{fw:?}: stream output must not depend on thread count"
        );
        assert_eq!(
            format!("{:?}", t1.job.metrics),
            format!("{:?}", t8.job.metrics),
            "{fw:?}: stream metrics must not depend on thread count"
        );
    }
}

#[test]
fn batch_callbacks_see_monotone_progress() {
    let data = ClickStreamSpec::small().generate(101);
    let mut last_records = 0;
    let mut last_batch = 0;
    StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .batches(6)
        .run_stream(&data, |ctl| {
            let p = ctl.progress();
            assert_eq!(p.batches_sealed, last_batch + 1, "batches seal in order");
            assert!(
                p.records_sealed > last_records || p.batches_sealed == p.batches,
                "watermark advances with every seal"
            );
            assert!(p.records_sealed <= p.total_records);
            assert!(p.maps_completed <= p.maps_total);
            last_batch = p.batches_sealed;
            last_records = p.records_sealed;
        })
        .expect("stream runs");
    assert_eq!(last_batch, 6);
    assert_eq!(last_records, data.len());
}

/// `threads(n)` is a request the engine caps at the host's cores
/// (`ExecConfig::effective_threads`), for a stream run as for a batch run:
/// asking for 4 096 threads must not spawn 4 095 workers.
#[test]
#[cfg(target_os = "linux")]
fn thread_request_is_capped_at_the_host() {
    fn process_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status.lines().find(|l| l.starts_with("Threads:"));
        line.and_then(|l| l["Threads:".len()..].trim().parse().ok())
            .expect("a Threads: line")
    }
    let data = ClickStreamSpec::small().generate(101);
    let mut peak = 0;
    StreamJobBuilder::new(click_job())
        .framework(Framework::IncHash)
        .cluster(ClusterSpec::tiny())
        .threads(4096)
        .batches(2)
        .run_stream(&data, |_| peak = peak.max(process_threads()))
        .expect("stream runs");
    // The other tests of this binary run beside this one, each with a
    // handful of threads of its own.
    assert!(peak > 0 && peak < 1024, "{peak} threads alive at a seal");
}
