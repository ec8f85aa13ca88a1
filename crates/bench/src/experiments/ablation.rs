//! Ablations of design decisions the paper discusses in passing:
//!
//! - **HOP snapshots** (§3.3(4)): MapReduce Online can emit periodic
//!   snapshots "by repeating the merge operation for each snapshot, not by
//!   incremental processing. It can incur high I/O overhead and
//!   significantly increased running time." OPA implements the snapshot
//!   mode and measures exactly that — and contrasts it with INC-hash,
//!   which gets continuous output for free.
//! - **Reducers per node** (§3.2(3)): with `R` above the reduce-slot
//!   count, second-wave reducers re-read map output from disk; the paper
//!   measured R=8 at 4723 s vs R=4 at 4187 s.

use super::*;
use crate::report::Table;
use crate::ExpConfig;
use opa_core::job::JobBuilder;

/// Runs all three ablations.
pub fn run(cfg: &ExpConfig) {
    snapshots(cfg);
    reducer_waves(cfg);
    monitor_choice(cfg);
}

/// §4.3 rejects "sketch-based" estimators but both FREQUENT and
/// SpaceSaving qualify as counter-based monitors that explicitly encode
/// the hot-key set; this ablation measures whether the paper's pick
/// matters in practice.
fn monitor_choice(cfg: &ExpConfig) {
    use opa_freq::MonitorKind;
    println!("== Ablation: DINC monitor algorithm (FREQUENT vs SpaceSaving) ==\n");
    let (input, info) = session_input(cfg, WORLDCUP_EVAL / 2);
    let cluster = one_pass_cluster(cfg, input.total_bytes(), 1.0);
    let mut t = Table::new([
        "monitor",
        "running time s",
        "reduce spill GB",
        "reduce@mapfinish %",
    ]);
    for (label, kind) in [
        ("FREQUENT (paper)", MonitorKind::Frequent),
        ("SpaceSaving", MonitorKind::SpaceSaving),
    ] {
        let wall = std::time::Instant::now();
        let outcome = JobBuilder::new(session_job(&info, 2048))
            .framework(Framework::DincHash)
            .cluster(cluster)
            .dinc_monitor(kind)
            .run(&input)
            .expect("dinc job runs");
        eprintln!(
            "  [ablation/monitor={label}] virtual {:.0}s, wall {:.1?}",
            outcome.metrics.running_time.as_secs_f64(),
            wall.elapsed()
        );
        t.row([
            label.to_string(),
            secs(&outcome.metrics),
            gb(cfg, outcome.metrics.reduce_spill_bytes),
            format!("{:.0}", outcome.progress.reduce_pct_at_map_finish()),
        ]);
    }
    println!("{}", t.render());
    println!("(both explicitly encode the hot-key set — the paper's requirement;\n the expiry-guarded eviction dominates the choice of counter algorithm)\n");
    t.write_csv(&cfg.outdir.join("ablation_monitor.csv"))
        .expect("write ablation csv");
}

fn snapshots(cfg: &ExpConfig) {
    println!("== Ablation: HOP snapshots vs incremental output (§3.3(4)) ==\n");
    let (input, info) = session_input(cfg, WORLDCUP_EVAL / 2);
    let cluster = stock_cluster(cfg);

    let plain = run_job(
        "ablation/pipelined-no-snapshots",
        session_job(&info, 512),
        Framework::SortMergePipelined,
        cluster,
        &input,
        1.0,
    );
    let wall = std::time::Instant::now();
    let snap = JobBuilder::new(session_job(&info, 512))
        .framework(Framework::SortMergePipelined)
        .cluster(cluster)
        .snapshot_points(&[0.25, 0.5, 0.75])
        .run(&input)
        .expect("snapshot job runs");
    eprintln!(
        "  [ablation/pipelined-snapshots] virtual {:.0}s, wall {:.1?}",
        snap.metrics.running_time.as_secs_f64(),
        wall.elapsed()
    );
    let inc = run_job(
        "ablation/INC-hash-reference",
        session_job(&info, 512),
        Framework::IncHash,
        cluster,
        &input,
        1.0,
    );

    let mut t = Table::new([
        "configuration",
        "running time s",
        "total I/O GB",
        "snapshot output GB",
        "reduce@mapfinish %",
    ]);
    for (label, o) in [
        ("pipelined SM", &plain),
        ("pipelined SM + 3 snapshots", &snap),
        ("INC-hash (continuous output)", &inc),
    ] {
        t.row([
            label.to_string(),
            secs(&o.metrics),
            gb(cfg, o.metrics.io.total_bytes()),
            gb(cfg, o.metrics.snapshot_bytes),
            format!("{:.0}", o.progress.reduce_pct_at_map_finish()),
        ]);
    }
    println!("{}", t.render());
    let overhead = 100.0
        * (snap.metrics.running_time.as_secs_f64() - plain.metrics.running_time.as_secs_f64())
        / plain.metrics.running_time.as_secs_f64();
    println!(
        "snapshot overhead: +{overhead:.0}% running time (paper: \"significantly increased running time\");\n\
         INC-hash reaches the same early visibility with no repeated merges.\n"
    );
    t.write_csv(&cfg.outdir.join("ablation_snapshots.csv"))
        .expect("write ablation csv");
}

fn reducer_waves(cfg: &ExpConfig) {
    println!("== Ablation: reducers per node, R = 4 vs R = 8 (§3.2(3)) ==\n");
    let (input, info) = session_input(cfg, WORLDCUP_EVAL / 2);
    let mut t = Table::new(["R", "waves", "running time s", "paper"]);
    let mut times = Vec::new();
    for r in [4usize, 8] {
        let mut cluster = one_pass_cluster(cfg, input.total_bytes(), 1.0);
        cluster.system.reducers_per_node = r;
        let outcome = run_job(
            &format!("ablation/R={r}"),
            session_job(&info, 512),
            Framework::SortMerge,
            cluster,
            &input,
            1.0,
        );
        times.push(outcome.metrics.running_time.as_secs_f64());
        t.row([
            r.to_string(),
            if r <= 4 { "1" } else { "2" }.to_string(),
            secs(&outcome.metrics),
            if r == 4 { "4187 s" } else { "4723 s" }.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "second-wave penalty: +{:.0}% (paper: +13%). Direction matches — two waves lose the\n\
         memory-resident shuffle; the magnitude is overstated here because the simulator's\n\
         task-granular disk queue serializes wave-2 fetches behind wave-1 final merges.\n",
        100.0 * (times[1] - times[0]) / times[0]
    );
    t.write_csv(&cfg.outdir.join("ablation_reducer_waves.csv"))
        .expect("write ablation csv");
}
