//! Fig 2 — behavior of stock Hadoop and MapReduce Online on
//! sessionization: (a) task timeline, (b) CPU utilization, (c) CPU iowait,
//! (d) intermediate data on SSD, (e,f) the pipelined (HOP) variant.
//!
//! The engine's disk-busy series stands in for the paper's CPU-iowait
//! curves: both measure the same phenomenon (the CPU blocked on the disk
//! during multi-pass merge).

use super::*;
use crate::report::Table;
use crate::ExpConfig;
use opa_core::cost::CostModel;
use opa_trace::SpanKind;
use std::fs;
use std::io::Write;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) {
    println!("== Fig 2: stock Hadoop & HOP behavior on sessionization ==\n");
    let (input, info) = session_input(cfg, WORLDCUP_TABLE1);

    // (a,b,c) stock sort-merge on a single shared disk.
    let stock = run_job_traced(
        cfg,
        "fig2/stock-SM",
        session_job(&info, 512),
        Framework::SortMerge,
        stock_cluster(cfg),
        &input,
        1.0,
    );

    // (d) intermediate data on SSD.
    let mut ssd_cluster = stock_cluster(cfg);
    ssd_cluster.cost = CostModel::paper_scaled_ssd_spill();
    let ssd = run_job_traced(
        cfg,
        "fig2/stock-SM-ssd-spill",
        session_job(&info, 512),
        Framework::SortMerge,
        ssd_cluster,
        &input,
        1.0,
    );

    // (e,f) pipelining (HOP-style).
    let hop = run_job_traced(
        cfg,
        "fig2/pipelined-SM",
        session_job(&info, 512),
        Framework::SortMergePipelined,
        stock_cluster(cfg),
        &input,
        1.0,
    );

    // --- (a) task timeline: active tasks per op class over time ---------
    let buckets = 120usize;
    let end = stock.metrics.running_time.as_secs_f64();
    let width = end / buckets as f64;
    let mut counts = vec![[0u32; 4]; buckets];
    for span in &stock.timeline {
        let (s, e) = (span.start.as_secs_f64(), span.end.as_secs_f64());
        let idx = |k: SpanKind| match k {
            SpanKind::Map => 0,
            SpanKind::Shuffle => 1,
            SpanKind::Merge => 2,
            SpanKind::Reduce => 3,
        };
        let first = (s / width) as usize;
        let last = ((e / width) as usize).min(buckets - 1);
        for bucket in counts.iter_mut().take(last + 1).skip(first) {
            bucket[idx(span.kind)] += 1;
        }
    }
    let path = cfg.outdir.join("fig2a_task_timeline.csv");
    fs::create_dir_all(&cfg.outdir).expect("mkdir results");
    let mut f = fs::File::create(&path).expect("create fig2a csv");
    writeln!(f, "t_secs,map,shuffle,merge,reduce").unwrap();
    for (b, c) in counts.iter().enumerate() {
        writeln!(
            f,
            "{:.0},{},{},{},{}",
            (b as f64 + 0.5) * width,
            c[0],
            c[1],
            c[2],
            c[3]
        )
        .unwrap();
    }
    println!("fig 2(a): task timeline → {}", path.display());

    // --- (b,c,e,f) utilization series -----------------------------------
    for (name, outcome) in [("stock", &stock), ("hop", &hop)] {
        let cpu = outcome.usage.cpu_utilization();
        let disk = outcome.usage.disk_busy();
        let path = cfg.outdir.join(format!("fig2_{name}_utilization.csv"));
        let mut f = fs::File::create(&path).expect("create util csv");
        writeln!(f, "t_secs,cpu_util_pct,disk_busy_pct").unwrap();
        for (i, (c, d)) in cpu.iter().zip(&disk).enumerate() {
            writeln!(
                f,
                "{:.0},{:.1},{:.1}",
                (i as f64 + 0.5) * outcome.usage.bucket_secs,
                c,
                d
            )
            .unwrap();
        }
        println!("fig 2(b/c for {name}): utilization → {}", path.display());
    }

    // --- summary: the claims the figure supports ------------------------
    let mid_disk = |o: &opa_core::job::JobOutcome| {
        // Mean disk-busy in the window right after map finish (the
        // multi-pass-merge region that Fig 2(c) highlights).
        let disk = o.usage.disk_busy();
        let per = o.usage.bucket_secs;
        let from = (o.metrics.map_finish.as_secs_f64() / per) as usize;
        let to = ((o.metrics.running_time.as_secs_f64() / per) as usize).min(disk.len());
        if from >= to {
            return 0.0;
        }
        disk[from..to].iter().sum::<f64>() / (to - from) as f64
    };

    let mut t = Table::new(["claim", "paper", "OPA"]);
    t.row([
        "SM running time (s)".into(),
        "4860".to_string(),
        secs(&stock.metrics),
    ]);
    t.row([
        "SSD spill shortens job but keeps merge blocking".into(),
        "yes".to_string(),
        format!(
            "{} ({}s vs {}s, post-map disk still {:.0}% busy)",
            if ssd.metrics.running_time < stock.metrics.running_time && mid_disk(&ssd) > 20.0 {
                "yes"
            } else {
                "NO"
            },
            secs(&ssd.metrics),
            secs(&stock.metrics),
            mid_disk(&ssd)
        ),
    ]);
    t.row([
        "post-map disk-busy spike (iowait proxy, %)".into(),
        "spike present".to_string(),
        format!("{:.0}% busy", mid_disk(&stock)),
    ]);
    t.row([
        "HOP pipelining leaves blocking + I/O".into(),
        "yes".to_string(),
        format!(
            "{} (HOP {}s, reduce@mapfinish {:.0}%, post-map disk {:.0}%)",
            if mid_disk(&hop) > 20.0 { "yes" } else { "NO" },
            secs(&hop.metrics),
            hop.progress.reduce_pct_at_map_finish(),
            mid_disk(&hop)
        ),
    ]);
    println!("{}", t.render());
    t.write_csv(&cfg.outdir.join("fig2_summary.csv"))
        .expect("write fig2 summary");
    println!();
}
