//! Fig 4 — optimizing Hadoop with the analytical model:
//!
//! - (a) model-vs-actual time over a `(C, F)` grid;
//! - (b) time vs chunk size for three merge factors, actual and predicted;
//! - (c) progress of stock vs model-optimized Hadoop vs the optimal line;
//! - (d,e) CPU utilization / iowait of optimized Hadoop;
//! - (f) pipelining (HOP) vs stock progress.

use super::*;
use crate::report::{ascii_progress, write_progress_csv, Table};
use crate::ExpConfig;
use opa_common::WorkloadSpec;
use opa_model::io_model::ModelInput;
use opa_model::time_model::CostConstants;
use std::fs;
use std::io::Write;

/// Pearson correlation between two equal-length series.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let (va, vb): (f64, f64) = (
        a.iter().map(|x| (x - ma).powi(2)).sum(),
        b.iter().map(|y| (y - mb).powi(2)).sum(),
    );
    cov / (va.sqrt() * vb.sqrt()).max(f64::MIN_POSITIVE)
}

/// Fig 4(a,b): the (C, F) grid.
pub fn run_grid(cfg: &ExpConfig) {
    println!("== Fig 4(a,b): model vs actual over the (C, F) grid ==\n");
    let (input, info) = session_input(cfg, FIG4_INPUT);
    let d = input.total_bytes();

    let chunks_kb: Vec<u64> = if cfg.quick {
        vec![16, 64, 192]
    } else {
        vec![8, 16, 32, 64, 96, 128, 140, 192, 256]
    };
    let factors: Vec<usize> = vec![4, 16, 64];

    let constants = CostConstants::scaled(cfg.scale as f64);
    let mut rows = Vec::new();
    let (mut actuals, mut modeled) = (Vec::new(), Vec::new());
    for &ckb in &chunks_kb {
        for &f in &factors {
            let cluster = fig4_cluster(cfg, ckb, f);
            let outcome = run_job(
                &format!("fig4/C={ckb}KB,F={f}"),
                session_job(&info, 512),
                Framework::SortMerge,
                cluster,
                &input,
                1.0,
            );
            let model = ModelInput::new(
                cluster.system,
                WorkloadSpec::new(d, 1.0, 1.0),
                cluster.hardware,
            )
            .expect("valid model input")
            .time_measurement(&constants)
            .total();
            // The model predicts a per-node I/O+startup measurement; the
            // simulator reports end-to-end time. Only trends are compared.
            let actual = outcome.metrics.running_time.as_secs_f64();
            actuals.push(actual);
            modeled.push(model);
            rows.push((ckb, f, actual, model));
        }
    }

    fs::create_dir_all(&cfg.outdir).expect("mkdir results");
    let path = cfg.outdir.join("fig4ab_grid.csv");
    let mut fcsv = fs::File::create(&path).expect("create fig4 grid csv");
    writeln!(fcsv, "chunk_kb,merge_factor,actual_secs,model_secs").unwrap();
    for (c, f, a, m) in &rows {
        writeln!(fcsv, "{c},{f},{a:.0},{m:.0}").unwrap();
    }
    println!("wrote {}", path.display());

    let corr = correlation(&actuals, &modeled);
    println!("model/actual trend correlation over the grid: r = {corr:.3} (paper: \"very similar trends\")\n");

    // Fig 4(b) view: per-F best chunk and the F ordering at C = 64 KB.
    let mut t = Table::new([
        "F",
        "best C (KB)",
        "time at best C (s)",
        "time at C=64KB (s)",
    ]);
    for &f in &factors {
        let best = rows
            .iter()
            .filter(|r| r.1 == f)
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        let at64 = rows
            .iter()
            .find(|r| r.1 == f && r.0 == 64)
            .map(|r| r.2)
            .unwrap_or(f64::NAN);
        t.row([
            f.to_string(),
            best.0.to_string(),
            format!("{:.0}", best.2),
            format!("{:.0}", at64),
        ]);
    }
    println!("{}", t.render());
    t.write_csv(&cfg.outdir.join("fig4b_summary.csv"))
        .expect("write fig4b csv");
    println!();
}

/// Fig 4(c,d,e): stock vs optimized progress and optimized utilization.
pub fn run_progress(cfg: &ExpConfig) {
    println!("== Fig 4(c,d,e): stock vs model-optimized Hadoop ==\n");
    let (input, info) = session_input(cfg, FIG4C_INPUT);

    let stock = run_job(
        "fig4c/stock",
        session_job(&info, 512),
        Framework::SortMerge,
        stock_cluster(cfg),
        &input,
        1.0,
    );
    let optimized = run_job(
        "fig4c/optimized",
        session_job(&info, 512),
        Framework::SortMerge,
        one_pass_cluster(cfg, input.total_bytes(), 1.0),
        &input,
        1.0,
    );

    let gain = 100.0
        * (stock.metrics.running_time.as_secs_f64() - optimized.metrics.running_time.as_secs_f64())
        / stock.metrics.running_time.as_secs_f64();
    println!(
        "running time: stock {}s → optimized {}s ({gain:.0}% reduction; paper: 4860 → 4187, 14%)",
        secs(&stock.metrics),
        secs(&optimized.metrics)
    );
    println!(
        "optimized reduce progress at map finish: {:.0}% (paper: ~33%, far from the optimal line)\n",
        optimized.progress.reduce_pct_at_map_finish()
    );

    println!(
        "{}",
        ascii_progress(
            &[
                ("stock", &stock.progress),
                ("optimized", &optimized.progress),
            ],
            72
        )
    );

    write_progress_csv(
        &cfg.outdir.join("fig4c_progress.csv"),
        &[
            ("stock", &stock.progress),
            ("optimized", &optimized.progress),
        ],
    )
    .expect("write fig4c csv");

    // (d,e): optimized utilization series.
    let path = cfg.outdir.join("fig4de_optimized_utilization.csv");
    let mut f = fs::File::create(&path).expect("create fig4de csv");
    writeln!(f, "t_secs,cpu_util_pct,disk_busy_pct").unwrap();
    let cpu = optimized.usage.cpu_utilization();
    let disk = optimized.usage.disk_busy();
    for (i, (c, d)) in cpu.iter().zip(&disk).enumerate() {
        writeln!(
            f,
            "{:.0},{:.1},{:.1}",
            (i as f64 + 0.5) * optimized.usage.bucket_secs,
            c,
            d
        )
        .unwrap();
    }
    println!("wrote {} and fig4de CSV\n", path.display());
}

/// Fig 4(f): pipelining vs stock.
pub fn run_pipelining(cfg: &ExpConfig) {
    println!("== Fig 4(f): MapReduce-Online-style pipelining vs stock ==\n");
    let (input, info) = session_input(cfg, WORLDCUP_EVAL);

    let stock = run_job(
        "fig4f/stock",
        session_job(&info, 512),
        Framework::SortMerge,
        stock_cluster(cfg),
        &input,
        1.0,
    );
    let hop = run_job(
        "fig4f/pipelined",
        session_job(&info, 512),
        Framework::SortMergePipelined,
        stock_cluster(cfg),
        &input,
        1.0,
    );

    let gain = 100.0
        * (stock.metrics.running_time.as_secs_f64() - hop.metrics.running_time.as_secs_f64())
        / stock.metrics.running_time.as_secs_f64();
    println!(
        "pipelining gain: {gain:.1}% (paper: ~5%); reduce@mapfinish: stock {:.0}%, pipelined {:.0}% (paper: both lag far behind map)\n",
        stock.progress.reduce_pct_at_map_finish(),
        hop.progress.reduce_pct_at_map_finish()
    );
    write_progress_csv(
        &cfg.outdir.join("fig4f_progress.csv"),
        &[("stock", &stock.progress), ("pipelined", &hop.progress)],
    )
    .expect("write fig4f csv");
    println!(
        "{}",
        ascii_progress(
            &[("stock", &stock.progress), ("pipelined", &hop.progress)],
            72
        )
    );
}
