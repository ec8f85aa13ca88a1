//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--scale N] [--outdir DIR] [--seed S] <experiment>…
//!
//! experiments:
//!   table1 table3 table4
//!   fig2 fig4ab fig4c fig4f fig7a fig7b fig7c fig7d fig7e fig7f
//!   modelcheck
//!   all          (everything above)
//! ```

use opa_bench::experiments;
use opa_bench::ExpConfig;
use std::process::ExitCode;

const ALL: [&str; 14] = [
    "table1", "fig2", "fig4ab", "fig4c", "fig4f", "table3", "fig7a", "fig7b", "fig7c", "fig7d",
    "fig7e", "table4", "fig7f", "ablation",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro [--quick] [--scale N] [--outdir DIR] [--seed S] <experiment>…\n\
         experiments: {} modelcheck all",
        ALL.join(" ")
    );
    ExitCode::FAILURE
}

/// This process's peak resident set (`VmHWM`) in MB; `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Minor page faults of this process so far; `None` off Linux.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; what follows its closing
    // parenthesis starts at field 3, and `minflt` is field 10.
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// What one experiment cost the host, for stderr: wall time, peak RSS and
/// minor page faults (ROADMAP item 3c). Best effort: where the kernel
/// refuses the reset, the peak covers the experiments before it too.
struct HostCost {
    started: std::time::Instant,
    faults: Option<u64>,
}

impl HostCost {
    fn start() -> Self {
        // Writing 5 resets the process's peak-RSS mark to its current RSS.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        HostCost {
            started: std::time::Instant::now(),
            faults: minor_faults(),
        }
    }

    fn report(&self, experiment: &str) {
        let or_na = |v: Option<String>| v.unwrap_or_else(|| "n/a".into());
        let faults = minor_faults()
            .zip(self.faults)
            .map(|(now, then)| now - then);
        eprintln!(
            "  [{experiment}] host: wall {:.1?}, peak_rss_mb {}, minor faults {}",
            self.started.elapsed(),
            or_na(peak_rss_mb().map(|mb| format!("{mb:.1}"))),
            or_na(faults.map(|n| n.to_string())),
        );
    }
}

fn main() -> ExitCode {
    let mut cfg = ExpConfig::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--scale" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => cfg.scale = v,
                _ => return usage(),
            },
            "--outdir" => match args.next() {
                Some(v) => cfg.outdir = v.into(),
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage(),
            },
            "-h" | "--help" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return usage(),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        return usage();
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = ALL.iter().map(|s| s.to_string()).collect();
        wanted.push("modelcheck".into());
    }

    let started = std::time::Instant::now();
    for w in &wanted {
        let host = HostCost::start();
        match w.as_str() {
            "table1" => experiments::table1::run(&cfg),
            "table3" => experiments::table3::run(&cfg),
            "table4" => experiments::table4::run(&cfg),
            "fig2" => experiments::fig2::run(&cfg),
            "fig4ab" | "fig4a" | "fig4b" => experiments::fig4::run_grid(&cfg),
            "fig4c" | "fig4de" => experiments::fig4::run_progress(&cfg),
            "fig4f" => experiments::fig4::run_pipelining(&cfg),
            "fig7a" => experiments::fig7::run_a(&cfg),
            "fig7b" => experiments::fig7::run_b(&cfg),
            "fig7c" => experiments::fig7::run_c(&cfg),
            "fig7d" => experiments::fig7::run_d(&cfg),
            "fig7e" => experiments::fig7::run_e(&cfg),
            "fig7f" => experiments::fig7::run_f(&cfg),
            "ablation" => experiments::ablation::run(&cfg),
            "modelcheck" => experiments::modelcheck::run(&cfg),
            other => {
                eprintln!("unknown experiment: {other}");
                return usage();
            }
        }
        host.report(w);
    }
    eprintln!("repro finished in {:.1?}", started.elapsed());
    ExitCode::SUCCESS
}
