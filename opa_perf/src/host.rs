//! Facts about the host and this process that every result carries:
//! a throughput means nothing without the CPU count it was measured on.

use crate::json::{Json, JsonExt};
use std::path::PathBuf;

/// Linux reports process CPU time in clock ticks of 1/100 s on every
/// architecture the benchmark runs on (`sysconf(_SC_CLK_TCK)`).
const CLK_TCK: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Engine threads of the parallel pass: every CPU up to four, and never
/// fewer than two so the parallel machinery runs even on a one-CPU host
/// (where the result is flagged `oversubscribed`).
pub fn par_threads() -> usize {
    nproc().clamp(2, 4)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Resets `VmHWM` to the current resident set, so that set-up (which runs
/// the reference job under another framework) does not hide the measured
/// workload's own peak. Best effort: where the kernel or a sandbox refuses
/// the write, the peak simply keeps covering set-up too.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User + system CPU seconds this process (all threads, including ones
/// that already exited) has consumed. 10 ms resolution.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: utime and stime are the 12th and 13th there.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLK_TCK
}

/// The checked-out commit, read from `.git` without running git. A
/// checkout that is not a git repository (the acceptance driver's) reads
/// as "unknown".
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Directory for everything a run leaves behind (span files) or needs
/// briefly (stream checkpoints): `<target dir>/opa_perf`, found from the
/// executable's own location so nothing is ever written outside the
/// checkout's build directory.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("opa_perf")))
        .unwrap_or_else(|| PathBuf::from("target/opa_perf"))
}

/// A fresh private directory under [`out_dir`], removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let dir = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The host block of a report.
pub fn facts(seed: u64) -> Json {
    let (nproc, par) = (nproc(), par_threads());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("par_threads", Json::Num(par as f64)),
        ("oversubscribed", Json::Bool(par > nproc)),
        ("features", Json::str("default")),
        ("git_rev", Json::str(git_rev())),
        ("seed", Json::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_is_between_two_and_four() {
        assert!((2..=4).contains(&par_threads()));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() >= before);
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let path = {
            let t = TempDir::new("unit").unwrap();
            assert!(t.0.is_dir());
            t.0.clone()
        };
        assert!(!path.exists());
    }
}
