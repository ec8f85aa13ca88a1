//! Micro-drivers: small public functions the layer spans are too coarse
//! to see, timed in a loop over the workload's *own* data — the keys its
//! map function emits, the records it scans — so a change to one of them
//! is measured on the distribution that matters.

use opa_common::{HashFamily, Key};
use opa_core::api::Job;
use opa_core::cluster::ClusterSpec;
use opa_core::exec::{Gather, Pool, Task};
use opa_core::job::JobInput;
use opa_freq::MisraGries;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each micro-driver repeats its pass over the sample until this much
/// time has gone by, and reports the fastest pass: for a pure function on
/// fixed data the minimum is the measurement least disturbed by the host.
const BUDGET: Duration = Duration::from_millis(60);
/// Keys sampled from the head of the input.
const KEY_SAMPLE: usize = 200_000;

fn fastest_pass_ns(mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t0 = Instant::now();
        pass();
        best = best.min(t0.elapsed().as_nanos() as f64);
        if start.elapsed() >= BUDGET {
            return best;
        }
    }
}

/// The first [`KEY_SAMPLE`] keys the job's map function emits, in order.
pub fn sample_keys(job: &dyn Job, input: &JobInput) -> Vec<Vec<u8>> {
    let mut keys = Vec::with_capacity(KEY_SAMPLE);
    for rec in &input.records {
        job.map(rec, &mut |k, _| {
            if keys.len() < KEY_SAMPLE {
                keys.push(k.to_vec());
            }
        });
        if keys.len() >= KEY_SAMPLE {
            break;
        }
    }
    keys
}

/// `HashFn::hash` — the partitioning hash every emitted pair pays.
pub fn hash_ns_per_key(keys: &[Vec<u8>], spec: &ClusterSpec) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let h1 = HashFamily::new(spec.hash_seed).fn_at(0);
    let ns = fastest_pass_ns(|| {
        let mut acc = 0u64;
        for k in keys {
            acc ^= h1.hash(black_box(k));
        }
        black_box(acc);
    });
    ns / keys.len() as f64
}

/// `opa_common::tokens` — the delimiter scan under the text tokenizers —
/// over the input records themselves, in MB/s.
pub fn scan_mb_per_s(input: &JobInput) -> f64 {
    let records: Vec<&[u8]> = input.records.iter().take(4096).map(|r| &r[..]).collect();
    let bytes: usize = records.iter().map(|r| r.len()).sum();
    if bytes == 0 {
        return 0.0;
    }
    let ns = fastest_pass_ns(|| {
        let mut n = 0usize;
        for r in &records {
            n += opa_common::tokens(black_box(r), b' ').count();
        }
        black_box(n);
    });
    bytes as f64 / (ns / 1e9) / 1e6
}

/// `MisraGries::offer` — the FREQUENT monitor under DINC-hash — fed the
/// sampled key sequence through a monitor far smaller than the key space,
/// so installs, combines and decrements all occur.
pub fn freq_offer_ns_per_key(keys: &[Vec<u8>]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let keys: Vec<Key> = keys.iter().map(|k| Key::from_slice(k)).collect();
    let ns = fastest_pass_ns(|| {
        let mut mg: MisraGries<Key, u64> = MisraGries::new(512);
        for k in &keys {
            black_box(mg.offer(k.clone(), 1, |_, acc, other| *acc += other));
        }
        black_box(mg.len());
    });
    ns / keys.len() as f64
}

/// `Pool::submit_batch` + `Gather::wait` round trip per no-op task, with
/// `threads − 1` workers plus the submitting thread — the floor under
/// every parallel burst the scheduler hands out.
pub fn dispatch_ns_per_task(threads: usize) -> f64 {
    const BATCH: usize = 32;
    const ROUNDS: usize = 200;
    std::thread::scope(|scope| {
        let pool = Pool::new(scope, threads.saturating_sub(1));
        let ns = fastest_pass_ns(|| {
            for _ in 0..ROUNDS {
                let gather: Gather<usize> = Gather::new(BATCH);
                let tasks: Vec<Task<'_>> = (0..BATCH)
                    .map(|slot| {
                        let g = gather.clone();
                        Box::new(move || g.put(slot, slot)) as Task<'_>
                    })
                    .collect();
                pool.submit_batch(tasks);
                black_box(gather.wait(&pool));
            }
        });
        ns / (BATCH * ROUNDS) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{cluster, JobKind};
    use opa_workloads::clickstream::ClickStreamSpec;

    #[test]
    fn micro_drivers_return_positive_finite_numbers() {
        let input = ClickStreamSpec::small().generate(3);
        let job = JobKind::ClickCount.boxed();
        let keys = sample_keys(&*job, &input);
        assert_eq!(keys.len(), input.len(), "one key per click");
        for v in [
            hash_ns_per_key(&keys, &cluster()),
            scan_mb_per_s(&input),
            freq_offer_ns_per_key(&keys),
            dispatch_ns_per_task(2),
        ] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
        assert_eq!(hash_ns_per_key(&[], &cluster()), 0.0);
    }
}
