//! Runs against the per-tuple oracle, exactly.
//!
//! An [`Effect::Absorbed`] run stands for `n` × ([`Effect::Cpu`],
//! [`Effect::Worked`]`(1)`). These tests keep that flat form as the oracle:
//! seeded random logs are replayed twice — as recorded, and with every run
//! expanded to its tuples — into two copies of the shared state, which must
//! come out equal in every observable, bit for bit.

use super::tests_frameworks::Harness;
use super::*;
use crate::progress::ProgressCurve;
use opa_common::rng::SplitMix64;
use opa_trace::SpanKind;

/// The flat form of `log`: every run as its per-tuple effects.
fn expand(log: &[Effect]) -> Vec<Effect> {
    let mut flat = Vec::new();
    for effect in log {
        match effect {
            Effect::Absorbed { dur, n } => {
                for _ in 0..*n {
                    flat.push(Effect::Cpu(*dur));
                    flat.push(Effect::Worked(1));
                }
            }
            other => flat.push(other.clone()),
        }
    }
    flat
}

/// Records one random log through a real [`ReduceEnv`]: runs of 1 to 5 000
/// tuples at charges of 0, 1, 7 or 13 µs, separated (or not — two runs of
/// different charges may touch) by every other kind of effect.
fn random_log(rng: &mut SplitMix64, spec: &ClusterSpec) -> Vec<Effect> {
    const CHARGES: [u64; 4] = [0, 1, 7, 13];
    let mut env = ReduceEnv::new(spec);
    let mut open_spans = 0;
    env.shuffled(1 + rng.next_below(4096));
    for step in 0..1 + rng.next_below(12) {
        // Every other log leads with a run.
        let lead = if step == 0 { rng.next_below(2) * 9 } else { 0 };
        match rng.next_below(10).max(lead) {
            0 => env.spill(IoOp::write(1 + rng.next_below(8192))),
            1 => {
                let pairs = (0..1 + rng.next_below(3))
                    .map(|_| Pair::new(Key::from_u64(rng.next()), Value::from_u64(1)))
                    .collect();
                env.emit(pairs);
            }
            2 => env.snapshot_write(1 + rng.next_below(2048)),
            3 => {
                env.span_open();
                open_spans += 1;
            }
            4 if open_spans > 0 => {
                env.span_close(SpanKind::Reduce);
                open_spans -= 1;
            }
            5 => {
                // A batched charge, as sort-merge and the bucket pass log it.
                let batch = 1 + rng.next_below(512);
                env.cpu(SimDuration(batch * 3));
                env.worked(batch);
            }
            _ => {
                let dur = SimDuration(CHARGES[rng.next_below(4) as usize]);
                let n = match rng.next_below(4) {
                    0 => 1,
                    1 => 1 + rng.next_below(40),
                    _ => 1 + rng.next_below(5_000),
                };
                for _ in 0..n {
                    env.absorbed(dur);
                }
            }
        }
    }
    for _ in 0..open_spans {
        env.span_close(SpanKind::Reduce);
    }
    env.into_log()
}

fn curve_eq(a: &ProgressCurve, b: &ProgressCurve) {
    assert_eq!(a.points.len(), b.points.len());
    for (i, (x, y)) in a.points.iter().zip(&b.points).enumerate() {
        assert_eq!(x, y, "progress point {i}");
    }
}

#[test]
fn replaying_runs_equals_replaying_their_tuples() {
    const EDGE: u64 = 10_000_000;
    let spec = ClusterSpec::paper_scaled();
    let nodes = spec.hardware.nodes as u64;
    let (mut runs_seen, mut edge_crossings, mut multi_instant_runs) = (0u64, 0u64, 0u64);
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0x0a70_0000 + seed);
        let (mut by_run, mut by_tuple) = (Harness::new(spec), Harness::new(spec));
        let (mut ends_by_run, mut ends_by_tuple) = (Vec::new(), Vec::new());
        for w in [&mut by_run, &mut by_tuple] {
            w.progress.map_done(SimTime(5_000_000));
        }
        // Reducer clocks interleave: start times wander around the 10 s
        // usage-bucket edge, backwards as often as forwards, so runs cross
        // it and later logs carry earlier instants than the ones before.
        let mut run_lens: Vec<u64> = Vec::new();
        for _ in 0..6 + rng.next_below(10) {
            let log = random_log(&mut rng, &spec);
            let t0 = SimTime(EDGE - 100_000 + rng.next_below(140_000));
            let node = rng.next_below(nodes) as usize;
            let lens = log.iter().filter_map(|e| match e {
                Effect::Absorbed { dur, n } => Some(dur.0 * u64::from(*n)),
                _ => None,
            });
            run_lens.extend(lens);
            // A log's leading run starts at `t0` exactly (CPU is never
            // queued), so whether it straddles the edge is known here.
            if let [Effect::Shuffled(_), Effect::Absorbed { dur, n }, ..] = log[..] {
                edge_crossings += u64::from(t0.0 < EDGE && t0.0 + dur.0 * u64::from(n) > EDGE);
            }
            ends_by_tuple.push(by_tuple.apply_on(node, expand(&log), t0));
            ends_by_run.push(by_run.apply_on(node, log, t0));
        }

        assert_eq!(ends_by_run, ends_by_tuple, "seed {seed}: end times");
        assert_eq!(by_run.reduce_cpu, by_tuple.reduce_cpu);
        assert_eq!(by_run.spill_written, by_tuple.spill_written);
        assert_eq!(by_run.snapshot_bytes, by_tuple.snapshot_bytes);
        assert_eq!(by_run.output, by_tuple.output);
        assert_eq!(by_run.res.usage, by_tuple.res.usage, "seed {seed}: usage");
        assert_eq!(by_run.res.timeline, by_tuple.res.timeline);
        assert_eq!(by_run.res.io, by_tuple.res.io);

        // Same samples, far fewer entries; and the arithmetic walk over the
        // runs reads what the flat scan reads over the samples.
        let flat = by_tuple.progress.flat();
        assert_eq!(by_run.progress.flat(), flat, "seed {seed}: samples");
        assert_eq!(by_tuple.progress.entries(), flat.samples());
        assert!(by_run.progress.entries() * 20 < flat.samples());
        let end = ends_by_run
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        for points in [2, 400, 4_001] {
            let oracle = flat.clone().finish(end, points);
            curve_eq(&by_run.progress.clone().finish(end, points), &oracle);
            curve_eq(&by_tuple.progress.clone().finish(end, points), &oracle);
        }
        runs_seen += run_lens.len() as u64;
        let spacing = end.0 / 4_000;
        multi_instant_runs += run_lens.iter().filter(|&&len| len > 3 * spacing).count() as u64;
    }
    // Non-vacuity: the cases the walk and the buckets can get wrong occur.
    assert!(runs_seen > 500, "{runs_seen} runs");
    assert!(
        edge_crossings >= 5,
        "{edge_crossings} runs cross a bucket edge"
    );
    assert!(
        multi_instant_runs > 100,
        "{multi_instant_runs} runs outlast several grid instants"
    );
}

#[test]
fn recovery_replay_of_runs_equals_recovery_replay_of_their_tuples() {
    let spec = ClusterSpec::paper_scaled();
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(0x0ec0_0000 + seed);
        // A crash history is the concatenation of delivery logs.
        let history: Vec<Effect> = (0..1 + rng.next_below(6))
            .flat_map(|_| random_log(&mut rng, &spec))
            .collect();
        let t0 = SimTime(9_950_000 + rng.next_below(40_000));
        let (mut by_run, mut by_tuple) = (Harness::new(spec), Harness::new(spec));
        let a = replay_recovery(&history, t0, &spec, 1, &mut by_run.res);
        let b = replay_recovery(&expand(&history), t0, &spec, 1, &mut by_tuple.res);
        assert_eq!(a.ready_at, b.ready_at, "seed {seed}");
        assert_eq!(a.wasted_cpu, b.wasted_cpu);
        assert_eq!(a.wasted_bytes, b.wasted_bytes);
        assert!(a.wasted_cpu > SimDuration::ZERO);
        assert_eq!(by_run.res.usage, by_tuple.res.usage);
        assert_eq!(by_run.res.io_recovery, by_tuple.res.io_recovery);
    }
}

#[test]
fn recorder_merges_only_equal_consecutive_charges() {
    let spec = ClusterSpec::paper_scaled();
    let (a, b) = (SimDuration(7), SimDuration(13));
    let mut env = ReduceEnv::new(&spec);
    for _ in 0..3 {
        env.absorbed(a);
    }
    env.absorbed(b); // another charge: a run of its own
    env.absorbed(a); // the first charge again: not merged backwards
    env.shuffled(10);
    env.absorbed(a); // same charge, but an effect lies between
    env.cpu(a);
    env.worked(1);
    env.absorbed(a); // never merged into a Cpu + Worked pair
    env.absorbed(SimDuration::ZERO);
    env.absorbed(SimDuration::ZERO); // free tuples still count
    let shape: Vec<(u64, u32)> = env
        .into_log()
        .iter()
        .map(|e| match e {
            Effect::Absorbed { dur, n } => (dur.0, *n),
            Effect::Shuffled(_) => (u64::MAX, 0),
            Effect::Cpu(d) => (d.0, 0),
            Effect::Worked(u) => (*u, 0),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(
        shape,
        [
            (7, 3),
            (13, 1),
            (7, 1),
            (u64::MAX, 0),
            (7, 1),
            (7, 0),
            (1, 0),
            (7, 1),
            (0, 2)
        ]
    );
}

#[test]
fn effect_stays_four_words() {
    assert_eq!(std::mem::size_of::<Effect>(), 32);
}
