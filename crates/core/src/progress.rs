//! Incremental map and reduce progress (the paper's Definition 1).
//!
//! *Map progress* = fraction of map tasks completed. *Reduce progress* =
//! ⅓ · shuffle-completed + ⅓ · combine-or-reduce-function-completed +
//! ⅓ · output-produced. Multi-pass merge contributes **nothing** — it is
//! irrelevant to the user's query, which is exactly why sort-merge's reduce
//! curve flatlines at 33% until the mappers finish.
//!
//! The tracker records raw cumulative counters on every simulation event
//! and normalizes post-hoc (totals are only known when the job ends), then
//! resamples to an even grid for plotting. A run of equal tuple charges
//! ([`crate::reduce::Effect::Absorbed`]) is `n` events — one sample per
//! tuple, `step` apart — held as one entry and walked arithmetically.

use opa_common::units::{SimDuration, SimTime};

/// Number of points the engine resamples its progress curves to.
pub(crate) const PROGRESS_POINTS: usize = 400;

/// `n` consecutive samples: sample `j < n` is taken at `t + j·step` and
/// reads `work + j`; the other counters do not move within an entry. A
/// single event is the entry with `n = 1`.
#[derive(Debug, Clone, Copy)]
struct Raw {
    t: SimTime,
    step: SimDuration,
    n: u32,
    maps_done: u32,
    shuffled: u64,
    work: u64,
    output: u64,
}

impl Raw {
    /// The counters sample `j` of this entry reads.
    fn sample(&self, j: u64) -> Counters {
        Counters {
            maps_done: u64::from(self.maps_done),
            shuffled: self.shuffled,
            work: self.work + j,
            output: self.output,
        }
    }
}

/// Records progress events during a run.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub struct ProgressTracker {
    map_total: u64,
    maps_done: u32,
    shuffled: u64,
    work: u64,
    output: u64,
    raw: Vec<Raw>,
}

impl ProgressTracker {
    /// Creates a tracker for a job with `map_total` map tasks.
    pub fn new(map_total: u64) -> Self {
        let mut tr = ProgressTracker {
            map_total,
            maps_done: 0,
            shuffled: 0,
            work: 0,
            output: 0,
            raw: Vec::new(),
        };
        tr.snapshot(SimTime::ZERO);
        tr
    }

    fn counters(&self) -> Counters {
        Counters {
            maps_done: u64::from(self.maps_done),
            shuffled: self.shuffled,
            work: self.work,
            output: self.output,
        }
    }

    /// Records `n` samples from `t` on, `step` apart, the first reading
    /// the current counters.
    fn entry(&mut self, t: SimTime, step: SimDuration, n: u32) {
        self.raw.push(Raw {
            t,
            step,
            n,
            maps_done: self.maps_done,
            shuffled: self.shuffled,
            work: self.work,
            output: self.output,
        });
    }

    fn snapshot(&mut self, t: SimTime) {
        self.entry(t, SimDuration::ZERO, 1);
    }

    /// One map task finished at `t`.
    pub fn map_done(&mut self, t: SimTime) {
        self.maps_done += 1;
        self.snapshot(t);
    }

    /// `bytes` of map output arrived at a reducer at `t`.
    pub fn shuffled(&mut self, t: SimTime, bytes: u64) {
        self.shuffled += bytes;
        self.snapshot(t);
    }

    /// `units` of user reduce/combine work (tuples absorbed) happened at
    /// `t`.
    pub fn worked(&mut self, t: SimTime, units: u64) {
        if units > 0 {
            self.work += units;
            self.snapshot(t);
        }
    }

    /// `n` units of work, one every `step`, the first at `t + step` — what
    /// `n` calls `worked(t + j·step, 1)`, `j = 1..=n`, record.
    pub fn worked_run(&mut self, t: SimTime, step: SimDuration, n: u32) {
        if n > 0 {
            self.work += 1;
            self.entry(t + step, step, n);
            self.work += u64::from(n - 1);
        }
    }

    /// `bytes` of job output were produced at `t`.
    pub fn emitted(&mut self, t: SimTime, bytes: u64) {
        if bytes > 0 {
            self.output += bytes;
            self.snapshot(t);
        }
    }

    /// Normalizes against the final totals and resamples to `points`
    /// evenly spaced instants over `[0, end]`. Each grid instant reads the
    /// last sample of the longest prefix of the recorded sequence whose
    /// samples are all at or before it (reducer clocks interleave, so the
    /// sequence is not sorted: a sample that is too late holds back
    /// everything recorded after it).
    pub fn finish(mut self, end: SimTime, points: usize) -> ProgressCurve {
        self.snapshot(end);
        let totals = self.counters();
        let grid = points.max(2);
        let mut out = Vec::with_capacity(grid);
        let end_s = end.as_secs_f64();
        // `raw[..idx]` is wholly behind the cursor; `raw[idx]` may be a
        // run read part-way, re-read from its start at each instant.
        let mut idx = 0usize;
        let mut cur = Counters::default();
        for g in 0..grid {
            let t = SimTime::from_secs_f64(end_s * g as f64 / (grid - 1) as f64);
            while let Some(r) = self.raw.get(idx).filter(|r| r.t <= t) {
                // The entry's samples at or before `t`: all of them when
                // they share an instant, else one per whole step.
                let n = u64::from(r.n);
                let reached = match r.step.0 {
                    0 => n,
                    step => n.min((t.0 - r.t.0) / step + 1),
                };
                cur = r.sample(reached - 1);
                if reached < n {
                    break;
                }
                idx += 1;
            }
            out.push(cur.point(t, self.map_total, totals));
        }
        ProgressCurve { points: out }
    }
}

/// The cumulative counters one sample reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    maps_done: u64,
    shuffled: u64,
    work: u64,
    output: u64,
}

impl Counters {
    /// This sample at grid instant `t`, normalized against the job totals.
    fn point(self, t: SimTime, map_total: u64, totals: Counters) -> ProgressPoint {
        let pct = |v: u64, total: u64| -> f64 {
            if total == 0 {
                100.0
            } else {
                100.0 * v as f64 / total as f64
            }
        };
        let shuffle_pct = pct(self.shuffled, totals.shuffled);
        let work_pct = pct(self.work, totals.work);
        let output_pct = pct(self.output, totals.output);
        ProgressPoint {
            t,
            map_pct: pct(self.maps_done, map_total),
            reduce_pct: (shuffle_pct + work_pct + output_pct) / 3.0,
            shuffle_pct,
            work_pct,
            output_pct,
        }
    }
}

/// One point of a progress curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressPoint {
    /// Instant.
    pub t: SimTime,
    /// Map progress (Definition 1), in percent.
    pub map_pct: f64,
    /// Reduce progress (Definition 1), in percent.
    pub reduce_pct: f64,
    /// Shuffle component (before the ⅓ weighting).
    pub shuffle_pct: f64,
    /// Reduce/combine-function component.
    pub work_pct: f64,
    /// Output component.
    pub output_pct: f64,
}

/// A normalized, evenly resampled pair of map/reduce progress curves.
#[derive(Debug, Clone)]
pub struct ProgressCurve {
    /// Evenly spaced samples from job start to job end.
    pub points: Vec<ProgressPoint>,
}

impl ProgressCurve {
    /// Reduce progress at the moment map progress first reaches 100%
    /// — the paper's headline "does reduce keep up with map?" number.
    pub fn reduce_pct_at_map_finish(&self) -> f64 {
        self.points
            .iter()
            .find(|p| p.map_pct >= 100.0)
            .map(|p| p.reduce_pct)
            .unwrap_or(0.0)
    }

    /// Reduce progress at the last sample *before* map progress reaches
    /// 100% — exposes the ceiling a framework hits while mappers still run
    /// (⅓ for blocking frameworks, ⅔ for incremental frameworks without
    /// early output, ~1 with early output).
    pub fn reduce_pct_before_map_finish(&self) -> f64 {
        self.points
            .iter()
            .take_while(|p| p.map_pct < 100.0)
            .last()
            .map(|p| p.reduce_pct)
            .unwrap_or(0.0)
    }

    /// Job end (last sample instant).
    pub fn end_time(&self) -> SimTime {
        self.points.last().map(|p| p.t).unwrap_or(SimTime::ZERO)
    }

    /// Mean absolute gap between map and reduce progress over the map
    /// phase — small means "reduce keeps up with map".
    pub fn mean_map_reduce_gap(&self) -> f64 {
        let during_map: Vec<&ProgressPoint> =
            self.points.iter().filter(|p| p.map_pct < 100.0).collect();
        if during_map.is_empty() {
            return 0.0;
        }
        during_map
            .iter()
            .map(|p| (p.map_pct - p.reduce_pct).max(0.0))
            .sum::<f64>()
            / during_map.len() as f64
    }
}

/// The one-entry-per-sample tracker the run entries replaced, kept as the
/// test oracle: a tracker's entries expanded to their samples, and the flat
/// resampling scan over them.
#[cfg(test)]
pub(crate) mod flat {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct FlatTracker {
        map_total: u64,
        raw: Vec<(SimTime, Counters)>,
    }

    impl ProgressTracker {
        /// Every sample this tracker stands for, in recording order.
        pub(crate) fn flat(&self) -> FlatTracker {
            let mut raw = Vec::new();
            for r in &self.raw {
                for j in 0..u64::from(r.n) {
                    raw.push((SimTime(r.t.0 + j * r.step.0), r.sample(j)));
                }
            }
            FlatTracker {
                map_total: self.map_total,
                raw,
            }
        }

        /// Entries held (a run is one).
        pub(crate) fn entries(&self) -> usize {
            self.raw.len()
        }
    }

    impl FlatTracker {
        pub(crate) fn samples(&self) -> usize {
            self.raw.len()
        }

        pub(crate) fn finish(mut self, end: SimTime, points: usize) -> ProgressCurve {
            let totals = self.raw.last().expect("at least one sample").1;
            self.raw.push((end, totals));
            let grid = points.max(2);
            let mut out = Vec::with_capacity(grid);
            let end_s = end.as_secs_f64();
            let mut idx = 0usize;
            let mut cur = Counters::default();
            for g in 0..grid {
                let t = SimTime::from_secs_f64(end_s * g as f64 / (grid - 1) as f64);
                while idx < self.raw.len() && self.raw[idx].0 <= t {
                    cur = self.raw[idx].1;
                    idx += 1;
                }
                out.push(cur.point(t, self.map_total, totals));
            }
            ProgressCurve { points: out }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn curves_are_monotone_and_end_at_100() {
        let mut tr = ProgressTracker::new(4);
        for i in 0..4 {
            tr.map_done(t(10.0 * (i + 1) as f64));
            tr.shuffled(t(10.0 * (i + 1) as f64 + 1.0), 100);
        }
        tr.worked(t(50.0), 42);
        tr.emitted(t(60.0), 1000);
        let curve = tr.finish(t(60.0), 61);
        let mut prev_map = -1.0;
        let mut prev_red = -1.0;
        for p in &curve.points {
            assert!(p.map_pct >= prev_map && p.reduce_pct >= prev_red);
            prev_map = p.map_pct;
            prev_red = p.reduce_pct;
        }
        let last = curve.points.last().unwrap();
        assert_eq!(last.map_pct, 100.0);
        assert!((last.reduce_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn blocking_reduce_stalls_at_33_percent() {
        // Sort-merge shape: shuffle tracks map, but work and output happen
        // only after the maps finish.
        let mut tr = ProgressTracker::new(10);
        for i in 0..10 {
            let now = t(10.0 * (i + 1) as f64);
            tr.map_done(now);
            tr.shuffled(now, 50);
        }
        // All reduce work crammed at the end.
        tr.worked(t(190.0), 100);
        tr.emitted(t(200.0), 500);
        let curve = tr.finish(t(200.0), 201);
        // At map finish (t=100) reduce should sit at ~33%.
        let p = curve.points.iter().find(|p| p.t >= t(100.0)).unwrap();
        assert!(
            (p.reduce_pct - 100.0 / 3.0).abs() < 2.0,
            "expected ~33%, got {}",
            p.reduce_pct
        );
        assert!((curve.reduce_pct_at_map_finish() - 100.0 / 3.0).abs() < 2.0);
    }

    #[test]
    fn incremental_reduce_tracks_map() {
        // INC-hash shape: work and output flow during the map phase.
        let mut tr = ProgressTracker::new(10);
        for i in 0..10 {
            let now = t(10.0 * (i + 1) as f64);
            tr.map_done(now);
            tr.shuffled(now, 50);
            tr.worked(now, 10);
            tr.emitted(now, 50);
        }
        let curve = tr.finish(t(100.0), 101);
        assert!(curve.reduce_pct_at_map_finish() > 95.0);
        assert!(curve.mean_map_reduce_gap() < 10.0);
    }

    #[test]
    fn zero_total_components_count_complete() {
        // A job with no output at all (everything filtered) still reaches
        // 100% reduce progress.
        let mut tr = ProgressTracker::new(1);
        tr.map_done(t(1.0));
        tr.shuffled(t(1.0), 10);
        tr.worked(t(2.0), 1);
        let curve = tr.finish(t(2.0), 3);
        assert_eq!(curve.points.last().unwrap().reduce_pct, 100.0);
    }

    #[test]
    fn an_entry_is_six_words() {
        // Entries that are not runs pay for `step` and `n` too: 40 → 48
        // bytes (`maps_done` and `n` share a word).
        assert_eq!(std::mem::size_of::<Raw>(), 48);
    }

    #[test]
    fn a_run_is_its_samples() {
        // Runs against the same work fed one unit at a time, with a run
        // that outlasts several grid instants, one under a free cost model
        // (step 0) and a late run that holds back an earlier-clocked one.
        let runs: [(u64, u64, u32); 4] = [
            (1_000_000, 70_000, 100),
            (2_000_000, 0, 50),
            (9_500_000, 13, 3),
            (3_000_000, 1, 1),
        ];
        let mut by_run = ProgressTracker::new(2);
        let mut by_unit = ProgressTracker::new(2);
        for tr in [&mut by_run, &mut by_unit] {
            tr.map_done(t(0.5));
            tr.shuffled(t(0.9), 64);
        }
        for (start, step, n) in runs {
            by_run.worked_run(SimTime(start), SimDuration(step), n);
            for j in 1..=u64::from(n) {
                by_unit.worked(SimTime(start + j * step), 1);
            }
        }
        assert_eq!(by_run.entries(), 3 + runs.len());
        assert_eq!(by_unit.entries(), 3 + 154);
        assert_eq!(by_run.flat(), by_unit.flat());
        let end = t(10.0);
        for points in [2, 7, 400, 4_001] {
            let flat = by_unit.flat().finish(end, points);
            assert_eq!(by_run.clone().finish(end, points).points, flat.points);
            assert_eq!(by_unit.clone().finish(end, points).points, flat.points);
        }
        // Non-vacuity: the long run is read part-way through.
        let curve = by_run.finish(end, 11);
        assert!((curve.points[4].work_pct - 100.0 * 42.0 / 154.0).abs() < 1e-9);
    }
}
