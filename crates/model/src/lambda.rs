//! The multi-pass-merge cost function `λ_F` and its exact validation.
//!
//! Hadoop's reducer (and a map task doing external sort) spills sorted runs
//! of size `b` to disk; whenever the number of on-disk files reaches
//! `2F − 1`, a background thread merges the **smallest** `F` of them into
//! one. The paper analyzes the resulting tree of files (Fig. 3) and derives
//! the closed form (Eq. 2):
//!
//! ```text
//! λ_F(n, b) = ( n² / (2F(F−1)) + 3n/2 − F² / (2(F−1)) ) · b
//! ```
//!
//! which is the total size of all files ever resident on disk; every file is
//! written once and read once, so multi-pass merge moves `2·λ_F(n, b)`
//! bytes. [`MergeTreeSim`] replays the policy exactly (sizes only) so tests
//! can check the closed form where the tree is complete and bound the error
//! elsewhere.

/// The closed-form `λ_F(n, b)` of Eq. 2.
///
/// `n` is the number of initial sorted runs, `b` their size in bytes, `f`
/// the merge factor. For `n ≤ 0` the cost is zero; the formula itself
/// evaluates to `n·b` whenever no background merge fires (e.g. `n = F`),
/// matching the write-once/read-once cost of the runs alone.
///
/// # Panics
/// Panics if `f < 2`.
pub fn lambda_f(n: f64, b: f64, f: usize) -> f64 {
    assert!(f >= 2, "merge factor must be >= 2, got {f}");
    if n <= 0.0 {
        return 0.0;
    }
    let ff = f as f64;
    let quad = n * n / (2.0 * ff * (ff - 1.0));
    let lin = 1.5 * n;
    let konst = ff * ff / (2.0 * (ff - 1.0));
    // The closed form can dip below the trivial n·b floor for small n
    // (between tree-complete points); never report less than the
    // write+read-once cost of the initial runs.
    ((quad + lin - konst) * b).max(n * b)
}

/// Hadoop's background-merge policy, implemented once for the engine and
/// for [`MergeTreeSim`]: with `sizes` the live files in creation order,
/// `None` while fewer than `2F − 1` are live, else the positions of the
/// `F` smallest, smallest first, ties going to the older file.
///
/// # Panics
/// Panics if `f < 2`.
pub fn merge_schedule(sizes: &[u64], f: usize) -> Option<Vec<usize>> {
    assert!(f >= 2, "merge factor must be >= 2, got {f}");
    if sizes.len() < 2 * f - 1 {
        return None;
    }
    let mut picks: Vec<usize> = (0..sizes.len()).collect();
    picks.sort_unstable_by_key(|&i| (sizes[i], i));
    picks.truncate(f);
    Some(picks)
}

/// Exact size-only replay of Hadoop's background-merge policy.
///
/// Files are modelled by their sizes, in creation order. Runs arrive one
/// at a time; [`merge_schedule`] decides when files merge and which
/// (reading and re-writing their bytes; the merged file is the newest).
/// [`MergeTreeSim::finish`] reads everything left once, for the final
/// merge that feeds the reduce function.
#[derive(Debug)]
pub struct MergeTreeSim {
    f: usize,
    /// Live on-disk file sizes, oldest first.
    files: Vec<u64>,
    /// Bytes written to disk so far (initial runs + merge outputs).
    written: u64,
    /// Bytes read from disk so far (merge inputs).
    read: u64,
}

impl MergeTreeSim {
    /// Creates a simulator with merge factor `f`.
    ///
    /// # Panics
    /// Panics if `f < 2`.
    pub fn new(f: usize) -> Self {
        assert!(f >= 2, "merge factor must be >= 2, got {f}");
        MergeTreeSim {
            f,
            files: Vec::new(),
            written: 0,
            read: 0,
        }
    }

    /// Spills one initial run of `b` bytes. If that triggers a background
    /// merge, performs it and returns the sizes it merged. One run triggers
    /// at most one merge: a merge leaves `F` files, fewer than `2F − 1`.
    pub fn add_run(&mut self, b: u64) -> Option<Vec<u64>> {
        self.files.push(b);
        self.written += b;
        let mut picks = merge_schedule(&self.files, self.f)?;
        // Back to front, so each removal leaves the other positions valid.
        picks.sort_unstable_by(|a, b| b.cmp(a));
        let inputs: Vec<u64> = picks.iter().map(|&i| self.files.remove(i)).collect();
        let merged: u64 = inputs.iter().sum();
        self.read += merged;
        self.written += merged;
        self.files.push(merged);
        Some(inputs)
    }

    /// Completes the job: reads every remaining file once for the final
    /// merge. Returns the total `(written, read)` bytes of the whole merge
    /// history.
    pub fn finish(mut self) -> MergeCost {
        self.read += self.files.iter().sum::<u64>();
        MergeCost {
            written: self.written,
            read: self.read,
            final_fan_in: self.files.len(),
        }
    }

    /// Live file sizes, oldest first.
    pub fn live_files(&self) -> &[u64] {
        &self.files
    }
}

/// Outcome of an exact merge-tree replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeCost {
    /// Total bytes written (initial runs + merge outputs).
    pub written: u64,
    /// Total bytes read (merge inputs + final merge).
    pub read: u64,
    /// Files feeding the final merge.
    pub final_fan_in: usize,
}

impl MergeCost {
    /// Total I/O traffic of the merge phase.
    pub fn total(&self) -> u64 {
        self.written + self.read
    }
}

/// Replays `n` runs of size `b` with factor `f` and returns the exact cost.
pub fn exact_merge_cost(n: usize, b: u64, f: usize) -> MergeCost {
    let mut sim = MergeTreeSim::new(f);
    for _ in 0..n {
        sim.add_run(b);
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree-complete run counts: n = (F + (F−1)(h−2))·F for h ≥ 2.
    fn complete_n(f: usize, h: usize) -> usize {
        (f + (f - 1) * (h - 2)) * f
    }

    #[test]
    fn lambda_equals_nb_when_no_merge_fires() {
        // n = F runs never trigger a background merge (needs 2F−1).
        for f in [3usize, 4, 8, 16] {
            let n = f as f64;
            let got = lambda_f(n, 1.0, f);
            assert!((got - n).abs() < 1e-9, "F={f}: λ={got}, want {n}");
        }
    }

    #[test]
    fn closed_form_matches_exact_sim_at_tree_complete_points() {
        for f in [3usize, 4, 5, 8] {
            for h in 2..6 {
                let n = complete_n(f, h);
                let exact = exact_merge_cost(n, 1, f).total() as f64;
                // λ counts every file once; exact total is write+read = 2λ.
                let lam = lambda_f(n as f64, 1.0, f);
                let rel = (exact - 2.0 * lam).abs() / exact;
                assert!(
                    rel < 0.12,
                    "F={f} h={h} n={n}: exact={exact} 2λ={} rel={rel}",
                    2.0 * lam
                );
            }
        }
    }

    #[test]
    fn lambda_monotone_in_n() {
        let f = 10;
        let mut prev = 0.0;
        for n in 1..200 {
            let v = lambda_f(n as f64, 1.0, f);
            assert!(v >= prev, "λ not monotone at n={n}");
            prev = v;
        }
    }

    #[test]
    fn larger_f_never_costs_more_bytes() {
        // Fewer merge passes with bigger F ⇒ fewer bytes (the paper's
        // Fig 4(b) trend: time decreases from F=4 to F=16).
        for n in [50usize, 120, 400] {
            let small = exact_merge_cost(n, 1, 4).total();
            let big = exact_merge_cost(n, 1, 16).total();
            assert!(big <= small, "n={n}: F=16 cost {big} > F=4 cost {small}");
        }
    }

    #[test]
    fn one_pass_merge_when_f_at_least_runs() {
        // F ≥ n ⇒ no background merge (nothing written but the runs);
        // only the final read.
        let cost = exact_merge_cost(12, 2, 16);
        assert_eq!(cost.written, 24);
        assert_eq!(cost.read, 24);
        assert_eq!(cost.final_fan_in, 12);
    }

    #[test]
    fn background_merge_fires_at_2f_minus_1() {
        let f = 4;
        let mut sim = MergeTreeSim::new(f);
        for i in 0..(2 * f - 2) {
            assert_eq!(sim.add_run(1), None, "premature merge");
            assert_eq!(sim.live_files().len(), i + 1);
        }
        assert_eq!(sim.add_run(1), Some(vec![1; f]), "2F−1 files reached");
        // The smallest F merged → F files remain.
        assert_eq!(sim.live_files().len(), f);
    }

    #[test]
    fn merge_picks_smallest_files() {
        // With one big file and many small ones, the big file must survive
        // the first background merge untouched.
        let f = 3;
        let mut sim = MergeTreeSim::new(f);
        sim.add_run(100);
        for _ in 0..4 {
            sim.add_run(1);
        }
        // 5 files = 2F−1 → merge the 3 oldest of the four 1s; the merged
        // file is the newest.
        assert_eq!(sim.live_files(), &[100, 1, 3]);
    }

    #[test]
    fn schedule_waits_for_2f_minus_1_files() {
        assert_eq!(merge_schedule(&[5, 1, 3], 3), None);
        assert_eq!(merge_schedule(&[], 2), None);
        assert_eq!(merge_schedule(&[4, 2, 9], 2), Some(vec![1, 0]));
    }

    #[test]
    fn schedule_breaks_ties_by_position() {
        // Smallest first; equal sizes keep their creation order.
        assert_eq!(merge_schedule(&[7, 3, 7, 3, 7], 3), Some(vec![1, 3, 0]));
        assert_eq!(merge_schedule(&[2; 7], 4), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "merge factor")]
    fn lambda_rejects_f_below_2() {
        let _ = lambda_f(10.0, 1.0, 1);
    }

    #[test]
    fn zero_runs_zero_cost() {
        assert_eq!(lambda_f(0.0, 1.0, 4), 0.0);
        let c = exact_merge_cost(0, 1, 4);
        assert_eq!(c.total(), 0);
    }
}
