//! Property-based validation of the analytical model: the closed-form
//! `λ_F` must track the exact merge-policy replay for arbitrary inputs,
//! and the I/O model must behave sanely across the parameter space.

use opa_common::units::{GB, MB};
use opa_common::{HardwareSpec, SystemSettings, WorkloadSpec};
use opa_model::io_model::ModelInput;
use opa_model::lambda::{exact_merge_cost, lambda_f, merge_schedule, MergeTreeSim};
use opa_model::time_model::CostConstants;
use proptest::prelude::*;

/// The background-merge policy as `MergeTreeSim` first implemented it:
/// at `2F − 1` live files, sort the sizes descending and merge the `F` at
/// the tail. Returns the `(written, read)` bytes of the whole history and
/// the final fan-in.
fn sort_descending_oracle(runs: &[u64], f: usize) -> (u64, u64, usize) {
    let (mut files, mut written, mut read) = (Vec::new(), 0u64, 0u64);
    for &b in runs {
        files.push(b);
        written += b;
        while files.len() >= 2 * f - 1 {
            files.sort_unstable_by(|a, b| b.cmp(a));
            let merged: u64 = files.split_off(files.len() - f).iter().sum();
            read += merged;
            written += merged;
            files.push(merged);
        }
    }
    read += files.iter().sum::<u64>();
    (written, read, files.len())
}

proptest! {
    /// The closed form tracks the exact policy replay. It is derived from
    /// the asymptotic tree of Fig. 3, so it is tight at tree-complete
    /// points (checked in unit tests at < 12%) and interpolates in
    /// between — 35% bounds it everywhere in the explored range.
    #[test]
    fn lambda_tracks_exact_policy(n in 4usize..400, f in 2usize..24, b in 1u64..4096) {
        let exact = exact_merge_cost(n, b, f).total() as f64;
        let lam = 2.0 * lambda_f(n as f64, b as f64, f);
        prop_assert!(exact > 0.0);
        let rel = (lam - exact).abs() / exact;
        prop_assert!(rel < 0.35, "n={n} F={f}: λ {lam} vs exact {exact} (rel {rel:.3})");
    }

    /// Incremental replay equals batch replay (add_run is online).
    #[test]
    fn merge_sim_is_online(ns in proptest::collection::vec(1u64..64, 1..60), f in 2usize..12) {
        let mut sim = MergeTreeSim::new(f);
        for &b in &ns {
            sim.add_run(b);
            prop_assert!(sim.live_files().len() < 2 * f - 1);
        }
        let cost = sim.finish();
        // Conservation: bytes read during merges never exceed bytes written.
        prop_assert!(cost.read <= cost.written + ns.iter().sum::<u64>());
        prop_assert!(cost.final_fan_in < 2 * f);
    }

    /// `merge_schedule` fires when the oracle does and picks the sizes it
    /// picks, smallest first; among equal sizes it takes the oldest files.
    #[test]
    fn merge_schedule_picks_the_oracles_sizes(
        sizes in proptest::collection::vec(1u64..4, 0..20),
        f in 2usize..9,
    ) {
        let picks = merge_schedule(&sizes, f);
        prop_assert_eq!(picks.is_some(), sizes.len() >= 2 * f - 1);
        if let Some(picks) = picks {
            let mut descending = sizes.clone();
            descending.sort_unstable_by(|a, b| b.cmp(a));
            let mut oracle = descending.split_off(descending.len() - f);
            oracle.reverse();
            let picked: Vec<u64> = picks.iter().map(|&i| sizes[i]).collect();
            prop_assert_eq!(picked, oracle);
            for w in picks.windows(2) {
                prop_assert!(sizes[w[0]] < sizes[w[1]] || w[0] < w[1]);
            }
        }
    }

    /// The merge-tree replay picks the same files as the sort-descending
    /// policy: on run sizes drawn from a small range (so ties are common)
    /// and from a wide one, every byte count agrees exactly.
    #[test]
    fn merge_sim_matches_sort_descending_oracle(
        narrow in proptest::collection::vec(1u64..4, 0..80),
        wide in proptest::collection::vec(1u64..5000, 0..80),
        f in 2usize..9,
    ) {
        for runs in [&narrow, &wide] {
            let mut sim = MergeTreeSim::new(f);
            for &b in runs.iter() {
                sim.add_run(b);
            }
            let cost = sim.finish();
            let (written, read, fan_in) = sort_descending_oracle(runs, f);
            prop_assert_eq!(cost.written, written);
            prop_assert_eq!(cost.read, read);
            prop_assert_eq!(cost.final_fan_in, fan_in);
        }
    }

    /// The byte model is monotone in input size and never negative.
    #[test]
    fn io_bytes_monotone_in_d(
        d_gb in 1u64..512,
        chunk_mb in 1u64..256,
        f in 2usize..32,
        km in 1u32..30,
    ) {
        let km = km as f64 / 10.0;
        let mk = |d: u64| {
            ModelInput::new(
                SystemSettings {
                    reducers_per_node: 4,
                    chunk_size: chunk_mb * MB,
                    merge_factor: f,
                },
                WorkloadSpec::new(d, km, 1.0),
                HardwareSpec::paper_cluster_full(),
            )
            .unwrap()
        };
        let small = mk(d_gb * GB).io_bytes();
        let large = mk(2 * d_gb * GB).io_bytes();
        prop_assert!(small.total() >= 0.0);
        prop_assert!(large.total() >= small.total());
        // Pass-through components scale exactly linearly.
        prop_assert!((large.u1 - 2.0 * small.u1).abs() < 1.0);
        prop_assert!((large.u3 - 2.0 * small.u3).abs() < 1.0);
    }

    /// The Eq. 4 measurement is finite and positive wherever the
    /// configuration validates.
    #[test]
    fn time_measurement_is_finite(
        d_gb in 1u64..256,
        chunk_mb in 1u64..512,
        f in 2usize..64,
        r in 1usize..8,
    ) {
        let input = ModelInput::new(
            SystemSettings {
                reducers_per_node: r,
                chunk_size: chunk_mb * MB,
                merge_factor: f,
            },
            WorkloadSpec::new(d_gb * GB, 1.0, 1.0),
            HardwareSpec::paper_cluster_full(),
        )
        .unwrap();
        let t = input.time_measurement(&CostConstants::default());
        prop_assert!(t.total().is_finite());
        prop_assert!(t.total() > 0.0);
        prop_assert!(t.byte_time >= 0.0 && t.seek_time >= 0.0 && t.startup_time >= 0.0);
    }
}
