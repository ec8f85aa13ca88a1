//! The model-drift checker: Prop. 3.1/3.2 predictions vs. measured
//! rollups.
//!
//! The paper's analytical model (§3) predicts per-node I/O bytes
//! (`U_1..U_5`, Eq. 1) and request counts (`S`, Eq. 3) from the
//! (C, F, R) configuration alone. The engine measures the same
//! quantities exactly. This module closes the loop: given the cluster
//! configuration and a [`Rollup`] from a traced run, it derives the
//! measured workload parameters (`D`, `K_m`, `K_r`), evaluates the
//! model, and reports per-term relative error — turning the paper's
//! propositions into a continuously validated invariant
//! (`tests/model_drift.rs` pins sort-merge sessionization at ≤ 10%).
//! It is the one model-vs-engine comparer (`opa run --drift`, `repro modelcheck`).
//!
//! The *measured* side uses first-pass I/O only ([`Rollup::first_pass`]):
//! recovery re-replay traffic under fault injection re-does work the
//! model already priced once, so it is excluded — the measured bytes here
//! are authoritative for model comparison.

use crate::rollup::Rollup;
use opa_common::{CombineScope, Error, HardwareSpec, Result, SystemSettings, WorkloadSpec};
use opa_model::io_model::{CombineModel, ModelInput};
use opa_simio::IoCategory;

/// One predicted-vs-measured quantity.
#[derive(Debug, Clone, Copy)]
pub struct DriftTerm {
    /// Term name (`u1`…`u5`, `total`, `requests`).
    pub name: &'static str,
    /// What the term measures, for human-readable reports.
    pub what: &'static str,
    /// Model prediction (per-node).
    pub predicted: f64,
    /// Engine measurement (per-node).
    pub measured: f64,
}

impl DriftTerm {
    /// Relative error `|predicted − measured| / measured`. Terms where
    /// both sides are below one byte/request (e.g. `U_2` when map output
    /// fits its buffer on both sides) report zero rather than dividing
    /// by zero.
    pub fn rel_err(&self) -> f64 {
        if self.predicted.abs() < 1.0 && self.measured.abs() < 1.0 {
            return 0.0;
        }
        (self.predicted - self.measured).abs() / self.measured.abs().max(1.0)
    }
}

/// Workload parameters recovered from a measured run.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredWorkload {
    /// `D` — job input bytes (cluster-wide).
    pub input_bytes: u64,
    /// `K_m` — map output bytes per input byte.
    pub km: f64,
    /// `K_r` — reduce output bytes per map output byte.
    pub kr: f64,
}

impl MeasuredWorkload {
    /// Derives (`D`, `K_m`, `K_r`) from a rollup: `D` from first-pass
    /// map-input reads, `K_m` from committed map-task output, `K_r`
    /// from first-pass job-output writes.
    pub fn from_rollup(r: &Rollup) -> Result<MeasuredWorkload> {
        let d = r.first_pass.read_bytes(IoCategory::MapInput);
        if d == 0 {
            return Err(Error::job(
                "trace has no map-input reads; cannot derive workload parameters".to_string(),
            ));
        }
        let km = r.map_output_bytes as f64 / d as f64;
        let out = r.first_pass.written_bytes(IoCategory::ReduceOutput);
        let kr = if r.map_output_bytes > 0 {
            out as f64 / r.map_output_bytes as f64
        } else {
            0.0
        };
        Ok(MeasuredWorkload {
            input_bytes: d,
            km,
            kr,
        })
    }
}

/// The full drift report for one run.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// The workload parameters the model was evaluated with.
    pub workload: MeasuredWorkload,
    /// Per-category byte terms `u1`…`u5` (Prop. 3.1), per node.
    pub bytes: Vec<DriftTerm>,
    /// Total bytes `U` (Prop. 3.1), per node.
    pub bytes_total: DriftTerm,
    /// Request count `S` (Prop. 3.2), per node.
    pub requests: DriftTerm,
    /// Measured-occupancy coverage γ vs. the value implied by the
    /// admission bookkeeping identity `absorbed + rejected = offered`
    /// (`None` unless the trace carries admission events). Any relative
    /// error here means the trace's admission counters are corrupt.
    pub admission_gamma: Option<DriftTerm>,
    /// Combiner-ratio term: the [`CombineModel`]'s predicted per-node
    /// shuffle bytes vs. the bytes the trace actually booked on the
    /// network (`None` unless a combine model was supplied via
    /// [`check_with_combine`]).
    pub combine: Option<DriftTerm>,
}

impl DriftReport {
    /// Largest relative error across the Prop. 3.1 byte terms whose
    /// measured magnitude is at least `min_share` of the measured total
    /// (tiny terms drown in integer-rounding noise).
    pub fn max_bytes_rel_err(&self, min_share: f64) -> f64 {
        let floor = self.bytes_total.measured * min_share;
        self.bytes
            .iter()
            .filter(|t| t.measured >= floor)
            .map(|t| t.rel_err())
            .fold(self.bytes_total.rel_err(), f64::max)
    }

    /// Multi-line human-readable report (`opa run --drift`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "measured workload: D={} bytes, Km={:.4}, Kr={:.4}\n",
            self.workload.input_bytes, self.workload.km, self.workload.kr
        ));
        out.push_str("per-node bytes (Prop 3.1):\n");
        for t in self.bytes.iter().chain(std::iter::once(&self.bytes_total)) {
            out.push_str(&format!(
                "  {:8} {:26} predicted {:>14.0}  measured {:>14.0}  rel err {:>6.2}%\n",
                t.name,
                t.what,
                t.predicted,
                t.measured,
                t.rel_err() * 100.0
            ));
        }
        out.push_str(&format!(
            "per-node requests (Prop 3.2):\n  {:8} {:26} predicted {:>14.0}  measured {:>14.0}  rel err {:>6.2}%\n",
            self.requests.name,
            self.requests.what,
            self.requests.predicted,
            self.requests.measured,
            self.requests.rel_err() * 100.0
        ));
        if let Some(g) = &self.admission_gamma {
            out.push_str(&format!(
                "admission coverage:\n  {:8} {:26} implied   {:>14.4}  measured {:>14.4}  rel err {:>6.2}%\n",
                g.name,
                g.what,
                g.predicted,
                g.measured,
                g.rel_err() * 100.0
            ));
        }
        if let Some(c) = &self.combine {
            out.push_str(&format!(
                "combiner ratio:\n  {:8} {:26} predicted {:>14.0}  measured {:>14.0}  rel err {:>6.2}%\n",
                c.name,
                c.what,
                c.predicted,
                c.measured,
                c.rel_err() * 100.0
            ));
        }
        out
    }
}

/// Evaluates the §3 model for the configuration that produced `rollup`
/// and compares every term against the measurement.
///
/// The measured per-node values divide cluster-wide first-pass totals by
/// `hardware.nodes` (the same `N` the model predicts per-node values
/// for). Term mapping, as documented in `OBSERVABILITY.md`:
///
/// | term | model (per node)   | measured (first pass, per node)     |
/// |------|--------------------|-------------------------------------|
/// | `u1` | `D/N`              | map-input bytes **read**            |
/// | `u2` | `2·λ_F` map side   | map-spill bytes read + written      |
/// | `u3` | `D·K_m/N`          | map-output bytes **written**        |
/// | `u4` | `2·R·λ_F` reduce   | reduce-spill bytes read + written   |
/// | `u5` | `D·K_m·K_r/N`      | job-output bytes **written**        |
///
/// (`u3` counts writes only: re-reading map output to feed second-wave
/// reducers is a scheduling artifact the model folds into shuffle, not a
/// `U_3` term.)
pub fn check(
    system: SystemSettings,
    hardware: HardwareSpec,
    rollup: &Rollup,
) -> Result<DriftReport> {
    check_with_combine(system, hardware, rollup, None)
}

/// [`check`], plus the combiner-ratio term: when the caller knows the
/// job's key distribution (a [`CombineModel`]) and the combine scope it
/// ran under, the report also compares the model's predicted per-node
/// shuffle bytes against the network bytes the trace booked.
pub fn check_with_combine(
    system: SystemSettings,
    hardware: HardwareSpec,
    rollup: &Rollup,
    combine_model: Option<(CombineScope, CombineModel)>,
) -> Result<DriftReport> {
    let workload = MeasuredWorkload::from_rollup(rollup)?;
    let model = ModelInput::new(
        system,
        WorkloadSpec::new(workload.input_bytes, workload.km, workload.kr),
        hardware,
    )?;
    let predicted = model.io_bytes();
    let n = hardware.nodes as f64;
    let per_node = |v: u64| v as f64 / n;
    let fp = &rollup.first_pass;

    let bytes = vec![
        DriftTerm {
            name: "u1",
            what: "map input read",
            predicted: predicted.u1,
            measured: per_node(fp.read_bytes(IoCategory::MapInput)),
        },
        DriftTerm {
            name: "u2",
            what: "map internal spills",
            predicted: predicted.u2,
            measured: per_node(fp.bytes(IoCategory::MapSpill)),
        },
        DriftTerm {
            name: "u3",
            what: "map output written",
            predicted: predicted.u3,
            measured: per_node(fp.written_bytes(IoCategory::MapOutput)),
        },
        DriftTerm {
            name: "u4",
            what: "reduce internal spills",
            predicted: predicted.u4,
            measured: per_node(fp.bytes(IoCategory::ReduceSpill)),
        },
        DriftTerm {
            name: "u5",
            what: "job output written",
            predicted: predicted.u5,
            measured: per_node(fp.written_bytes(IoCategory::ReduceOutput)),
        },
    ];
    let bytes_total = DriftTerm {
        name: "total",
        what: "U = u1+u2+u3+u4+u5",
        predicted: predicted.total(),
        measured: bytes.iter().map(|t| t.measured).sum(),
    };
    let requests = DriftTerm {
        name: "requests",
        what: "S sequential I/O requests",
        predicted: model.io_requests(),
        measured: per_node(fp.total_seeks()),
    };
    let admission_gamma = (rollup.admission_reducers > 0).then(|| DriftTerm {
        name: "gamma",
        what: "measured occupancy",
        predicted: opa_model::gamma::measured_occupancy(
            rollup
                .admission_offered
                .saturating_sub(rollup.admission_rejected),
            rollup.admission_offered,
        ),
        measured: opa_model::gamma::measured_occupancy(
            rollup.admission_absorbed,
            rollup.admission_offered,
        ),
    });
    let combine = combine_model.map(|(scope, model)| DriftTerm {
        name: "shuffle",
        what: "post-combine shuffle bytes",
        predicted: model.shuffle_bytes(scope) / n,
        measured: per_node(rollup.shuffle_bytes),
    });
    Ok(DriftReport {
        workload,
        bytes,
        bytes_total,
        requests,
        admission_gamma,
        combine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    #[test]
    fn rel_err_handles_zero_terms() {
        let zero = DriftTerm {
            name: "u2",
            what: "",
            predicted: 0.0,
            measured: 0.0,
        };
        assert_eq!(zero.rel_err(), 0.0);
        let off = DriftTerm {
            name: "u1",
            what: "",
            predicted: 110.0,
            measured: 100.0,
        };
        assert!((off.rel_err() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn workload_derivation_requires_input_reads() {
        let empty = Rollup::from_events(&[]);
        assert!(MeasuredWorkload::from_rollup(&empty).is_err());
    }

    #[test]
    fn workload_derived_from_first_pass_only() {
        let events = vec![
            TraceEvent::Io {
                t0: 0,
                t: 1,
                node: 0,
                cat: IoCategory::MapInput,
                read: 1000,
                written: 0,
                seeks: 1,
                recovery: false,
            },
            // Recovery re-read must not inflate D.
            TraceEvent::Io {
                t0: 1,
                t: 2,
                node: 0,
                cat: IoCategory::MapInput,
                read: 1000,
                written: 0,
                seeks: 1,
                recovery: true,
            },
            TraceEvent::MapFinish {
                t0: 0,
                t: 3,
                chunk: 0,
                node: 0,
                cpu: 1,
                output_bytes: 500,
                spill_bytes: 0,
            },
            TraceEvent::Io {
                t0: 3,
                t: 4,
                node: 0,
                cat: IoCategory::ReduceOutput,
                read: 0,
                written: 250,
                seeks: 1,
                recovery: false,
            },
        ];
        let w = MeasuredWorkload::from_rollup(&Rollup::from_events(&events)).expect("workload");
        assert_eq!(w.input_bytes, 1000);
        assert!((w.km - 0.5).abs() < 1e-12);
        assert!((w.kr - 0.5).abs() < 1e-12);
    }
}
