//! Per-phase metric rollups computed from a raw trace.
//!
//! A [`Rollup`] is the bridge between the event stream and the paper's
//! aggregate quantities: Table 2's `U_1..U_5` byte decomposition and
//! request count `S` (from `io` events), the Fig 2(a)-style phase busy
//! times (from `span` events), and a log₂ histogram of spill sizes. The
//! model-drift checker ([`crate::drift`]) consumes these numbers; the
//! `opa trace --format summary` CLI prints them.

use crate::event::{SpanKind, TraceEvent};
use opa_simio::{IoCategory, IoOp, IoStats};
use std::collections::BTreeSet;

/// Number of log₂ buckets in the spill-size histogram (covers up to
/// 2^63 bytes).
pub const SPILL_HIST_BUCKETS: usize = 64;

/// Per-stage summary row of a dataflow chain, folded from the
/// `stage_start`/`stage_handoff`/`reshuffle_skipped` event triple.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageRow {
    /// Stage index within the chain.
    pub stage: u32,
    /// Records entering the stage's map phase.
    pub records_in: u64,
    /// Bytes entering the stage's map phase.
    pub bytes_in: u64,
    /// Records handed to the next stage (0 for the final stage, which
    /// emits no handoff).
    pub records_out: u64,
    /// Bytes handed to the next stage.
    pub bytes_out: u64,
    /// Whether the *outgoing* handoff crossed a real shuffle.
    pub reshuffled: bool,
    /// Shuffle bytes this stage avoided via the partition-stable skip.
    pub bytes_saved: u64,
}

/// Aggregate view of one trace. All byte counts are cluster-wide totals
/// (divide by [`Rollup::nodes`] for the per-node quantities the model
/// predicts); all times are virtual microseconds.
#[derive(Debug, Clone)]
pub struct Rollup {
    /// Fault-free (first-pass) I/O, `U_1..U_5` + `S`. This is the
    /// quantity Props. 3.1/3.2 predict.
    pub first_pass: IoStats,
    /// Additional I/O re-done while recovering from injected faults
    /// (`io` events flagged `recovery`).
    pub recovery: IoStats,
    /// Distinct nodes that appear anywhere in the trace.
    pub nodes: u32,
    /// End of the last event (virtual job makespan bound, µs).
    pub t_end: u64,
    /// Total busy time per span kind (map/shuffle/merge/reduce), µs.
    pub span_time: [u64; 4],
    /// Number of closed spans per kind.
    pub span_count: [u64; 4],
    /// Committed map tasks.
    pub map_tasks: u64,
    /// Map-task dispatches, retries included.
    pub map_attempts: u64,
    /// Sum of committed map-task CPU (µs).
    pub map_cpu: u64,
    /// Map output bytes across committed tasks (`D·K_m`).
    pub map_output_bytes: u64,
    /// Map-side internal spill bytes written across committed tasks.
    pub map_spill_bytes: u64,
    /// Shuffle payloads delivered.
    pub shuffle_transfers: u64,
    /// Total bytes shuffled over the network.
    pub shuffle_bytes: u64,
    /// Node staging-table flushes (`node_combine` events; 0 unless the
    /// job ran under `CombineScope::Node`).
    pub node_combine_flushes: u64,
    /// Pre-combine bytes offered to the node staging tables.
    pub node_combine_staged: u64,
    /// Post-combine bytes the node flushes shipped.
    pub node_combine_flushed: u64,
    /// Reduce tasks that finished.
    pub reduce_tasks: u64,
    /// Fault-injection decisions that fired.
    pub faults: u64,
    /// Recovery retries scheduled.
    pub retries: u64,
    /// Input records quarantined by per-record UDF poison.
    pub poisons: u64,
    /// Stream batch seals observed (0 for batch jobs).
    pub batch_seals: u64,
    /// Stream checkpoints written.
    pub checkpoints: u64,
    /// Total checkpoint bytes.
    pub checkpoint_bytes: u64,
    /// Admission summaries observed (one per reducer when the LFU
    /// admission policy is on; 0 otherwise).
    pub admission_reducers: u64,
    /// Tuples offered to admission-gated reduce tables.
    pub admission_offered: u64,
    /// Tuples absorbed into resident state.
    pub admission_absorbed: u64,
    /// Evict-and-admit decisions across all reducers.
    pub admission_evictions: u64,
    /// Arrivals denied admission and spilled.
    pub admission_rejected: u64,
    /// Log₂ histogram of first-pass spill *write* sizes (`U_2` + `U_4`
    /// write operations): bucket `i` counts writes with
    /// `2^i ≤ bytes < 2^(i+1)` (bucket 0 also holds 1-byte writes).
    pub spill_hist: [u64; SPILL_HIST_BUCKETS],
    /// Dataflow stages observed (`stage_start` events; 0 for single jobs).
    pub stages: u64,
    /// Stage handoffs that crossed a real shuffle.
    pub stage_reshuffles: u64,
    /// Stages whose incoming handoff stayed in memory
    /// (`reshuffle_skipped` events — partition-stable skips).
    pub stage_skips: u64,
    /// Total shuffle bytes avoided across all `reshuffle_skipped` stages.
    pub reshuffle_bytes_saved: u64,
    /// Per-stage rows of the dataflow chain, in stage order (empty for
    /// single jobs).
    pub stage_rows: Vec<StageRow>,
}

fn span_index(kind: SpanKind) -> usize {
    match kind {
        SpanKind::Map => 0,
        SpanKind::Shuffle => 1,
        SpanKind::Merge => 2,
        SpanKind::Reduce => 3,
    }
}

impl Rollup {
    /// Folds an event stream into its rollup.
    pub fn from_events(events: &[TraceEvent]) -> Rollup {
        let mut r = Rollup {
            first_pass: IoStats::new(),
            recovery: IoStats::new(),
            nodes: 0,
            t_end: 0,
            span_time: [0; 4],
            span_count: [0; 4],
            map_tasks: 0,
            map_attempts: 0,
            map_cpu: 0,
            map_output_bytes: 0,
            map_spill_bytes: 0,
            shuffle_transfers: 0,
            shuffle_bytes: 0,
            node_combine_flushes: 0,
            node_combine_staged: 0,
            node_combine_flushed: 0,
            reduce_tasks: 0,
            faults: 0,
            retries: 0,
            poisons: 0,
            batch_seals: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            admission_reducers: 0,
            admission_offered: 0,
            admission_absorbed: 0,
            admission_evictions: 0,
            admission_rejected: 0,
            spill_hist: [0; SPILL_HIST_BUCKETS],
            stages: 0,
            stage_reshuffles: 0,
            stage_skips: 0,
            reshuffle_bytes_saved: 0,
            stage_rows: Vec::new(),
        };
        // Dataflow-level events carry stage ordinals, not virtual µs, so
        // they are kept out of the `t_end` makespan bound below.
        let stage_row = |rows: &mut Vec<StageRow>, stage: u32| -> usize {
            match rows.iter().position(|row| row.stage == stage) {
                Some(i) => i,
                None => {
                    rows.push(StageRow {
                        stage,
                        ..StageRow::default()
                    });
                    rows.len() - 1
                }
            }
        };
        let mut nodes: BTreeSet<u32> = BTreeSet::new();
        for ev in events {
            if !matches!(
                ev,
                TraceEvent::StageStart { .. }
                    | TraceEvent::StageHandoff { .. }
                    | TraceEvent::ReshuffleSkipped { .. }
            ) {
                r.t_end = r.t_end.max(ev.time());
            }
            nodes.extend(ev.node());
            match *ev {
                TraceEvent::MapStart { .. } => r.map_attempts += 1,
                TraceEvent::MapFinish {
                    cpu,
                    output_bytes,
                    spill_bytes,
                    ..
                } => {
                    r.map_tasks += 1;
                    r.map_cpu += cpu;
                    r.map_output_bytes += output_bytes;
                    r.map_spill_bytes += spill_bytes;
                }
                TraceEvent::Shuffle { bytes, .. } => {
                    r.shuffle_transfers += 1;
                    r.shuffle_bytes += bytes;
                }
                TraceEvent::NodeCombine {
                    bytes_in,
                    bytes_out,
                    ..
                } => {
                    r.node_combine_flushes += 1;
                    r.node_combine_staged += bytes_in;
                    r.node_combine_flushed += bytes_out;
                }
                TraceEvent::Io {
                    cat,
                    read,
                    written,
                    seeks,
                    recovery,
                    ..
                } => {
                    let op = IoOp {
                        read,
                        written,
                        seeks,
                    };
                    if recovery {
                        r.recovery.record(cat, op);
                    } else {
                        r.first_pass.record(cat, op);
                        if written > 0
                            && matches!(cat, IoCategory::MapSpill | IoCategory::ReduceSpill)
                        {
                            let bucket = (63 - written.leading_zeros()) as usize;
                            r.spill_hist[bucket] += 1;
                        }
                    }
                }
                TraceEvent::Span { t0, t, kind, .. } => {
                    let i = span_index(kind);
                    r.span_time[i] += t.saturating_sub(t0);
                    r.span_count[i] += 1;
                }
                TraceEvent::Fault { .. } => r.faults += 1,
                TraceEvent::Retry { .. } => r.retries += 1,
                TraceEvent::ReduceFinish { .. } => r.reduce_tasks += 1,
                TraceEvent::BatchSeal { .. } => r.batch_seals += 1,
                TraceEvent::Checkpoint { bytes, .. } => {
                    r.checkpoints += 1;
                    r.checkpoint_bytes += bytes;
                }
                TraceEvent::Admission {
                    offered,
                    absorbed,
                    evictions,
                    rejected,
                    ..
                } => {
                    r.admission_reducers += 1;
                    r.admission_offered += offered;
                    r.admission_absorbed += absorbed;
                    r.admission_evictions += evictions;
                    r.admission_rejected += rejected;
                }
                TraceEvent::Poison { .. } => r.poisons += 1,
                TraceEvent::StageStart {
                    stage,
                    records,
                    bytes,
                    ..
                } => {
                    r.stages += 1;
                    let i = stage_row(&mut r.stage_rows, stage);
                    r.stage_rows[i].records_in = records;
                    r.stage_rows[i].bytes_in = bytes;
                }
                TraceEvent::StageHandoff {
                    stage,
                    records,
                    bytes,
                    reshuffled,
                    ..
                } => {
                    if reshuffled {
                        r.stage_reshuffles += 1;
                    }
                    let i = stage_row(&mut r.stage_rows, stage);
                    r.stage_rows[i].records_out = records;
                    r.stage_rows[i].bytes_out = bytes;
                    r.stage_rows[i].reshuffled = reshuffled;
                }
                TraceEvent::ReshuffleSkipped {
                    stage, bytes_saved, ..
                } => {
                    // Counted here, not from `stage_handoff` flags: a
                    // chain started from a resident dataset (`run_from`)
                    // can skip its *first* stage's shuffle, and that
                    // handoff has no predecessor stage to emit an event.
                    r.stage_skips += 1;
                    r.reshuffle_bytes_saved += bytes_saved;
                    let i = stage_row(&mut r.stage_rows, stage);
                    r.stage_rows[i].bytes_saved = bytes_saved;
                }
                // Nothing else aggregates: `reduce_start` only names its
                // node, and serving-layer events carry scheduler rounds,
                // not virtual µs — they label multi-tenant traces but add
                // nothing to a single job's phase rollup.
                _ => {}
            }
        }
        r.nodes = nodes.len() as u32;
        r
    }

    /// Busy time for one span kind (µs).
    pub fn span_time_of(&self, kind: SpanKind) -> u64 {
        self.span_time[span_index(kind)]
    }

    /// Number of closed spans for one kind. `Merge` counts the
    /// background merge passes the λ_F term prices.
    pub fn span_count_of(&self, kind: SpanKind) -> u64 {
        self.span_count[span_index(kind)]
    }

    /// First-pass plus recovery I/O combined (what the device actually
    /// served).
    pub fn total_io(&self) -> IoStats {
        let mut s = self.first_pass.clone();
        s.merge(&self.recovery);
        s
    }

    /// Multi-line human-readable report (`opa trace --format summary`).
    pub fn render(&self) -> String {
        use opa_common::units::ByteSize;
        let mut out = String::new();
        out.push_str(&format!(
            "nodes {}  virtual end {:.3}s\n",
            self.nodes,
            self.t_end as f64 / 1e6
        ));
        out.push_str(&format!(
            "map: {} tasks ({} attempts), cpu {:.3}s, output {}, spills {}\n",
            self.map_tasks,
            self.map_attempts,
            self.map_cpu as f64 / 1e6,
            ByteSize(self.map_output_bytes),
            ByteSize(self.map_spill_bytes),
        ));
        out.push_str(&format!(
            "shuffle: {} transfers, {}\n",
            self.shuffle_transfers,
            ByteSize(self.shuffle_bytes)
        ));
        if self.node_combine_flushes > 0 {
            let ratio = if self.node_combine_staged == 0 {
                1.0
            } else {
                self.node_combine_flushed as f64 / self.node_combine_staged as f64
            };
            out.push_str(&format!(
                "node-combine: {} flushes, staged {} -> shipped {} (ratio {:.3})\n",
                self.node_combine_flushes,
                ByteSize(self.node_combine_staged),
                ByteSize(self.node_combine_flushed),
                ratio
            ));
        }
        out.push_str(&format!(
            "reduce: {} tasks, {} merge passes\n",
            self.reduce_tasks,
            self.span_count_of(SpanKind::Merge)
        ));
        for (label, kind) in [
            ("map", SpanKind::Map),
            ("shuffle", SpanKind::Shuffle),
            ("merge", SpanKind::Merge),
            ("reduce", SpanKind::Reduce),
        ] {
            out.push_str(&format!(
                "busy[{label}] {:.3}s over {} spans\n",
                self.span_time_of(kind) as f64 / 1e6,
                self.span_count_of(kind)
            ));
        }
        out.push_str("first-pass ");
        out.push_str(&self.first_pass.to_string());
        out.push('\n');
        if self.recovery.total_bytes() > 0 || self.recovery.total_seeks() > 0 {
            out.push_str(&format!(
                "recovery re-replay: {} in {} requests (excluded above)\n",
                ByteSize(self.recovery.total_bytes()),
                self.recovery.total_seeks()
            ));
        }
        if self.faults > 0 || self.retries > 0 {
            out.push_str(&format!(
                "faults: {} fired, {} retries\n",
                self.faults, self.retries
            ));
        }
        if self.poisons > 0 {
            out.push_str(&format!(
                "poison: {} records quarantined to the DLQ\n",
                self.poisons
            ));
        }
        if self.admission_reducers > 0 {
            let gamma = if self.admission_offered == 0 {
                1.0
            } else {
                self.admission_absorbed as f64 / self.admission_offered as f64
            };
            out.push_str(&format!(
                "admission: {} reducers, offered {}, absorbed {} (γ {:.4}), {} evictions, {} rejected\n",
                self.admission_reducers,
                self.admission_offered,
                self.admission_absorbed,
                gamma,
                self.admission_evictions,
                self.admission_rejected
            ));
        }
        if self.batch_seals > 0 {
            out.push_str(&format!(
                "stream: {} seals, {} checkpoints ({})\n",
                self.batch_seals,
                self.checkpoints,
                ByteSize(self.checkpoint_bytes)
            ));
        }
        if self.stages > 0 {
            out.push_str(&format!(
                "dataflow: {} stages, {} reshuffled, {} skipped ({} saved)\n",
                self.stages,
                self.stage_reshuffles,
                self.stage_skips,
                ByteSize(self.reshuffle_bytes_saved)
            ));
            for row in &self.stage_rows {
                let path = if row.bytes_saved > 0 {
                    "skip"
                } else if row.reshuffled {
                    "reshuffle"
                } else if row.records_out > 0 {
                    "handoff"
                } else {
                    "final"
                };
                out.push_str(&format!(
                    "  stage {}: in {} recs ({}), out {} recs ({}), {}\n",
                    row.stage,
                    row.records_in,
                    ByteSize(row.bytes_in),
                    row.records_out,
                    ByteSize(row.bytes_out),
                    path
                ));
            }
        }
        let populated: Vec<String> = self
            .spill_hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| format!("2^{i}:{n}"))
            .collect();
        if !populated.is_empty() {
            out.push_str(&format!("spill-size histogram {}\n", populated.join(" ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_separates_recovery_from_first_pass() {
        let events = vec![
            TraceEvent::Io {
                t0: 0,
                t: 10,
                node: 0,
                cat: IoCategory::ReduceSpill,
                read: 0,
                written: 1024,
                seeks: 1,
                recovery: false,
            },
            TraceEvent::Io {
                t0: 10,
                t: 20,
                node: 1,
                cat: IoCategory::ReduceSpill,
                read: 0,
                written: 1024,
                seeks: 1,
                recovery: true,
            },
        ];
        let r = Rollup::from_events(&events);
        assert_eq!(r.first_pass.bytes(IoCategory::ReduceSpill), 1024);
        assert_eq!(r.recovery.bytes(IoCategory::ReduceSpill), 1024);
        assert_eq!(r.total_io().bytes(IoCategory::ReduceSpill), 2048);
        assert_eq!(r.nodes, 2);
        assert_eq!(r.t_end, 20);
        // 1024 = 2^10; only the first-pass write lands in the histogram.
        assert_eq!(r.spill_hist[10], 1);
    }

    #[test]
    fn rollup_counts_phases_and_streams() {
        let events = vec![
            TraceEvent::MapStart {
                t: 0,
                chunk: 0,
                attempt: 0,
                node: 0,
            },
            TraceEvent::MapFinish {
                t0: 0,
                t: 100,
                chunk: 0,
                node: 0,
                cpu: 50,
                output_bytes: 10,
                spill_bytes: 4,
            },
            TraceEvent::Span {
                t0: 0,
                t: 100,
                node: 0,
                kind: SpanKind::Map,
            },
            TraceEvent::Span {
                t0: 100,
                t: 150,
                node: 0,
                kind: SpanKind::Merge,
            },
            TraceEvent::BatchSeal {
                t: 200,
                batch: 1,
                batches: 2,
                records: 5,
            },
            TraceEvent::Checkpoint {
                t: 201,
                batch: 1,
                bytes: 77,
            },
        ];
        let r = Rollup::from_events(&events);
        assert_eq!(r.map_tasks, 1);
        assert_eq!(r.map_attempts, 1);
        assert_eq!(r.map_output_bytes, 10);
        assert_eq!(r.span_time_of(SpanKind::Map), 100);
        assert_eq!(r.span_count_of(SpanKind::Merge), 1);
        assert_eq!(r.batch_seals, 1);
        assert_eq!(r.checkpoint_bytes, 77);
        let text = r.render();
        assert!(text.contains("merge passes"), "{text}");
        assert!(text.contains("stream: 1 seals"), "{text}");
    }

    #[test]
    fn rollup_folds_dataflow_stage_events() {
        let events = vec![
            TraceEvent::StageStart {
                t: 0,
                stage: 0,
                records: 1000,
                bytes: 96_000,
            },
            TraceEvent::StageHandoff {
                t: 0,
                stage: 0,
                records: 40,
                bytes: 800,
                reshuffled: true,
            },
            TraceEvent::StageStart {
                t: 1,
                stage: 1,
                records: 40,
                bytes: 800,
            },
            TraceEvent::ReshuffleSkipped {
                t: 1,
                stage: 1,
                bytes_saved: 800,
            },
            TraceEvent::StageHandoff {
                t: 1,
                stage: 1,
                records: 40,
                bytes: 640,
                reshuffled: false,
            },
        ];
        let r = Rollup::from_events(&events);
        assert_eq!(r.stages, 2);
        assert_eq!(r.stage_reshuffles, 1);
        assert_eq!(r.stage_skips, 1);
        assert_eq!(r.reshuffle_bytes_saved, 800);
        assert_eq!(r.stage_rows.len(), 2);
        assert_eq!(r.stage_rows[0].records_in, 1000);
        assert!(r.stage_rows[0].reshuffled);
        assert_eq!(r.stage_rows[1].bytes_saved, 800);
        // Stage ordinals must not pollute the virtual-time makespan.
        assert_eq!(r.t_end, 0);
        let text = r.render();
        assert!(text.contains("dataflow: 2 stages"), "{text}");
        assert!(text.contains("stage 1"), "{text}");
    }
}
