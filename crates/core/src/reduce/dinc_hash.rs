//! DINC-hash: the dynamic incremental hash technique (§4.3).
//!
//! `s = (B − h)·n_p` monitor slots hold (counter, key, state, t) per the
//! FREQUENT algorithm: hot keys stay resident and keep combining in memory;
//! a tuple for an unmonitored key either takes over a zero-counter slot
//! (evicting its occupant through the workload's eviction hook — closed
//! sessions are *output directly*, other states spill to a bucket) or, when
//! every counter is positive, is itself staged to disk while all counters
//! decrement. The §6.2 refinement is honoured: the workload's `can_evict`
//! guard can veto displacing a state whose work is not finished (an active
//! session), in which case the tuple spills without the decrement. Under
//! [`MonitorKind::SpaceSaving`] the same monitor runs that algorithm's
//! rule instead: the newcomer displaces the minimum-count occupant the
//! guard lets go, and nothing decrements.
//!
//! After the input ends, the monitored states are flushed through the same
//! eviction hook (complete states go straight to output, the rest join
//! their bucket) and the buckets are processed exactly like INC-hash, so
//! every key's partial states and stray tuples meet again and final answers
//! are exact.
//!
//! Coverage estimation (`γ = t/(t + slack)`, the slack `M/(s+1)` under
//! FREQUENT and `M/s` under SpaceSaving) is exposed through
//! [`DincHashReducer`]'s underlying monitor for the approximate-answer
//! mode: with an `early_stop_coverage` threshold φ set on the builder, keys
//! whose γ ≥ φ are finalized from their partial in-memory state and their
//! buckets skipped (approximate answers, §4.3).

use super::buckets::BucketPass;
use super::{OutputSink, ReduceEnv, ReduceSide, ReducerCkpt, ReducerSizing, TopEntry};
use crate::api::{Handle, IncrementalReducer, JobRef, ReduceCtx};
use crate::cluster::ClusterSpec;
use crate::metrics::AdmissionStats;
use opa_common::units::SimDuration;
use opa_common::{
    AdmissionPolicy, Error, FreqSketch, HashFamily, HashFn, Key, Pair, RecordBatch, Result, Value,
};
use opa_freq::{MgEntry, MgOutcome, MisraGries};
use opa_simio::BucketManager;
use opa_trace::SpanKind;

// The workspace names the monitor's algorithm as `opa_freq::MonitorKind`;
// `opa_perf` is this re-export's only user, and ROADMAP item 5(b) removes
// it.
pub use opa_freq::MonitorKind;

/// [`ReducerCkpt::tag`] of the DINC-hash framework.
pub(crate) const CKPT_TAG: u8 = 4;

/// [`ReducerCkpt::flags`] bit: the monitor runs SpaceSaving (unset =
/// FREQUENT).
const FLAG_SPACE_SAVING: u64 = 1;

/// Monitor bookkeeping per slot (counter, t, indices) charged against the
/// memory budget in addition to the key-state bytes.
const SLOT_OVERHEAD: u64 = 32;

/// Coverage lower bound `γ = t/(t + slack)` of a monitored key that has
/// combined `t` tuples since its install.
fn gamma(t: u64, slack: f64) -> f64 {
    t as f64 / (t as f64 + slack)
}

/// The `k` entries of `monitor` with the highest counts (ties in slot
/// order, so the answer is deterministic) and the coverage lower bound γ
/// of the weakest of them.
fn top_entries(monitor: &MisraGries<Key, Value>, k: usize) -> (Vec<TopEntry>, f64) {
    let mut entries: Vec<_> = monitor.iter().collect();
    entries.sort_by_key(|e| std::cmp::Reverse(e.count));
    entries.truncate(k);
    let slack = monitor.slack();
    let weakest = entries
        .iter()
        .map(|e| gamma(e.t, slack))
        .fold(1.0f64, f64::min);
    let top = entries
        .into_iter()
        .map(|e| TopEntry {
            key: e.key,
            count: e.count,
            state: e.state,
        })
        .collect();
    (top, weakest)
}

/// The monitor kind a checkpoint's flags record.
fn monitor_kind(flags: u64) -> MonitorKind {
    if flags & FLAG_SPACE_SAVING != 0 {
        MonitorKind::SpaceSaving
    } else {
        MonitorKind::Frequent
    }
}

/// Zips the monitor's checkpointed (key, state) slots with their counts
/// and true frequencies `t`.
fn monitor_entries(slots: Vec<Pair>, counts: &[u64], ts: &[u64]) -> Vec<MgEntry<Key, Value>> {
    slots
        .into_iter()
        .zip(counts.iter().zip(ts))
        .map(|(sp, (&count, &t))| MgEntry {
            key: sp.key,
            count,
            t,
            state: sp.value,
        })
        .collect()
}

/// Rebuilds the monitor a DINC-hash checkpoint holds from the sections
/// [`DincHashReducer::export_state`] writes, at the slot count `s` its
/// stats section records; `None` when the sections disagree.
fn checkpointed_monitor(ckpt: &ReducerCkpt) -> Option<MisraGries<Key, Value>> {
    let slots = ckpt.states.first()?;
    let [offered, counts, ts, stats, ..] = ckpt.nums.as_slice() else {
        return None;
    };
    let capacity = usize::try_from(*stats.first()?).ok().filter(|&s| s > 0)?;
    if counts.len() != slots.len() || ts.len() != slots.len() || slots.len() > capacity {
        return None;
    }
    Some(MisraGries::restore(
        monitor_kind(ckpt.flags),
        capacity,
        *offered.first()?,
        monitor_entries(slots.clone(), counts, ts),
    ))
}

/// [`ReduceSide::query`] on a DINC-hash checkpoint.
pub(super) fn checkpointed_query(ckpt: &ReducerCkpt, key: &Key) -> Option<Value> {
    checkpointed_monitor(ckpt)?.get(key).map(|e| e.state)
}

/// [`ReduceSide::top_entries`] on a DINC-hash checkpoint.
pub(super) fn checkpointed_top_entries(
    ckpt: &ReducerCkpt,
    k: usize,
) -> Option<(Vec<TopEntry>, f64)> {
    Some(top_entries(&checkpointed_monitor(ckpt)?, k))
}

/// One reduce task running the DINC-hash framework.
pub struct DincHashReducer<'j> {
    inc: Handle<'j, dyn IncrementalReducer + 'j>,
    family: HashFamily,
    h3: HashFn,
    monitor: MisraGries<Key, Value>,
    mem_budget: u64,
    write_buffer: u64,
    buckets: BucketManager,
    ctx: ReduceCtx,
    sink: OutputSink,
    /// Coverage threshold φ for approximate early termination (None =
    /// exact processing).
    early_stop_coverage: Option<f64>,
    stats: crate::metrics::DincStats,
    admission: AdmissionPolicy,
    /// Frequency sketch gating second-chance installs (`Some` iff the LFU
    /// admission policy is on). Touched on *every* arrival so estimates —
    /// and therefore admission decisions — are pure functions of the
    /// delivered tuple order.
    sketch: Option<FreqSketch>,
    adm: AdmissionStats,
    /// What a tuple whose key is monitored costs: one probe and one `cb()`.
    hit_charge: SimDuration,
}

impl<'j> DincHashReducer<'j> {
    /// Creates the reducer: `h` buckets per the `K·n_p/B` rule, monitor
    /// capacity `s` from the remaining memory and the state-size hint.
    pub fn new(
        job: JobRef<'j>,
        spec: &ClusterSpec,
        sizing: ReducerSizing,
        family: &HashFamily,
    ) -> Self {
        let inc = job.incremental().expect("checked by make_reducer").clone();
        let mem = spec.hardware.reduce_buffer;
        let write_buffer = spec.bucket_write_buffer;
        let h = sizing.bucket_count(mem, write_buffer);
        let monitor_mem = mem.saturating_sub(h as u64 * write_buffer).max(1);
        let entry = sizing.state_size.max(1) + SLOT_OVERHEAD;
        let s = ((monitor_mem / entry) as usize).max(1);
        let expected = (sizing.expected_keys as usize).clamp(64, 1 << 22);
        DincHashReducer {
            admission: sizing.admission,
            sketch: sizing
                .admission
                .is_on()
                .then(|| FreqSketch::with_capacity(expected)),
            adm: AdmissionStats::default(),
            hit_charge: spec.cost.cb_time(1) + spec.cost.hash_time(1),
            inc,
            family: family.clone(),
            h3: family.fn_at(2),
            monitor: MisraGries::with_kind(sizing.monitor, s),
            mem_budget: monitor_mem,
            write_buffer,
            buckets: BucketManager::new(h, write_buffer),
            ctx: ReduceCtx::new(),
            sink: OutputSink::new(),
            early_stop_coverage: sizing.early_stop_coverage,
            stats: crate::metrics::DincStats {
                slots_per_reducer: s as u64,
                ..Default::default()
            },
        }
    }

    /// Monitor slot capacity `s`.
    pub fn slots(&self) -> usize {
        self.monitor.capacity()
    }

    fn stage(&mut self, sp: Pair, env: &mut ReduceEnv<'_>) {
        let b = self.h3.bucket(sp.key.bytes(), self.buckets.num_buckets());
        env.spill(self.buckets.push(b, sp));
    }

    /// Runs the workload eviction hook on a displaced entry.
    fn handle_eviction(&mut self, key: Key, state: Value, env: &mut ReduceEnv<'_>) {
        let wm = self.ctx.watermark;
        match self.inc.evict(&key, state, wm, &mut self.ctx) {
            None => {
                // Fully output — the 0.1 GB-vs-370 GB headline lives here.
                self.stats.evict_output += 1;
                self.sink.push(&mut self.ctx, env);
            }
            Some(state) => {
                self.stats.evict_spilled += 1;
                self.stage(Pair::new(key, state), env);
            }
        }
    }

    /// Handles a [`MgOutcome::Rejected`] tuple. With the LFU admission
    /// policy on, the monitor gets a second chance: if the sketch says the
    /// newcomer is strictly hotter than the coldest evictable occupant,
    /// that occupant is displaced through the usual eviction hook and the
    /// newcomer takes its slot; a SpaceSaving monitor refuses it, its
    /// rejection being a veto of every occupant. Otherwise (and always
    /// when the policy is off) the tuple is staged to disk exactly as
    /// before. `fp` is the
    /// key's `h3` fingerprint, computed only when the sketch exists.
    fn reject_or_admit(
        &mut self,
        key: Key,
        state: Value,
        sp_size: u64,
        fp: Option<u64>,
        wm: Option<u64>,
        env: &mut ReduceEnv<'_>,
    ) {
        if let (Some(sketch), Some(fp)) = (self.sketch.as_ref(), fp) {
            let inc = &*self.inc;
            let h3 = &self.h3;
            let est_new = sketch.estimate(fp);
            let outcome = self.monitor.replace_min_guarded(key, state, |k, s| {
                inc.can_evict(k, s, wm) && sketch.estimate(h3.hash(k.bytes())) < est_new
            });
            match outcome {
                MgOutcome::Combined => unreachable!("rejected key is not monitored"),
                MgOutcome::Installed { evicted } => {
                    self.adm.absorbed += 1;
                    self.adm.admitted_evictions += 1;
                    env.absorbed(env.cost().hash_time(2));
                    if let Some(e) = evicted {
                        let victim_size = e.key.len() as u64
                            + e.state.len() as u64
                            + opa_common::types::RECORD_OVERHEAD;
                        let spilled_before = self.stats.evict_spilled;
                        self.handle_eviction(e.key, e.state, env);
                        if self.stats.evict_spilled > spilled_before {
                            self.adm.spill.admitted_evict += victim_size;
                        }
                    }
                    return;
                }
                MgOutcome::Rejected { key, state } => {
                    self.stats.rejected += 1;
                    self.adm.rejected += 1;
                    self.adm.spill.rejected_arrival += sp_size;
                    env.cpu(env.cost().hash_time(1));
                    return self.stage(Pair::new(key, state), env);
                }
            }
        }
        // Tuple staged to disk; re-absorbed during bucket processing.
        self.stats.rejected += 1;
        self.adm.rejected += 1;
        self.adm.spill.rejected_arrival += sp_size;
        env.cpu(env.cost().hash_time(1));
        self.stage(Pair::new(key, state), env);
    }
}

impl ReduceSide for DincHashReducer<'_> {
    fn deliver(&mut self, batch: RecordBatch, env: &mut ReduceEnv<'_>) {
        env.shuffled(batch.bytes());
        for sp in batch {
            if let Some(ts) = self.inc.event_time(&sp.value) {
                self.ctx.advance_watermark(ts);
            }
            let wm = self.ctx.watermark;
            let sp_size = sp.size();
            let Pair { key, value: state } = sp;
            self.adm.offered += 1;
            // Only the LFU gate reads the fingerprint.
            let h3 = &self.h3;
            let fp = self.sketch.as_mut().map(|sk| {
                let fp = h3.hash(key.bytes());
                sk.touch(fp);
                fp
            });
            let inc = &*self.inc;
            let ctx = &mut self.ctx;
            let outcome = self.monitor.offer_guarded(
                key,
                state,
                |k, acc, other| inc.cb(k, acc, other, ctx),
                |k, s| inc.can_evict(k, s, wm),
            );
            match outcome {
                MgOutcome::Combined => {
                    self.adm.absorbed += 1;
                    env.absorbed(self.hit_charge);
                    self.sink.push(&mut self.ctx, env);
                }
                MgOutcome::Installed { evicted } => {
                    self.adm.absorbed += 1;
                    env.absorbed(env.cost().hash_time(1));
                    if let Some(e) = evicted {
                        self.handle_eviction(e.key, e.state, env);
                    }
                }
                MgOutcome::Rejected { key, state } => {
                    self.reject_or_admit(key, state, sp_size, fp, wm, env);
                }
            }
        }
    }

    fn dinc_stats(&self) -> Option<crate::metrics::DincStats> {
        Some(self.stats)
    }

    fn admission_stats(&self) -> Option<AdmissionStats> {
        Some(self.adm)
    }

    fn complete(&mut self, env: &mut ReduceEnv<'_>) {
        env.span_open();
        self.stats.offered = self.monitor.offered();
        let entries = self.monitor.drain();
        self.adm.resident_keys = entries.len() as u64;
        self.adm.resident_frequency = entries.iter().map(|e| e.t).sum();

        // Approximate early termination (§4.3): finalize monitored keys
        // whose coverage lower bound γ = t/(t + slack) clears φ, skip the
        // disk-resident remainder entirely. φ = 1.0 demands full coverage,
        // which the bound can never certify while any slack remains — that
        // request is exact processing, handled below.
        if let Some(phi) = self.early_stop_coverage.filter(|&phi| phi < 1.0) {
            let slack = self.monitor.slack();
            let mut finalized = 0u64;
            for e in entries {
                if gamma(e.t, slack) >= phi {
                    self.inc.finalize(&e.key, e.state, &mut self.ctx);
                    finalized += 1;
                }
            }
            env.cpu(env.cost().reduce_time(finalized));
            self.sink.push(&mut self.ctx, env);
            self.sink.flush(env);
            env.span_close(SpanKind::Reduce);
            return;
        }

        // Exact completion: flush the monitor through the eviction hook.
        // The input is over, so every temporal construct (a session) is
        // closed by definition — advance the watermark past everything so
        // complete states go straight to output instead of disk.
        if self.ctx.watermark.is_some() {
            self.ctx.watermark = Some(u64::MAX);
        }
        for e in entries {
            self.handle_eviction(e.key, e.state, env);
        }

        // …then process staged buckets exactly like INC-hash.
        let mut pass = BucketPass {
            inc: &*self.inc,
            family: &self.family,
            mem_budget: self.mem_budget,
            write_buffer: self.write_buffer,
            ctx: &mut self.ctx,
            sink: &mut self.sink,
        };
        pass.run(&mut self.buckets, env);
        self.sink.flush(env);
        env.span_close(SpanKind::Reduce);
    }

    /// Sections: `states[0]` holds the monitor's (key, state) entries in
    /// slot order, `states[1..]` the staged buckets; `nums` holds
    /// `[offered]`, per-entry counts, per-entry true-frequencies `t`, the
    /// running [`crate::metrics::DincStats`], the running admission
    /// counters, and — when the LFU admission policy is on — the frequency
    /// sketch; `pairs` holds the pending output buffer, then pending
    /// context emissions. Monitor capacity is derived from the (identical)
    /// sizing on restore.
    fn export_state(&self) -> Result<ReducerCkpt> {
        let entries: Vec<_> = self.monitor.iter().collect();
        let mut states = vec![entries
            .iter()
            .map(|e| Pair::new(e.key.clone(), e.state.clone()))
            .collect::<Vec<_>>()];
        states.extend(self.buckets.export_contents());
        let mut nums = vec![
            vec![self.monitor.offered()],
            entries.iter().map(|e| e.count).collect(),
            entries.iter().map(|e| e.t).collect(),
            vec![
                self.stats.slots_per_reducer,
                self.stats.offered,
                self.stats.rejected,
                self.stats.evict_output,
                self.stats.evict_spilled,
            ],
            vec![
                self.adm.offered,
                self.adm.absorbed,
                self.adm.admitted_evictions,
                self.adm.rejected,
                self.adm.spill.admitted_evict,
                self.adm.spill.rejected_arrival,
            ],
        ];
        if let Some(sk) = &self.sketch {
            nums.push(sk.to_nums());
        }
        Ok(ReducerCkpt {
            tag: CKPT_TAG,
            flags: match self.monitor.kind() {
                MonitorKind::Frequent => 0,
                MonitorKind::SpaceSaving => FLAG_SPACE_SAVING,
            },
            watermark: self.ctx.watermark,
            nums,
            pairs: vec![self.sink.export_pending(), self.ctx.export_pending()],
            states,
        })
    }

    fn import_state(&mut self, ckpt: ReducerCkpt) -> Result<()> {
        if ckpt.tag != CKPT_TAG {
            return Err(Error::job(format!(
                "checkpoint tag {} is not DINC-hash ({CKPT_TAG})",
                ckpt.tag
            )));
        }
        let mut states = ckpt.states;
        if states.len() != self.buckets.num_buckets() + 1 {
            return Err(Error::job(
                "DINC-hash checkpoint bucket count mismatch — restore requires \
                 the same cluster spec and sizing hints as the original run",
            ));
        }
        let monitored = states.remove(0);
        let mut nums = ckpt.nums.into_iter();
        let mut section = |name: &str| {
            nums.next()
                .ok_or_else(|| Error::job(format!("DINC-hash checkpoint missing {name} section")))
        };
        let offered = section("offered")?;
        let counts = section("counts")?;
        let ts = section("frequencies")?;
        let stats = section("stats")?;
        let adm = section("admission counters")?;
        let sketch_nums = nums.next();
        if counts.len() != monitored.len() || ts.len() != monitored.len() {
            return Err(Error::job("DINC-hash checkpoint monitor sections disagree"));
        }
        let [slots, st_offered, rejected, evict_output, evict_spilled] =
            <[u64; 5]>::try_from(stats)
                .map_err(|_| Error::job("DINC-hash checkpoint stats section malformed"))?;
        let [adm_offered, adm_absorbed, adm_evictions, adm_rejected, adm_spill_evict, adm_spill_rej] =
            <[u64; 6]>::try_from(adm)
                .map_err(|_| Error::job("DINC-hash checkpoint admission section malformed"))?;
        self.sketch = match (self.admission.is_on(), sketch_nums) {
            (true, Some(nums)) => Some(FreqSketch::from_nums(&nums)?),
            (true, None) => {
                return Err(Error::job(
                    "DINC-hash checkpoint has no frequency sketch but the LFU \
                     admission policy is on — restore with the same --admission \
                     setting the checkpoint was written under",
                ));
            }
            (false, _) => None,
        };
        self.adm = AdmissionStats {
            offered: adm_offered,
            absorbed: adm_absorbed,
            admitted_evictions: adm_evictions,
            rejected: adm_rejected,
            spill: opa_simio::SpillSplit {
                admitted_evict: adm_spill_evict,
                rejected_arrival: adm_spill_rej,
            },
            resident_keys: 0,
            resident_frequency: 0,
        };
        let capacity = self.monitor.capacity();
        if monitored.len() > capacity {
            return Err(Error::job(format!(
                "DINC-hash checkpoint holds {} monitor entries but the \
                 restored reducer has only {capacity} slots — restore \
                 requires the same cluster spec and sizing hints",
                monitored.len()
            )));
        }
        self.monitor = MisraGries::restore(
            monitor_kind(ckpt.flags),
            capacity,
            offered.first().copied().unwrap_or(0),
            monitor_entries(monitored, &counts, &ts),
        );
        let [sink_pending, ctx_pending] = <[Vec<Pair>; 2]>::try_from(ckpt.pairs)
            .map_err(|_| Error::job("DINC-hash checkpoint missing output sections"))?;
        self.buckets.restore_contents(states);
        self.sink.restore_pending(sink_pending);
        self.ctx.restore_pending(ctx_pending);
        self.ctx.watermark = ckpt.watermark;
        self.stats = crate::metrics::DincStats {
            slots_per_reducer: slots,
            offered: st_offered,
            rejected,
            evict_output,
            evict_spilled,
        };
        Ok(())
    }

    fn query(&self, key: &Key) -> Option<Value> {
        self.monitor.get(key).map(|e| e.state)
    }

    fn top_entries(&self, k: usize) -> Option<(Vec<TopEntry>, f64)> {
        Some(top_entries(&self.monitor, k))
    }

    fn watermark(&self) -> Option<u64> {
        self.ctx.watermark
    }
}
