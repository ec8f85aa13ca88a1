//! INC-hash: the incremental hash technique (§4.2).
//!
//! The reducer keeps an in-memory table `H` from key to the state of the
//! computation. A tuple whose key is in `H` is collapsed immediately with
//! `cb()` — no I/O, ever, and any early output (a closed session, a counter
//! crossing a threshold) flows straight to HDFS, which is why INC-hash
//! reduce progress can track map progress. A tuple whose key is absent is
//! admitted while memory lasts and staged to an `h3` bucket afterwards;
//! staged buckets are processed one at a time after the input ends.
//!
//! Key invariant (and the reason INC-hash output is exact even for
//! order-sensitive jobs like sessionization): a key is either resident in
//! `H` from its first appearance, or *all* of its tuples go to the same
//! bucket — a key's data is never split between memory and disk.

use super::{OutputSink, ReduceEnv, ReduceSide, ReducerCkpt, ReducerSizing, WORK_BATCH};
use crate::api::{IncrementalReducer, Job, ReduceCtx};
use crate::cluster::ClusterSpec;
use crate::map_phase::Payload;
use crate::metrics::AdmissionStats;
use crate::sim::OpKind;
use opa_common::units::SimTime;
use opa_common::{
    AdmissionPolicy, Error, FreqSketch, GroupIndex, HashFamily, HashFn, Key, KeyFilter, Result,
    StatePair, Value,
};
use opa_simio::BucketManager;

/// [`ReducerCkpt::tag`] of the INC-hash framework.
pub(crate) const CKPT_TAG: u8 = 3;

/// [`ReducerCkpt::flags`] bit: admissions were closed by a memory overflow.
const FLAG_ADMISSIONS_CLOSED: u64 = 1;

/// Per-entry bookkeeping overhead charged against the memory budget
/// (hash-table slot, indices), mirroring the byte-array memory managers of
/// the prototype (§5).
const ENTRY_OVERHEAD: u64 = 16;

/// Recursion ceiling for pathological bucket skew.
const MAX_DEPTH: usize = 6;

/// How many resident keys the LFU victim scan examines per table-full
/// arrival. A small constant keeps the gate O(1) while the rotating
/// cursor guarantees every resident is eventually considered.
const VICTIM_PROBES: usize = 4;

/// One reduce task running the INC-hash framework.
pub struct IncHashReducer<'j> {
    inc: &'j dyn IncrementalReducer,
    family: HashFamily,
    /// Partitioning function — its fingerprints arrive cached in every
    /// delivered batch and double as the table-probe hash.
    h1: HashFn,
    h3: HashFn,
    /// Insertion-ordered key→state table (`H`).
    states: Vec<(Key, Value)>,
    /// Tuples combined into each resident row (parallel to `states`);
    /// summed at finish into the resident-frequency statistic.
    counts: Vec<u64>,
    index: GroupIndex,
    mem_used: u64,
    mem_budget: u64,
    write_buffer: u64,
    buckets: BucketManager<StatePair>,
    ctx: ReduceCtx,
    sink: OutputSink,
    /// Tuples absorbed in memory during the streaming phase.
    absorbed: u64,
    /// Set on the first rejection: no further keys are admitted even if
    /// draining states later frees memory. A key admitted after one of its
    /// tuples spilled would be split between memory and disk, breaking the
    /// module invariant ("the keys chosen for in-memory processing are
    /// just the first keys observed" — paper §4.3). Only consulted under
    /// [`AdmissionPolicy::Off`]; the LFU gate replaces it with the
    /// spilled-key filter below.
    admissions_closed: bool,
    /// Which admission policy gates table-full arrivals.
    admission: AdmissionPolicy,
    /// Frequency sketch over `h1` fingerprints (LFU policy only). Touched
    /// on *every* arrival, so its state is a pure function of the
    /// reducer's delivered tuple order.
    sketch: Option<FreqSketch>,
    /// Keys that ever spilled a tuple or were evicted (LFU policy only).
    /// Membership denies admission: a resident key is thereby guaranteed
    /// to have no bytes on disk, preserving the never-split invariant
    /// that makes direct finalization exact.
    filter: Option<KeyFilter>,
    /// Rotating start position of the deterministic victim scan.
    victim_cursor: u64,
    /// Admission counters (populated for both policies; the eviction
    /// fields stay zero under [`AdmissionPolicy::Off`]).
    stats: AdmissionStats,
}

impl<'j> IncHashReducer<'j> {
    /// Creates the reducer; the bucket fan-out follows the paper's
    /// `h = K·n_p/B` sizing so each staged bucket's keys fit in memory.
    pub fn new(
        job: &'j dyn Job,
        spec: &ClusterSpec,
        sizing: ReducerSizing,
        family: &HashFamily,
    ) -> Self {
        let inc = job.incremental().expect("checked by make_reducer");
        let mem = spec.hardware.reduce_buffer;
        let write_buffer = spec.bucket_write_buffer;
        let h = sizing.bucket_count(mem, write_buffer);
        let mem_budget = mem.saturating_sub(h as u64 * write_buffer).max(1);
        let admission = sizing.admission;
        let expected = (sizing.expected_keys as usize).clamp(64, 1 << 22);
        IncHashReducer {
            inc,
            family: family.clone(),
            h1: family.fn_at(0),
            h3: family.fn_at(2),
            states: Vec::new(),
            counts: Vec::new(),
            index: GroupIndex::default(),
            mem_used: 0,
            mem_budget,
            write_buffer,
            buckets: BucketManager::new(h, write_buffer),
            ctx: ReduceCtx::new(),
            sink: OutputSink::new(),
            absorbed: 0,
            admissions_closed: false,
            admission,
            sketch: admission
                .is_on()
                .then(|| FreqSketch::with_capacity(expected)),
            filter: admission
                .is_on()
                .then(|| KeyFilter::with_capacity(expected)),
            victim_cursor: 0,
            stats: AdmissionStats::default(),
        }
    }

    /// Streams one tuple through the table, probing with the batch-carried
    /// `h1` fingerprint when the shuffle delivered one (re-hashing only
    /// for restored tuples whose cache was dropped). Returns the advanced
    /// clock.
    fn absorb(
        &mut self,
        mut t: SimTime,
        sp: StatePair,
        hash: Option<u64>,
        env: &mut ReduceEnv<'_>,
    ) -> SimTime {
        if let Some(ts) = self.inc.event_time(&sp.state) {
            self.ctx.advance_watermark(ts);
        }
        let h = hash.unwrap_or_else(|| self.h1.hash(sp.key.bytes()));
        self.stats.offered += 1;
        if let Some(sketch) = &mut self.sketch {
            // Every arrival is recorded, hit or miss, so the sketch is a
            // pure function of the delivered tuple order.
            sketch.touch(h);
        }
        match self.index.get(h, |r| self.states[r].0 == sp.key) {
            Some(i) => {
                let (ref key, ref mut acc) = self.states[i];
                let before = self.inc.state_mem_size(acc);
                self.inc.cb(key, acc, sp.state, &mut self.ctx);
                let after = self.inc.state_mem_size(acc);
                self.mem_used = adjust(self.mem_used, before, after);
                self.counts[i] += 1;
                t = env.cpu(t, env.cost().cb_time(1) + env.cost().hash_time(1));
                self.absorbed += 1;
                self.stats.absorbed += 1;
                env.worked(t, 1);
                if self.ctx.pending() > 0 {
                    t = self.sink.push(t, &mut self.ctx, env);
                }
            }
            None if self.admission.is_on() => {
                t = self.absorb_miss_lfu(t, sp, h, env);
            }
            None => {
                let sz = sp.key.len() as u64 + self.inc.state_mem_size(&sp.state) + ENTRY_OVERHEAD;
                if !self.admissions_closed && self.mem_used + sz <= self.mem_budget {
                    self.mem_used += sz;
                    self.index.insert(h, self.states.len());
                    self.states.push((sp.key, sp.state));
                    self.counts.push(1);
                    t = env.cpu(t, env.cost().hash_time(1));
                    self.absorbed += 1;
                    self.stats.absorbed += 1;
                    env.worked(t, 1);
                } else {
                    self.admissions_closed = true;
                    self.stats.rejected += 1;
                    self.stats.spill.rejected_arrival += sp.size();
                    let b = self.h3.bucket(sp.key.bytes(), self.buckets.num_buckets());
                    let op = self.buckets.push(b, sp);
                    t = env.spill(t, op);
                }
            }
        }
        t
    }

    /// Table-miss handling under the LFU policy: admit clean keys while
    /// memory lasts, otherwise either evict a colder resident (staging its
    /// state through the normal spill path) or spill the arrival.
    ///
    /// Exactness: only keys absent from [`IncHashReducer::filter`] are
    /// ever admitted, so every resident key at `finish` has *all* of its
    /// data in memory (the never-split invariant); an evicted or rejected
    /// key's bytes all meet in its `h3` bucket, where `process_bucket`
    /// re-combines them in arrival order.
    fn absorb_miss_lfu(
        &mut self,
        mut t: SimTime,
        sp: StatePair,
        h: u64,
        env: &mut ReduceEnv<'_>,
    ) -> SimTime {
        let sz = sp.key.len() as u64 + self.inc.state_mem_size(&sp.state) + ENTRY_OVERHEAD;
        let clean = !self
            .filter
            .as_ref()
            .expect("LFU policy allocates the filter")
            .contains(h);
        if clean && self.mem_used + sz <= self.mem_budget {
            // Unlike first-come, a clean key may be admitted even after
            // earlier rejections — draining sessions can free memory.
            self.mem_used += sz;
            self.index.insert(h, self.states.len());
            self.states.push((sp.key, sp.state));
            self.counts.push(1);
            t = env.cpu(t, env.cost().hash_time(1));
            self.absorbed += 1;
            self.stats.absorbed += 1;
            env.worked(t, 1);
            return t;
        }
        if clean {
            if let Some(vi) = self.pick_victim(h, sz) {
                return self.evict_and_admit(t, sp, h, vi, env);
            }
        }
        // Rejected arrival: remember the key so it is never admitted
        // later, then spill to its bucket exactly as first-come would.
        self.filter
            .as_mut()
            .expect("LFU policy allocates the filter")
            .insert(h);
        self.stats.rejected += 1;
        self.stats.spill.rejected_arrival += sp.size();
        let b = self.h3.bucket(sp.key.bytes(), self.buckets.num_buckets());
        let op = self.buckets.push(b, sp);
        env.spill(t, op)
    }

    /// Deterministic victim scan: examine up to [`VICTIM_PROBES`] resident
    /// rows starting at the rotating cursor and return the coldest one —
    /// provided the arriving key's sketch estimate strictly exceeds the
    /// victim's and the swap frees enough memory. Pure function of
    /// (resident table, sketch, cursor), all of which are themselves pure
    /// functions of the delivered tuple order.
    fn pick_victim(&mut self, h: u64, incoming_sz: u64) -> Option<usize> {
        let n = self.states.len();
        if n == 0 {
            return None;
        }
        let sketch = self
            .sketch
            .as_ref()
            .expect("LFU policy allocates the sketch");
        let start = (self.victim_cursor % n as u64) as usize;
        self.victim_cursor = self.victim_cursor.wrapping_add(VICTIM_PROBES as u64);
        let mut best: Option<(usize, u32)> = None;
        for probe in 0..VICTIM_PROBES.min(n) {
            let i = (start + probe) % n;
            let est = sketch.estimate(self.h1.hash(self.states[i].0.bytes()));
            if best.is_none_or(|(_, b)| est < b) {
                best = Some((i, est));
            }
        }
        let (vi, vest) = best?;
        if sketch.estimate(h) <= vest {
            return None;
        }
        let (vkey, vstate) = &self.states[vi];
        let vsz = vkey.len() as u64 + self.inc.state_mem_size(vstate) + ENTRY_OVERHEAD;
        (self.mem_used - vsz + incoming_sz <= self.mem_budget).then_some(vi)
    }

    /// Evicts resident row `vi` through the existing spill path and
    /// installs the arriving key in its place. The table stays dense via
    /// `swap_remove` + index `reindex`, keeping row order (and therefore
    /// finalize order, seal order and every downstream byte) a pure
    /// function of the delivered tuple order.
    fn evict_and_admit(
        &mut self,
        mut t: SimTime,
        sp: StatePair,
        h: u64,
        vi: usize,
        env: &mut ReduceEnv<'_>,
    ) -> SimTime {
        let vh = self.h1.hash(self.states[vi].0.bytes());
        let last = self.states.len() - 1;
        self.index.remove(vh, vi);
        let (vkey, vstate) = self.states.swap_remove(vi);
        self.counts.swap_remove(vi);
        if vi < self.states.len() {
            let mh = self.h1.hash(self.states[vi].0.bytes());
            self.index.reindex(mh, last, vi);
        }
        let vsz = vkey.len() as u64 + self.inc.state_mem_size(&vstate) + ENTRY_OVERHEAD;
        self.mem_used = self.mem_used.saturating_sub(vsz);
        // The victim is now a disk key forever: its partial state goes to
        // its h3 bucket first, and every later tuple of the same key will
        // be rejected (filter) into the same bucket, preserving arrival
        // order for order-sensitive combines.
        self.filter
            .as_mut()
            .expect("LFU policy allocates the filter")
            .insert(vh);
        let victim = StatePair::new(vkey, vstate);
        self.stats.admitted_evictions += 1;
        self.stats.spill.admitted_evict += victim.size();
        let b = self
            .h3
            .bucket(victim.key.bytes(), self.buckets.num_buckets());
        let op = self.buckets.push(b, victim);
        t = env.spill(t, op);
        // Install the (hotter) newcomer.
        let sz = sp.key.len() as u64 + self.inc.state_mem_size(&sp.state) + ENTRY_OVERHEAD;
        self.mem_used += sz;
        self.index.insert(h, self.states.len());
        self.states.push((sp.key, sp.state));
        self.counts.push(1);
        t = env.cpu(t, env.cost().hash_time(2));
        self.absorbed += 1;
        self.stats.absorbed += 1;
        env.worked(t, 1);
        t
    }

    /// Processes one staged bucket with a fresh in-memory table,
    /// recursively re-partitioning if even the bucket's distinct keys
    /// exceed memory.
    fn process_bucket(
        &mut self,
        mut t: SimTime,
        tuples: Vec<StatePair>,
        depth: usize,
        env: &mut ReduceEnv<'_>,
    ) -> SimTime {
        // Replay the bucket under its own watermark: the file preserves
        // arrival order, so advancing the watermark from the replayed
        // tuples reproduces the original bounded disorder. Reusing the
        // end-of-stream watermark would defeat the reorder buffering of
        // order-sensitive jobs (sessionization).
        let saved_watermark = self.ctx.watermark;
        self.ctx.watermark = None;
        let mut states: Vec<(Key, Value)> = Vec::new();
        let mut index = GroupIndex::with_capacity(tuples.len() / 4 + 1);
        let mut used = 0u64;
        let mut overflow: Vec<StatePair> = Vec::new();
        let mut overflow_started = false;
        let mut batch = 0u64;
        for sp in tuples {
            if let Some(ts) = self.inc.event_time(&sp.state) {
                self.ctx.advance_watermark(ts);
            }
            let h = self.h1.hash(sp.key.bytes());
            match index.get(h, |r| states[r].0 == sp.key) {
                Some(i) => {
                    let (ref key, ref mut acc) = states[i];
                    let before = self.inc.state_mem_size(acc);
                    self.inc.cb(key, acc, sp.state, &mut self.ctx);
                    let after = self.inc.state_mem_size(acc);
                    used = adjust(used, before, after);
                    batch += 1;
                }
                None => {
                    let sz =
                        sp.key.len() as u64 + self.inc.state_mem_size(&sp.state) + ENTRY_OVERHEAD;
                    if (!overflow_started && used + sz <= self.mem_budget) || depth >= MAX_DEPTH {
                        used += sz;
                        index.insert(h, states.len());
                        states.push((sp.key, sp.state));
                        batch += 1;
                    } else {
                        overflow_started = true;
                        overflow.push(sp);
                    }
                }
            }
            if batch >= WORK_BATCH {
                t = env.cpu(
                    t,
                    env.cost().hash_time(batch) + env.cost().cb_time(batch / 2),
                );
                env.worked(t, batch);
                batch = 0;
                if self.ctx.pending() > 0 {
                    t = self.sink.push(t, &mut self.ctx, env);
                }
            }
        }
        if batch > 0 {
            t = env.cpu(
                t,
                env.cost().hash_time(batch) + env.cost().cb_time(batch / 2),
            );
            env.worked(t, batch);
        }
        // Finalize this bucket's resident keys.
        let resident = states.len() as u64;
        for (key, state) in states {
            self.inc.finalize(&key, state, &mut self.ctx);
        }
        t = env.cpu(t, env.cost().reduce_time(resident));
        t = self.sink.push(t, &mut self.ctx, env);

        // Overflow keys (key set larger than memory): stage again with the
        // next hash function and recurse.
        if !overflow.is_empty() {
            let h = self.family.fn_at(depth + 1);
            let bytes: u64 = overflow.iter().map(StatePair::size).sum();
            let fan = ((bytes as f64 / (self.mem_budget as f64 * 0.8)).ceil() as usize).max(2);
            let mut sub: BucketManager<StatePair> = BucketManager::new(fan, self.write_buffer);
            for sp in overflow {
                let b = h.bucket(sp.key.bytes(), fan);
                let op = sub.push(b, sp);
                t = env.spill(t, op);
            }
            let op = sub.seal();
            t = env.spill(t, op);
            for b in 0..fan {
                let (recs, op) = sub.take_bucket(b);
                t = env.spill(t, op);
                if !recs.is_empty() {
                    t = self.process_bucket(t, recs, depth + 1, env);
                }
            }
        }
        self.ctx.watermark = match (saved_watermark, self.ctx.watermark) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        t
    }
}

/// Adjusts a memory-usage counter by the signed size change of a state.
fn adjust(used: u64, before: u64, after: u64) -> u64 {
    (used + after).saturating_sub(before)
}

impl ReduceSide for IncHashReducer<'_> {
    fn on_delivery(
        &mut self,
        mut t: SimTime,
        payload: Payload,
        env: &mut ReduceEnv<'_>,
    ) -> SimTime {
        let Payload::States(batch) = payload else {
            unreachable!("INC-hash receives key-state pairs");
        };
        env.shuffled(t, batch.bytes());
        let (tuples, hashes) = batch.into_parts();
        let mut hashes = hashes.into_iter();
        for sp in tuples {
            let h = hashes.next();
            t = self.absorb(t, sp, h, env);
        }
        t
    }

    fn finish(&mut self, mut t: SimTime, env: &mut ReduceEnv<'_>) -> SimTime {
        env.span_open();
        // Finalize every memory-resident key (their data is complete —
        // see the module invariant).
        let states = std::mem::take(&mut self.states);
        self.stats.resident_keys = states.len() as u64;
        self.stats.resident_frequency = self.counts.drain(..).sum();
        self.index.clear();
        self.mem_used = 0;
        let n = states.len() as u64;
        for (key, state) in states {
            self.inc.finalize(&key, state, &mut self.ctx);
        }
        t = env.cpu(t, env.cost().reduce_time(n));
        t = self.sink.push(t, &mut self.ctx, env);

        // Staged buckets, one at a time.
        let op = self.buckets.seal();
        t = env.spill(t, op);
        for b in 0..self.buckets.num_buckets() {
            let (recs, op) = self.buckets.take_bucket(b);
            t = env.spill(t, op);
            if !recs.is_empty() {
                t = self.process_bucket(t, recs, 3, env);
            }
        }
        t = self.sink.flush(t, env);
        env.span_close(OpKind::Reduce);
        t
    }

    /// Sections: `states` holds the resident table `H` (insertion order —
    /// restore must preserve it, finalize order shapes the output), then
    /// one section per staged bucket; `pairs` holds the pending output
    /// buffer, then any pending context emissions. Numeric sections:
    /// `nums[0] = [absorbed]`, `nums[1]` the admission counters,
    /// `nums[2]` the per-resident combine counts, and — LFU policy only —
    /// `nums[3]`/`nums[4]` the frequency-sketch and spilled-key-filter
    /// images, so a restored reducer makes bit-identical admission
    /// decisions from the checkpoint onward.
    fn export_state(&self) -> Result<ReducerCkpt> {
        let mut states = vec![self
            .states
            .iter()
            .map(|(k, v)| StatePair::new(k.clone(), v.clone()))
            .collect::<Vec<_>>()];
        states.extend(self.buckets.export_contents());
        let mut nums = vec![
            vec![self.absorbed],
            vec![
                self.stats.offered,
                self.stats.absorbed,
                self.stats.admitted_evictions,
                self.stats.rejected,
                self.stats.spill.admitted_evict,
                self.stats.spill.rejected_arrival,
                self.victim_cursor,
            ],
            self.counts.clone(),
        ];
        if let (Some(sketch), Some(filter)) = (&self.sketch, &self.filter) {
            nums.push(sketch.to_nums());
            nums.push(filter.to_nums());
        }
        Ok(ReducerCkpt {
            tag: CKPT_TAG,
            flags: if self.admissions_closed {
                FLAG_ADMISSIONS_CLOSED
            } else {
                0
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
                "checkpoint tag {} is not INC-hash ({CKPT_TAG})",
                ckpt.tag
            )));
        }
        let mut sections = ckpt.states;
        if sections.len() != self.buckets.num_buckets() + 1 {
            return Err(Error::job(
                "INC-hash checkpoint bucket count mismatch — restore requires \
                 the same cluster spec and sizing hints as the original run",
            ));
        }
        let resident = sections.remove(0);
        let [sink_pending, ctx_pending] = <[Vec<opa_common::Pair>; 2]>::try_from(ckpt.pairs)
            .map_err(|_| Error::job("INC-hash checkpoint missing output sections"))?;
        self.states = Vec::with_capacity(resident.len());
        self.index = GroupIndex::with_capacity(resident.len());
        self.mem_used = 0;
        for sp in resident {
            self.mem_used +=
                sp.key.len() as u64 + self.inc.state_mem_size(&sp.state) + ENTRY_OVERHEAD;
            self.index
                .insert(self.h1.hash(sp.key.bytes()), self.states.len());
            self.states.push((sp.key, sp.state));
        }
        self.buckets.restore_contents(sections);
        self.sink.restore_pending(sink_pending);
        self.ctx.restore_pending(ctx_pending);
        self.ctx.watermark = ckpt.watermark;
        let mut nums = ckpt.nums.into_iter();
        self.absorbed = nums.next().and_then(|n| n.first().copied()).unwrap_or(0);
        if let Some(counters) = nums.next() {
            let [offered, absorbed, evictions, rejected, sp_evict, sp_rej, cursor] =
                <[u64; 7]>::try_from(counters).map_err(|_| {
                    Error::job("INC-hash checkpoint admission-counter section malformed")
                })?;
            self.stats.offered = offered;
            self.stats.absorbed = absorbed;
            self.stats.admitted_evictions = evictions;
            self.stats.rejected = rejected;
            self.stats.spill.admitted_evict = sp_evict;
            self.stats.spill.rejected_arrival = sp_rej;
            self.victim_cursor = cursor;
        }
        let counts = nums.next().unwrap_or_default();
        if counts.len() != self.states.len() {
            return Err(Error::job(
                "INC-hash checkpoint combine-count section disagrees with the resident table",
            ));
        }
        self.counts = counts;
        if self.admission.is_on() {
            let (Some(sketch), Some(filter)) = (nums.next(), nums.next()) else {
                return Err(Error::job(
                    "INC-hash checkpoint lacks admission sketch sections — it was \
                     written with a different --admission setting",
                ));
            };
            self.sketch = Some(FreqSketch::from_nums(&sketch)?);
            self.filter = Some(KeyFilter::from_nums(&filter)?);
        }
        self.admissions_closed = ckpt.flags & FLAG_ADMISSIONS_CLOSED != 0;
        Ok(())
    }

    fn query(&self, key: &Key) -> Option<Value> {
        let h = self.h1.hash(key.bytes());
        self.index
            .get(h, |r| self.states[r].0 == *key)
            .map(|i| self.states[i].1.clone())
    }

    /// Populated for both policies — the off-policy numbers are what the
    /// admission tests compare an LFU run against (γ, resident
    /// frequency); the eviction fields stay zero when the policy is off.
    fn admission_stats(&self) -> Option<AdmissionStats> {
        Some(self.stats)
    }

    fn watermark(&self) -> Option<u64> {
        self.ctx.watermark
    }
}
