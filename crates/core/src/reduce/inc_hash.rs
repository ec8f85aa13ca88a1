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

use super::buckets::BucketPass;
use super::{OutputSink, ReduceEnv, ReduceSide, ReducerCkpt, ReducerSizing};
use crate::api::{Handle, IncrementalReducer, JobRef, ReduceCtx};
use crate::cluster::ClusterSpec;
use crate::metrics::AdmissionStats;
use crate::resident::{cb_sized, colder_resident, entry_size};
use opa_common::units::SimDuration;
use opa_common::{
    AdmissionPolicy, Error, FreqSketch, GroupTable, HashFamily, HashFn, Key, KeyFilter, Pair,
    RecordBatch, Result, Value,
};
use opa_simio::BucketManager;
use opa_trace::SpanKind;

/// [`ReducerCkpt::tag`] of the INC-hash framework.
pub(crate) const CKPT_TAG: u8 = 3;

/// [`ReducerCkpt::flags`] bit: admissions were closed by a memory overflow.
const FLAG_ADMISSIONS_CLOSED: u64 = 1;

/// [`ReduceSide::query`] on an INC-hash checkpoint: `states[0]` is the
/// resident table `H`.
pub(super) fn checkpointed_query(ckpt: &ReducerCkpt, key: &Key) -> Option<Value> {
    let table = ckpt.states.first()?;
    table
        .iter()
        .find(|sp| &sp.key == key)
        .map(|sp| sp.value.clone())
}

/// One reduce task running the INC-hash framework.
pub struct IncHashReducer<'j> {
    inc: Handle<'j, dyn IncrementalReducer + 'j>,
    family: HashFamily,
    /// Partitioning function — its fingerprints arrive cached in every
    /// delivered batch and double as the table-probe hash.
    h1: HashFn,
    h3: HashFn,
    /// The table `H`: key → (state, tuples combined into it — summed at
    /// finish into the resident-frequency statistic).
    table: GroupTable<(Value, u64)>,
    mem_used: u64,
    mem_budget: u64,
    write_buffer: u64,
    buckets: BucketManager,
    ctx: ReduceCtx,
    sink: OutputSink,
    /// Tuples absorbed in memory during the streaming phase.
    absorbed: u64,
    /// What a tuple whose key is resident costs: one probe and one `cb()`.
    hit_charge: SimDuration,
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
        job: JobRef<'j>,
        spec: &ClusterSpec,
        sizing: ReducerSizing,
        family: &HashFamily,
    ) -> Self {
        let inc = job.incremental().expect("checked by make_reducer").clone();
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
            table: GroupTable::default(),
            mem_used: 0,
            mem_budget,
            write_buffer,
            buckets: BucketManager::new(h, write_buffer),
            ctx: ReduceCtx::new(),
            sink: OutputSink::new(),
            absorbed: 0,
            hit_charge: spec.cost.cb_time(1) + spec.cost.hash_time(1),
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
    /// for restored tuples whose cache was dropped).
    fn absorb(&mut self, sp: Pair, hash: Option<u64>, env: &mut ReduceEnv<'_>) {
        if let Some(ts) = self.inc.event_time(&sp.value) {
            self.ctx.advance_watermark(ts);
        }
        let h = hash.unwrap_or_else(|| self.h1.hash(sp.key.bytes()));
        self.stats.offered += 1;
        if let Some(sketch) = &mut self.sketch {
            // Every arrival is recorded, hit or miss, so the sketch is a
            // pure function of the delivered tuple order.
            sketch.touch(h);
        }
        match self.table.find(h, &sp.key) {
            Some(i) => {
                let (key, (acc, count)) = self.table.row_mut(i);
                cb_sized(
                    &*self.inc,
                    key,
                    acc,
                    sp.value,
                    &mut self.ctx,
                    &mut self.mem_used,
                );
                *count += 1;
                env.absorbed(self.hit_charge);
                self.absorbed += 1;
                self.stats.absorbed += 1;
                self.sink.push(&mut self.ctx, env);
            }
            None if self.admission.is_on() => self.absorb_miss_lfu(sp, h, env),
            // Closed admissions never reopen, so the arrival needs no size.
            None if self.admissions_closed => self.reject(sp, env),
            None => {
                let sz = entry_size(&*self.inc, &sp.key, &sp.value);
                if self.mem_used + sz <= self.mem_budget {
                    self.admit(sp, h, sz, 1, env);
                } else {
                    self.admissions_closed = true;
                    self.reject(sp, env);
                }
            }
        }
    }

    /// Installs an arriving key of `sz` bytes as resident, charging
    /// `probes` table operations (two when an eviction made the room).
    fn admit(&mut self, sp: Pair, h: u64, sz: u64, probes: u64, env: &mut ReduceEnv<'_>) {
        self.mem_used += sz;
        self.table.push(h, sp.key, (sp.value, 1));
        self.absorbed += 1;
        self.stats.absorbed += 1;
        env.absorbed(env.cost().hash_time(probes));
    }

    /// Stages an arrival that was denied admission to its `h3` bucket.
    fn reject(&mut self, sp: Pair, env: &mut ReduceEnv<'_>) {
        self.stats.rejected += 1;
        self.stats.spill.rejected_arrival += sp.size();
        self.stage(sp, env);
    }

    fn stage(&mut self, sp: Pair, env: &mut ReduceEnv<'_>) {
        let b = self.h3.bucket(sp.key.bytes(), self.buckets.num_buckets());
        env.spill(self.buckets.push(b, sp));
    }

    /// Table-miss handling under the LFU policy: admit clean keys while
    /// memory lasts, otherwise either evict a colder resident (staging its
    /// state through the normal spill path) or spill the arrival.
    ///
    /// Exactness: only keys absent from [`IncHashReducer::filter`] are
    /// ever admitted, so every resident key at `finish` has *all* of its
    /// data in memory (the never-split invariant); an evicted or rejected
    /// key's bytes all meet in its `h3` bucket, where the bucket pass
    /// re-combines them in arrival order.
    fn absorb_miss_lfu(&mut self, sp: Pair, h: u64, env: &mut ReduceEnv<'_>) {
        const ALLOCATED: &str = "LFU policy allocates the sketch and the filter";
        let sz = entry_size(&*self.inc, &sp.key, &sp.value);
        let clean = !self.filter.as_ref().expect(ALLOCATED).contains(h);
        if clean && self.mem_used + sz <= self.mem_budget {
            // Unlike first-come, a clean key may be admitted even after
            // earlier rejections — draining sessions can free memory.
            return self.admit(sp, h, sz, 1, env);
        }
        // A strictly colder resident makes way — if the newcomer fits the
        // budget in its place (the one condition the map-side gate, which
        // ships what it displaces, does not have).
        let sketch = self.sketch.as_ref().expect(ALLOCATED);
        let victim = clean
            .then(|| colder_resident(&self.table, &mut self.victim_cursor, sketch, h))
            .flatten()
            .filter(|&vi| {
                let (vkey, (vstate, _)) = self.table.row(vi);
                self.mem_used - entry_size(&*self.inc, vkey, vstate) + sz <= self.mem_budget
            });
        let filter = self.filter.as_mut().expect(ALLOCATED);
        let Some(vi) = victim else {
            // Rejected arrival: remember the key so it is never admitted
            // later, then spill to its bucket exactly as first-come would.
            filter.insert(h);
            return self.reject(sp, env);
        };
        // The victim is now a disk key forever: its partial state goes to
        // its h3 bucket first, and every later tuple of the same key will
        // be rejected (filter) into the same bucket, preserving arrival
        // order for order-sensitive combines. Row order after the removal
        // (and with it finalize order, seal order and every downstream
        // byte) stays a pure function of the delivered tuple order.
        let (vh, vkey, (vstate, _)) = self.table.swap_remove(vi);
        filter.insert(vh);
        self.mem_used = self
            .mem_used
            .saturating_sub(entry_size(&*self.inc, &vkey, &vstate));
        let victim = Pair::new(vkey, vstate);
        self.stats.admitted_evictions += 1;
        self.stats.spill.admitted_evict += victim.size();
        self.stage(victim, env);
        self.admit(sp, h, sz, 2, env);
    }
}

impl ReduceSide for IncHashReducer<'_> {
    fn deliver(&mut self, batch: RecordBatch, env: &mut ReduceEnv<'_>) {
        env.shuffled(batch.bytes());
        let (tuples, hashes) = batch.into_parts();
        let mut hashes = hashes.into_iter();
        for sp in tuples {
            let h = hashes.next();
            self.absorb(sp, h, env);
        }
    }

    fn complete(&mut self, env: &mut ReduceEnv<'_>) {
        env.span_open();
        // Finalize every memory-resident key (their data is complete —
        // see the module invariant).
        let n = self.table.len() as u64;
        self.stats.resident_keys = n;
        self.stats.resident_frequency = self.table.iter().map(|(_, (_, count))| count).sum();
        self.mem_used = 0;
        for (_, key, (state, _)) in std::mem::take(&mut self.table).into_rows() {
            self.inc.finalize(&key, state, &mut self.ctx);
        }
        env.cpu(env.cost().reduce_time(n));
        self.sink.push(&mut self.ctx, env);

        // Staged buckets, one at a time.
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
            .table
            .iter()
            .map(|(k, (v, _))| Pair::new(k.clone(), v.clone()))
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
            self.table.iter().map(|(_, (_, count))| *count).collect(),
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
        let [sink_pending, ctx_pending] = <[Vec<Pair>; 2]>::try_from(ckpt.pairs)
            .map_err(|_| Error::job("INC-hash checkpoint missing output sections"))?;
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
        if counts.len() != resident.len() {
            return Err(Error::job(
                "INC-hash checkpoint combine-count section disagrees with the resident table",
            ));
        }
        self.table = GroupTable::with_capacity(resident.len());
        self.mem_used = 0;
        for (sp, count) in resident.into_iter().zip(counts) {
            self.mem_used += entry_size(&*self.inc, &sp.key, &sp.value);
            self.table
                .push(self.h1.hash(sp.key.bytes()), sp.key, (sp.value, count));
        }
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
        let i = self.table.find(self.h1.hash(key.bytes()), key)?;
        Some(self.table.row(i).1 .0.clone())
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
