//! The spilled-bucket pass of the hash frameworks (§4.1–§4.3): what did
//! not stay resident was staged to bucket files, and after the input ends
//! the buckets are read back one at a time, each grouped in an in-memory
//! table; a bucket whose keys still exceed memory is staged again under the
//! next hash function of the family and the pass recurses.
//!
//! All three hash frameworks share its two steps: [`for_each_bucket`]
//! reads every bucket back as its flushed segments, and [`restage`] stages
//! what still exceeds memory into sub-buckets. MR-hash groups raw
//! key-value pairs with them; [`BucketPass`] is the pass over key-state
//! pairs that INC-hash and DINC-hash complete with, grouping every bucket,
//! at every depth, in one table it empties and reuses.

use super::{OutputSink, ReduceEnv, WORK_BATCH};
use crate::api::{IncrementalReducer, ReduceCtx};
use crate::resident::{cb_sized, entry_size};
use opa_common::{GroupTable, HashFamily, HashFn, Pair, Value};
use opa_simio::BucketManager;

/// Recursive partitioning depth limit — far beyond anything a sane
/// configuration needs (each level multiplies capacity by the fan-out). At
/// the limit a bucket is processed in memory whatever its size.
pub(super) const MAX_DEPTH: usize = 6;

/// Depth of a reducer's own staged buckets: `h1` partitioned the input and
/// `h2`/`h3` staged it, so re-partitioning draws on the functions after
/// those.
pub(super) const TOP_DEPTH: usize = 3;

/// Seals `buckets` and reads every bucket back in bucket order, as its
/// flushed segments, charging the seal (a no-op once sealed) and every
/// read to `env`; `f` gets each non-empty bucket.
pub(super) fn for_each_bucket<'e>(
    buckets: &mut BucketManager,
    env: &mut ReduceEnv<'e>,
    mut f: impl FnMut(Vec<Vec<Pair>>, &mut ReduceEnv<'e>),
) {
    env.spill(buckets.seal());
    for i in 0..buckets.num_buckets() {
        let (segments, op) = buckets.take_segments(i);
        env.spill(op);
        if !segments.is_empty() {
            f(segments, env);
        }
    }
}

/// Stages `items`, `bytes` in all and too many for memory, into
/// sub-buckets under `h`, a later hash function of the family, with a
/// fan-out that aims each sub-bucket at 80 % of `mem_budget`. Read the
/// result back with [`for_each_bucket`].
pub(super) fn restage(
    items: impl IntoIterator<Item = Pair>,
    bytes: u64,
    h: HashFn,
    mem_budget: u64,
    write_buffer: u64,
    env: &mut ReduceEnv<'_>,
) -> BucketManager {
    let fan = ((bytes as f64 / (mem_budget as f64 * 0.8)).ceil() as usize).max(2);
    let mut sub = BucketManager::new(fan, write_buffer);
    for item in items {
        let b = h.bucket(item.key.bytes(), fan);
        env.spill(sub.push(b, item));
    }
    sub
}

/// The bucket pass over key-state pairs, with what it borrows from the
/// reducer it completes.
pub(super) struct BucketPass<'a> {
    pub inc: &'a dyn IncrementalReducer,
    pub family: &'a HashFamily,
    pub mem_budget: u64,
    pub write_buffer: u64,
    pub ctx: &'a mut ReduceCtx,
    pub sink: &'a mut OutputSink,
}

impl BucketPass<'_> {
    /// Processes every staged bucket of a reducer, in bucket order, with
    /// one table and one overflow buffer for the whole pass: each bucket
    /// leaves both empty, their allocations kept for the next one.
    pub(super) fn run(&mut self, buckets: &mut BucketManager, env: &mut ReduceEnv<'_>) {
        #[cfg(test)]
        if FRESH_TABLES.get() {
            for_each_bucket(buckets, env, |segments, env| {
                self.process_bucket_fresh(segments, TOP_DEPTH, env)
            });
            return;
        }
        let mut table = GroupTable::default();
        let mut overflow = Vec::new();
        for_each_bucket(buckets, env, |segments, env| {
            self.process_bucket(segments, TOP_DEPTH, &mut table, &mut overflow, env)
        });
    }

    /// Processes one staged bucket, read as its flushed segments, in
    /// `table` (left empty by the bucket before): combine in arrival order
    /// while the keys fit (first come stay), finalize the resident keys,
    /// then re-partition the rest and recurse with the same table and
    /// overflow buffer.
    fn process_bucket(
        &mut self,
        segments: Vec<Vec<Pair>>,
        depth: usize,
        table: &mut GroupTable<Value>,
        overflow: &mut Vec<Pair>,
        env: &mut ReduceEnv<'_>,
    ) {
        #[cfg(test)]
        DEEPEST.set(DEEPEST.get().max(depth));
        debug_assert!(
            table.is_empty() && overflow.is_empty(),
            "left empty by the last bucket"
        );
        // Replay the bucket under its own watermark: the file preserves
        // arrival order, so advancing the watermark from the replayed
        // tuples reproduces the original bounded disorder. Reusing the
        // end-of-stream watermark would defeat the reorder buffering of
        // order-sensitive jobs (sessionization).
        let saved_watermark = self.ctx.watermark.take();
        let inc = self.inc;
        let h1 = self.family.fn_at(0);
        let mut used = 0u64;
        let mut batch = 0u64;
        // Once one key overflows, every later new key does, unsized: a
        // key's tuples are never split between the table and the overflow.
        // At the depth limit every key is admitted, so nothing overflows.
        for sp in segments.into_iter().flatten() {
            if let Some(ts) = inc.event_time(&sp.value) {
                self.ctx.advance_watermark(ts);
            }
            let h = h1.hash(sp.key.bytes());
            match table.find(h, &sp.key) {
                Some(i) => {
                    let (key, acc) = table.row_mut(i);
                    cb_sized(inc, key, acc, sp.value, self.ctx, &mut used);
                    batch += 1;
                }
                None if !overflow.is_empty() => overflow.push(sp),
                None => {
                    let sz = entry_size(inc, &sp.key, &sp.value);
                    if used + sz <= self.mem_budget || depth >= MAX_DEPTH {
                        used += sz;
                        table.push(h, sp.key, sp.value);
                        batch += 1;
                    } else {
                        overflow.push(sp);
                    }
                }
            }
            if batch >= WORK_BATCH {
                charge(batch, env);
                batch = 0;
                self.sink.push(self.ctx, env);
            }
        }
        if batch > 0 {
            charge(batch, env);
        }
        let resident = table.len() as u64;
        for (_, key, state) in table.drain_rows() {
            inc.finalize(&key, state, self.ctx);
        }
        env.cpu(env.cost().reduce_time(resident));
        self.sink.push(self.ctx, env);

        if !overflow.is_empty() {
            // Drained, not consumed: the allocation serves the next bucket.
            let bytes = overflow.iter().map(Pair::size).sum();
            let mut sub = restage(
                overflow.drain(..),
                bytes,
                self.family.fn_at(depth + 1),
                self.mem_budget,
                self.write_buffer,
                env,
            );
            for_each_bucket(&mut sub, env, |segments, env| {
                self.process_bucket(segments, depth + 1, table, overflow, env)
            });
        }
        self.ctx.watermark = match (saved_watermark, self.ctx.watermark) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The bucket pass as it was before the table was reused: each bucket
    /// concatenated, a fresh table for it sized from its tuple count, and
    /// a fresh overflow buffer consumed by [`restage`]. Kept as the oracle
    /// the reused-table pass must match — same output, same effect log.
    #[cfg(test)]
    fn process_bucket_fresh(
        &mut self,
        segments: Vec<Vec<Pair>>,
        depth: usize,
        env: &mut ReduceEnv<'_>,
    ) {
        let tuples: Vec<Pair> = segments.into_iter().flatten().collect();
        let saved_watermark = self.ctx.watermark.take();
        let inc = self.inc;
        let h1 = self.family.fn_at(0);
        let mut table: GroupTable<Value> = GroupTable::with_capacity(tuples.len() / 4 + 1);
        let mut used = 0u64;
        let mut overflow: Vec<Pair> = Vec::new();
        let mut batch = 0u64;
        for sp in tuples {
            if let Some(ts) = inc.event_time(&sp.value) {
                self.ctx.advance_watermark(ts);
            }
            let h = h1.hash(sp.key.bytes());
            match table.find(h, &sp.key) {
                Some(i) => {
                    let (key, acc) = table.row_mut(i);
                    cb_sized(inc, key, acc, sp.value, self.ctx, &mut used);
                    batch += 1;
                }
                None => {
                    let sz = entry_size(inc, &sp.key, &sp.value);
                    if (overflow.is_empty() && used + sz <= self.mem_budget) || depth >= MAX_DEPTH {
                        used += sz;
                        table.push(h, sp.key, sp.value);
                        batch += 1;
                    } else {
                        overflow.push(sp);
                    }
                }
            }
            if batch >= WORK_BATCH {
                charge(batch, env);
                batch = 0;
                self.sink.push(self.ctx, env);
            }
        }
        if batch > 0 {
            charge(batch, env);
        }
        let resident = table.len() as u64;
        for (_, key, state) in table.into_rows() {
            inc.finalize(&key, state, self.ctx);
        }
        env.cpu(env.cost().reduce_time(resident));
        self.sink.push(self.ctx, env);

        if !overflow.is_empty() {
            let bytes = overflow.iter().map(Pair::size).sum();
            let mut sub = restage(
                overflow,
                bytes,
                self.family.fn_at(depth + 1),
                self.mem_budget,
                self.write_buffer,
                env,
            );
            for_each_bucket(&mut sub, env, |segments, env| {
                self.process_bucket_fresh(segments, depth + 1, env)
            });
        }
        self.ctx.watermark = match (saved_watermark, self.ctx.watermark) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
thread_local! {
    /// Runs [`BucketPass::run`] on this thread through
    /// [`BucketPass::process_bucket_fresh`], the oracle form.
    pub(super) static FRESH_TABLES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// The deepest level [`BucketPass::process_bucket`] or MR-hash's
    /// `process_bucket` ran at on this thread.
    pub(super) static DEEPEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Charges `batch` table operations and acknowledges them into reduce
/// progress: one hash probe each, and a `cb()` for about every other one.
fn charge(batch: u64, env: &mut ReduceEnv<'_>) {
    env.cpu(env.cost().hash_time(batch) + env.cost().cb_time(batch / 2));
    env.worked(batch);
}
