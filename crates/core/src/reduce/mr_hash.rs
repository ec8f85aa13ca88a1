//! MR-hash: the basic hash technique (§4.1).
//!
//! Incoming pairs are partitioned by `h2` into `n` buckets; the first
//! bucket `D1` is pinned in memory, the rest stream to disk through paged
//! write buffers (hybrid hash join). After the input ends, the buckets are
//! read back one at a time, `D1` first together with its overflow file,
//! each recursively re-partitioned by `h4, h5, …` should it exceed memory.
//! Every in-memory group-by probes with the `h1` fingerprint the map side
//! partitions with, at every depth: any function groups a bucket exactly,
//! so grouping needs no `h3` of its own. No sort ever happens, but the
//! reduce function still cannot run before all input has arrived (full
//! value lists), so reduce progress blocks at 33% just like sort-merge —
//! the difference is the CPU saved and the early answers possible for
//! `D1`.

use super::buckets::{for_each_bucket, restage, MAX_DEPTH, TOP_DEPTH};
use super::{OutputSink, ReduceEnv, ReduceSide, ReducerCkpt, ReducerSizing, WORK_BATCH};
use crate::api::{JobRef, ReduceCtx};
use crate::cluster::ClusterSpec;
use opa_common::{
    Error, GroupTable, HashFamily, HashFn, Key, Pair, RecordBatch, Result, SeededState, Value,
};
use opa_simio::BucketManager;
use opa_trace::SpanKind;
use std::collections::HashMap;

/// [`ReducerCkpt::tag`] of the MR-hash framework.
pub(crate) const CKPT_TAG: u8 = 2;

/// One reduce task running the MR-hash framework.
pub struct MrHashReducer<'j> {
    job: JobRef<'j>,
    family: HashFamily,
    h1: HashFn,
    h2: HashFn,
    mem_budget: u64,
    write_buffer: u64,
    /// `D1`: the memory-resident bucket.
    d1: Vec<Pair>,
    d1_bytes: u64,
    d1_budget: u64,
    /// On-disk buckets (index 0 doubles as the D1 overflow file).
    buckets: BucketManager,
    n_buckets: usize,
    sink: OutputSink,
}

impl<'j> MrHashReducer<'j> {
    /// Creates the reducer, sizing the bucket fan-out from the expected
    /// reducer input (hybrid-hash style: each on-disk bucket should fit in
    /// memory when read back).
    pub fn new(
        job: JobRef<'j>,
        spec: &ClusterSpec,
        sizing: ReducerSizing,
        family: &HashFamily,
    ) -> Self {
        let mem = spec.hardware.reduce_buffer;
        let write_buffer = spec.bucket_write_buffer;
        // Buckets needed so one bucket ≈ fits in 80% of memory; +1 for D1.
        let per_bucket = (mem as f64 * 0.8).max(1.0);
        let disk_buckets = ((sizing.expected_input as f64 / per_bucket).ceil() as usize)
            .clamp(1, (mem / (2 * write_buffer)).max(1) as usize);
        let n_buckets = disk_buckets + 1;
        let d1_budget = mem
            .saturating_sub(disk_buckets as u64 * write_buffer)
            .max(1);
        MrHashReducer {
            job,
            family: family.clone(),
            h1: family.fn_at(0),
            h2: family.fn_at(1),
            mem_budget: mem,
            write_buffer,
            d1: Vec::new(),
            d1_bytes: 0,
            d1_budget,
            buckets: BucketManager::new(disk_buckets, write_buffer),
            n_buckets,
            sink: OutputSink::new(),
        }
    }

    /// Groups a bucket's pairs by key, probing with the `h1` fingerprint
    /// at every depth, and streams each group through the reduce function.
    fn reduce_in_memory(&mut self, segments: Vec<Vec<Pair>>, env: &mut ReduceEnv<'_>) {
        let len: usize = segments.iter().map(Vec::len).sum();
        env.cpu(env.cost().hash_time(len as u64));
        // Insertion-ordered group-by: a fresh table per bucket, sized from
        // its pair count.
        let mut groups: GroupTable<Vec<Value>> = GroupTable::with_capacity(len / 4 + 1);
        for p in segments.into_iter().flatten() {
            let h = self.h1.hash(p.key.bytes());
            match groups.find(h, &p.key) {
                Some(i) => groups.row_mut(i).1.push(p.value),
                None => groups.push(h, p.key, vec![p.value]),
            }
        }
        let mut ctx = ReduceCtx::new();
        let mut batch = 0u64;
        for (_, key, values) in groups.into_rows() {
            let n = values.len() as u64;
            self.job.reduce(&key, values, &mut ctx);
            batch += n;
            if batch >= WORK_BATCH {
                env.cpu(env.cost().reduce_time(batch));
                env.worked(batch);
                batch = 0;
                self.sink.push(&mut ctx, env);
            }
        }
        if batch > 0 {
            env.cpu(env.cost().reduce_time(batch));
            env.worked(batch);
        }
        self.sink.push(&mut ctx, env);
    }

    /// Processes one staged bucket, read as its segments: reduce in memory
    /// if it fits, otherwise recursively partition with the next hash
    /// function.
    fn process_bucket(&mut self, segments: Vec<Vec<Pair>>, depth: usize, env: &mut ReduceEnv<'_>) {
        #[cfg(test)]
        super::buckets::DEEPEST.with(|d| d.set(d.get().max(depth)));
        let bytes: u64 = segments.iter().flatten().map(Pair::size).sum();
        if bytes <= self.mem_budget || depth >= MAX_DEPTH {
            return self.reduce_in_memory(segments, env);
        }
        // Rehashing cannot split a bucket whose size is dominated by one
        // hot key: its pairs collide under every hash function. When even
        // a perfect split leaves the hot key's group over memory, further
        // partitioning only rewrites bytes — fall back to in-memory
        // processing (what the paper's skew-aware hash customization in §5
        // exists to avoid).
        let mut per_key: HashMap<&Key, u64, SeededState> =
            HashMap::with_hasher(SeededState::fixed());
        for p in segments.iter().flatten() {
            *per_key.entry(&p.key).or_default() += p.size();
        }
        let dominant = per_key.values().copied().max().unwrap_or(0);
        if dominant > self.mem_budget || per_key.len() == 1 {
            return self.reduce_in_memory(segments, env);
        }
        // Recursive partitioning with h_{depth}.
        let len: usize = segments.iter().map(Vec::len).sum();
        env.cpu(env.cost().hash_time(len as u64));
        let mut sub = restage(
            segments.into_iter().flatten(),
            bytes,
            self.family.fn_at(depth),
            self.mem_budget,
            self.write_buffer,
            env,
        );
        for_each_bucket(&mut sub, env, |segments, env| {
            self.process_bucket(segments, depth + 1, env)
        });
    }
}

impl ReduceSide for MrHashReducer<'_> {
    fn deliver(&mut self, pairs: RecordBatch, env: &mut ReduceEnv<'_>) {
        env.shuffled(pairs.bytes());
        env.cpu(env.cost().hash_time(pairs.len() as u64));
        for p in pairs {
            let b = self.h2.bucket(p.key.bytes(), self.n_buckets);
            if b == 0 {
                let sz = p.size();
                if self.d1_bytes + sz <= self.d1_budget {
                    self.d1_bytes += sz;
                    self.d1.push(p);
                } else {
                    // D1 overflow shares bucket file 0.
                    env.spill(self.buckets.push(0, p));
                }
            } else {
                env.spill(self.buckets.push(b - 1, p));
            }
        }
    }

    fn complete(&mut self, env: &mut ReduceEnv<'_>) {
        env.span_open();
        env.spill(self.buckets.seal());
        // Phase 1: the memory-resident bucket, joined with its overflow
        // file (keys hashing to bucket 0 may have pairs in both — they
        // must be grouped together). `D1` alone always fits memory, so
        // without overflow this reduces it in memory.
        let mut bucket0 = vec![std::mem::take(&mut self.d1)];
        self.d1_bytes = 0;
        let (overflow, op) = self.buckets.take_segments(0);
        env.spill(op);
        bucket0.extend(overflow);
        self.process_bucket(bucket0, TOP_DEPTH, env);
        // Phase 2: the remaining staged buckets, one at a time (bucket 0
        // now reads back empty, at no cost). The pass needs `&mut self`,
        // so it walks the manager out of `self`.
        let mut buckets = std::mem::replace(&mut self.buckets, BucketManager::new(1, 1));
        for_each_bucket(&mut buckets, env, |segments, env| {
            self.process_bucket(segments, TOP_DEPTH, env)
        });
        self.buckets = buckets;
        self.sink.flush(env);
        env.span_close(SpanKind::Reduce);
    }

    /// Sections: `pairs` holds `D1`, then one section per on-disk bucket
    /// (arrival order), then the pending output buffer. The bucket count is
    /// derivable from the (identical) config on restore, so no `nums`.
    fn export_state(&self) -> Result<ReducerCkpt> {
        let mut pairs = vec![self.d1.clone()];
        pairs.extend(self.buckets.export_contents());
        pairs.push(self.sink.export_pending());
        Ok(ReducerCkpt {
            tag: CKPT_TAG,
            pairs,
            ..ReducerCkpt::default()
        })
    }

    fn import_state(&mut self, ckpt: ReducerCkpt) -> Result<()> {
        if ckpt.tag != CKPT_TAG {
            return Err(Error::job(format!(
                "checkpoint tag {} is not MR-hash ({CKPT_TAG})",
                ckpt.tag
            )));
        }
        let mut sections = ckpt.pairs;
        if sections.len() != self.buckets.num_buckets() + 2 {
            return Err(Error::job(
                "MR-hash checkpoint bucket count mismatch — restore requires \
                 the same cluster spec and sizing hints as the original run",
            ));
        }
        let pending = sections.pop().expect("length checked");
        let d1 = sections.remove(0);
        self.d1_bytes = d1.iter().map(Pair::size).sum();
        self.d1 = d1;
        self.buckets.restore_contents(sections);
        self.sink.restore_pending(pending);
        Ok(())
    }
}
