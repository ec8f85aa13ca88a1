//! The sort-merge reducer (Hadoop baseline, §2.2 of the paper).
//!
//! Sorted segments accumulate in the shuffle buffer; when it exceeds `B_r`
//! they are merged (combiner applied if the job has one) and spilled as one
//! sorted run. A background merge collapses the smallest `F` on-disk files
//! whenever `2F − 1` accumulate (`merge_schedule`, the policy `λ_F` prices). Only
//! after the last delivery does the *final merge* stream every remaining
//! run through the user's reduce function: this is the blocking behaviour
//! that pins sort-merge reduce progress at 33% for non-combiner workloads.

use super::{OutputSink, ReduceEnv, ReduceSide, ReducerCkpt, WORK_BATCH};
use crate::api::{JobRef, ReduceCtx};
use crate::cluster::ClusterSpec;
use opa_common::{Error, Pair, RecordBatch, Result, Value};
use opa_simio::{IoOp, SpillStore};
use opa_trace::model::lambda::merge_schedule;
use opa_trace::SpanKind;

/// [`ReducerCkpt::tag`] of the sort-merge framework (both variants).
pub(crate) const CKPT_TAG: u8 = 1;

/// One reduce task running the sort-merge framework.
pub struct SortMergeReducer<'j> {
    job: JobRef<'j>,
    merge_factor: usize,
    buffer_cap: u64,
    /// Sorted in-memory segments (one per delivery since the last spill).
    segments: Vec<Vec<Pair>>,
    buffered_bytes: u64,
    spills: SpillStore,
    sink: OutputSink,
}

impl<'j> SortMergeReducer<'j> {
    /// Creates the reducer.
    pub fn new(job: JobRef<'j>, spec: &ClusterSpec) -> Self {
        SortMergeReducer {
            job,
            merge_factor: spec.system.merge_factor,
            buffer_cap: spec.hardware.reduce_buffer,
            segments: Vec::new(),
            buffered_bytes: 0,
            spills: SpillStore::new(),
            sink: OutputSink::new(),
        }
    }

    /// Merges the buffered segments into one sorted run (stable sort keeps
    /// within-segment order; segments are key-sorted already, so groups are
    /// exact).
    fn merge_segments(&mut self, env: &mut ReduceEnv<'_>) -> Vec<Pair> {
        let fan_in = self.segments.len();
        let mut run: Vec<Pair> = self.segments.drain(..).flatten().collect();
        run.sort_by(|a, b| a.key.cmp(&b.key));
        env.cpu(env.cost().merge_time(run.len() as u64, fan_in));
        self.buffered_bytes = 0;
        run
    }

    /// Buffer overflow: merge segments, apply the combiner, spill one run,
    /// then run the background-merge policy.
    fn spill_buffer(&mut self, env: &mut ReduceEnv<'_>) {
        let mut run = self.merge_segments(env);
        if let Some(cb) = self.job.combiner() {
            let before = run.len() as u64;
            combine_run(cb, &mut run);
            // The spill file keeps the run: return what the fold freed.
            run.shrink_to_fit();
            env.cpu(env.cost().cb_time(before));
            // Combine calls are user work under Definition 1.
            env.worked(before);
        }
        let (_id, op) = self.spills.write_file(run);
        env.spill(op);
        self.background_merge(env);
    }

    /// After a new run, merges the live files [`merge_schedule`] picks, if any.
    fn background_merge(&mut self, env: &mut ReduceEnv<'_>) {
        let f = self.merge_factor;
        let (ids, sizes): (Vec<usize>, Vec<u64>) = self.spills.live_files().unzip();
        let Some(picks) = merge_schedule(&sizes, f) else {
            return;
        };
        env.span_open();
        let mut merged: Vec<Pair> = Vec::new();
        let mut read_op = IoOp::NONE;
        for i in picks {
            let (file, op) = self.spills.take_file(ids[i]).expect("live file");
            read_op += op;
            merged.extend(file.records);
        }
        env.spill(read_op);
        merged.sort_by(|a, b| a.key.cmp(&b.key));
        env.cpu(env.cost().merge_time(merged.len() as u64, f));
        let (_id, wop) = self.spills.write_file(merged);
        env.spill(wop);
        env.span_close(SpanKind::Merge);
    }
}

impl ReduceSide for SortMergeReducer<'_> {
    /// MapReduce Online's snapshot (§3.3): *repeat the merge* over
    /// everything received so far, run the reduce function, and write a
    /// snapshot output. None of the work is reusable — the inputs stay on
    /// disk for the real final merge — which is the paper's point about
    /// snapshots being expensive.
    fn snapshot(&mut self, env: &mut ReduceEnv<'_>) {
        env.span_open();
        let ids: Vec<usize> = self.spills.live_files().map(|(id, _)| id).collect();
        let mut all: Vec<Pair> = Vec::new();
        let mut read_op = IoOp::NONE;
        for id in ids {
            let (records, op) = self.spills.read_file(id).expect("live file");
            read_op += op;
            all.extend(records);
        }
        env.spill(IoOp {
            read: read_op.read,
            written: 0,
            seeks: read_op.seeks,
        });
        for seg in &self.segments {
            all.extend(seg.iter().cloned());
        }
        if all.is_empty() {
            return;
        }
        all.sort_by(|a, b| a.key.cmp(&b.key));
        env.cpu(env.cost().merge_time(all.len() as u64, 8));
        let mut ctx = ReduceCtx::new();
        let mut i = 0usize;
        let mut reduced = 0u64;
        while i < all.len() {
            let mut j = i + 1;
            while j < all.len() && all[j].key == all[i].key {
                j += 1;
            }
            let values: Vec<Value> = all[i..j].iter().map(|p| p.value.clone()).collect();
            reduced += values.len() as u64;
            self.job.reduce(&all[i].key, values, &mut ctx);
            i = j;
        }
        env.cpu(env.cost().reduce_time(reduced));
        let out = ctx.drain();
        env.snapshot_write(out.iter().map(Pair::size).sum());
        env.span_close(SpanKind::Reduce);
    }

    fn deliver(&mut self, batch: RecordBatch, env: &mut ReduceEnv<'_>) {
        let bytes = batch.bytes();
        env.shuffled(bytes);
        self.buffered_bytes += bytes;
        if !batch.is_empty() {
            self.segments.push(batch.into_pairs());
        }
        if self.buffered_bytes >= self.buffer_cap {
            self.spill_buffer(env);
        }
    }

    fn complete(&mut self, env: &mut ReduceEnv<'_>) {
        // Final merge: every on-disk run plus the in-memory tail, streamed
        // through the reduce function.
        env.span_open();
        let disk_files: Vec<usize> = self.spills.live_files().map(|(id, _)| id).collect();
        let fan_in = disk_files.len() + self.segments.len();
        let mut all: Vec<Pair> = Vec::new();
        let mut read_op = IoOp::NONE;
        for id in disk_files {
            let (file, op) = self.spills.take_file(id).expect("live file");
            read_op += op;
            all.extend(file.records);
        }
        env.spill(read_op);
        all.extend(self.segments.drain(..).flatten());
        self.buffered_bytes = 0;
        all.sort_by(|a, b| a.key.cmp(&b.key));
        env.cpu(env.cost().merge_time(all.len() as u64, fan_in.max(2)));

        // Stream groups through reduce, charging the work in batches so the
        // post-map progress curve rises smoothly.
        let mut ctx = ReduceCtx::new();
        let mut batch_work = 0u64;
        let mut i = 0usize;
        while i < all.len() {
            let mut j = i + 1;
            while j < all.len() && all[j].key == all[i].key {
                j += 1;
            }
            // The group's key is borrowed straight from the run — no
            // per-group handle clone.
            let values: Vec<Value> = all[i..j].iter().map(|p| p.value.clone()).collect();
            let n = values.len() as u64;
            self.job.reduce(&all[i].key, values, &mut ctx);
            batch_work += n;
            if batch_work >= WORK_BATCH {
                env.cpu(env.cost().reduce_time(batch_work));
                env.worked(batch_work);
                batch_work = 0;
                self.sink.push(&mut ctx, env);
            }
            i = j;
        }
        if batch_work > 0 {
            env.cpu(env.cost().reduce_time(batch_work));
            env.worked(batch_work);
        }
        self.sink.push(&mut ctx, env);
        self.sink.flush(env);
        env.span_close(SpanKind::Reduce);
    }

    /// Sections: `nums[0] = [n_segments, n_spill_runs]`; `pairs` holds the
    /// in-memory segments, then the live spill runs (creation order), then
    /// the pending output buffer.
    fn export_state(&self) -> Result<ReducerCkpt> {
        let mut pairs: Vec<Vec<Pair>> = self.segments.clone();
        let runs = self.spills.export_runs();
        let counts = vec![self.segments.len() as u64, runs.len() as u64];
        pairs.extend(runs);
        pairs.push(self.sink.export_pending());
        Ok(ReducerCkpt {
            tag: CKPT_TAG,
            nums: vec![counts],
            pairs,
            ..ReducerCkpt::default()
        })
    }

    fn import_state(&mut self, ckpt: ReducerCkpt) -> Result<()> {
        if ckpt.tag != CKPT_TAG {
            return Err(Error::job(format!(
                "checkpoint tag {} is not sort-merge ({CKPT_TAG})",
                ckpt.tag
            )));
        }
        let counts = ckpt
            .nums
            .first()
            .filter(|c| c.len() == 2)
            .ok_or_else(|| Error::job("sort-merge checkpoint missing section counts"))?;
        let (n_seg, n_run) = (counts[0] as usize, counts[1] as usize);
        let mut sections = ckpt.pairs;
        if sections.len() != n_seg + n_run + 1 {
            return Err(Error::job("sort-merge checkpoint section count mismatch"));
        }
        let pending = sections.pop().expect("length checked");
        let runs = sections.split_off(n_seg);
        self.segments = sections;
        self.buffered_bytes = self.segments.iter().flatten().map(Pair::size).sum();
        self.spills = SpillStore::restore(runs);
        self.sink.restore_pending(pending);
        Ok(())
    }
}

/// Folds consecutive same-key pairs of a sorted run into one pair each,
/// in place: each key's first pair accumulates the later pairs' values in
/// arrival order.
fn combine_run(cb: &dyn crate::api::Combiner, run: &mut Vec<Pair>) {
    run.dedup_by(|later, kept| {
        let same = later.key == kept.key;
        if same {
            cb.fold(&kept.key, &mut kept.value, std::mem::take(&mut later.value));
        }
        same
    });
}
