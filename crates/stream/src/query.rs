//! The live query surface served between micro-batches, plus the offline
//! variant that answers the same queries straight from a checkpoint file.
//!
//! Both views expose the paper's incremental-state reads: a point lookup
//! of a key's resident partial aggregate (INC/DINC hash tables, the DINC
//! monitor) and the DINC top-k answer with its γ coverage lower bound
//! (Theorem 1). Keys route to reducers with the same `h1` partitioning
//! hash the map side uses, so a lookup lands on exactly the reducer that
//! owns the key.

use crate::checkpoint::{QueuedEvent, SavedState};
use crate::StreamRun;
use opa_common::units::SimTime;
use opa_common::{HashFamily, HashFn, Key, Result, Value};
use opa_core::cluster::Framework;
use opa_core::reduce::{ReduceSide, TopEntry};
use std::path::{Path, PathBuf};

/// Progress metadata of a paused stream job.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProgress {
    /// Micro-batches sealed so far (1-based; equals `batches` when done).
    pub batches_sealed: usize,
    /// Total micro-batch count `k`.
    pub batches: usize,
    /// Input records covered by the sealed batches — the stream's
    /// arrival-order watermark position: every record below it has been
    /// absorbed into reducer state (later records may also have been,
    /// opportunistically).
    pub records_sealed: usize,
    /// Total input records.
    pub total_records: usize,
    /// Map tasks completed / total.
    pub maps_completed: usize,
    /// Total map-task count.
    pub maps_total: usize,
    /// Highest event-time watermark across reducers, if the job extracts
    /// event times.
    pub watermark: Option<u64>,
    /// Virtual time of the pause point.
    pub sim_time: SimTime,
}

/// The control handle passed to the per-batch callback of a stream run.
///
/// Queries answer from *resident* reducer state: partial aggregates over
/// everything absorbed so far. Checkpoint requests are recorded here and
/// performed by the run immediately after the callback returns (the run
/// owns the full engine state).
pub struct BatchCtl<'c, 'j> {
    pub(crate) run: &'c StreamRun<'j>,
    pub(crate) checkpoint_request: Option<PathBuf>,
}

impl BatchCtl<'_, '_> {
    /// The just-sealed micro-batch, 1-based.
    pub fn batch(&self) -> usize {
        self.run.sealed
    }

    fn reducers(&self) -> impl Iterator<Item = &(dyn ReduceSide + Send)> {
        self.run
            .engine
            .reducers()
            .iter()
            .filter_map(|r| r.as_deref())
    }

    /// Point lookup of `key`'s resident partial aggregate. Routes to the
    /// owning reducer via the partitioning hash; `None` when the framework
    /// keeps no queryable state for the key (sort-merge / MR-hash, an
    /// unmonitored key under DINC, or a key spilled to disk).
    pub fn lookup(&self, key: &Key) -> Option<Value> {
        let (engine, reducers) = (&self.run.engine, self.run.engine.reducers());
        let r = engine.h1().bucket(key.bytes(), reducers.len());
        reducers[r].as_ref()?.query(key)
    }

    /// The top `k` keys by estimated frequency across all reducers, with
    /// the minimum per-reducer coverage bound γ. `None` unless the job
    /// runs DINC-hash (the only framework maintaining a monitor).
    pub fn top_k(&self, k: usize) -> Option<(Vec<TopEntry>, f64)> {
        merge_top_k(k, self.reducers().filter_map(|r| r.top_entries(k)))
    }

    /// Progress and watermark metadata at this pause point.
    pub fn progress(&self) -> StreamProgress {
        let (run, engine) = (self.run, &self.run.engine);
        StreamProgress {
            batches_sealed: run.sealed,
            batches: run.stream.batches,
            records_sealed: run.records_sealed(),
            total_records: run.records,
            maps_completed: engine.maps_completed(),
            maps_total: engine.num_chunks(),
            watermark: self.reducers().filter_map(|r| r.watermark()).max(),
            sim_time: engine.now(),
        }
    }

    /// Requests a checkpoint at this pause point. The run writes it to
    /// `path` right after the callback returns; a later request in the
    /// same callback replaces an earlier one.
    pub fn checkpoint(&mut self, path: impl Into<PathBuf>) {
        self.checkpoint_request = Some(path.into());
    }
}

/// Merges per-reducer top-k answers into a global one: stable sort by
/// count descending (ties keep reducer order — deterministic), truncate,
/// and take the weakest per-reducer γ as the global bound.
pub(crate) fn merge_top_k(
    k: usize,
    per_reducer: impl Iterator<Item = (Vec<TopEntry>, f64)>,
) -> Option<(Vec<TopEntry>, f64)> {
    let mut all: Vec<TopEntry> = Vec::new();
    let mut gamma = f64::INFINITY;
    let mut any = false;
    for (entries, g) in per_reducer {
        any = true;
        all.extend(entries);
        gamma = gamma.min(g);
    }
    if !any {
        return None;
    }
    all.sort_by_key(|e| std::cmp::Reverse(e.count));
    all.truncate(k);
    Some((all, if gamma.is_finite() { gamma } else { 1.0 }))
}

/// An offline view over a checkpoint file: answers the same point-lookup
/// / top-k / progress queries as [`BatchCtl`], without re-instantiating
/// the job — `opa query` runs entirely from this.
pub struct CheckpointView {
    state: SavedState,
    h1: HashFn,
}

impl CheckpointView {
    /// Loads and verifies a checkpoint file.
    pub fn open(path: &Path) -> Result<CheckpointView> {
        let state = SavedState::read_from(path)?;
        let family = HashFamily::new(state.fingerprint.hash_seed);
        Ok(CheckpointView {
            h1: family.fn_at(0),
            state,
        })
    }

    /// The decoded state (for inspection / tooling).
    pub fn state(&self) -> &SavedState {
        &self.state
    }

    /// The framework the checkpoint was taken under.
    pub fn framework(&self) -> Result<Framework> {
        self.state.fingerprint.framework()
    }

    /// Point lookup of `key`'s checkpointed resident aggregate, routed to
    /// the owning reducer and answered by its framework's own code
    /// ([`opa_core::reduce::ReducerCkpt::lookup`]).
    pub fn lookup(&self, key: &Key) -> Option<Value> {
        let reducers = &self.state.engine.reducers;
        // A forged file may hold no reducer at all: bucket 0 of none.
        let r = self.h1.bucket(key.bytes(), reducers.len().max(1));
        reducers.get(r)?.lookup(key)
    }

    /// The checkpointed top-k answer with γ, DINC-hash checkpoints only:
    /// each reducer's rebuilt monitor answers
    /// ([`opa_core::reduce::ReducerCkpt::top_entries`]), merged as live.
    pub fn top_k(&self, k: usize) -> Option<(Vec<TopEntry>, f64)> {
        merge_top_k(
            k,
            self.state
                .engine
                .reducers
                .iter()
                .filter_map(|ckpt| ckpt.top_entries(k)),
        )
    }

    /// Progress metadata at the checkpointed pause point.
    pub fn progress(&self) -> StreamProgress {
        let fp = &self.state.fingerprint;
        let sealed = self.state.next_batch as usize;
        let k = fp.batches as usize;
        let n = fp.records as usize;
        StreamProgress {
            batches_sealed: sealed,
            batches: k,
            // Saturating: a forged file may pair any two counts.
            records_sealed: sealed.saturating_mul(n) / k.max(1),
            total_records: n,
            maps_completed: self.state.engine.maps_completed as usize,
            maps_total: self.state.engine.done.len()
                + self
                    .state
                    .engine
                    .queue
                    .iter()
                    .filter(|e| matches!(e, QueuedEvent::StartMap { .. }))
                    .count()
                + self
                    .state
                    .engine
                    .pending
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>(),
            watermark: self
                .state
                .engine
                .reducers
                .iter()
                .filter_map(|c| c.watermark)
                .max(),
            sim_time: SimTime(self.state.engine.map_finish),
        }
    }
}
