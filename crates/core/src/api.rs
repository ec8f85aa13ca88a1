//! The user-facing job API.
//!
//! A workload implements [`Job`] (the classic map/reduce pair) and, to run
//! under the incremental frameworks, exposes an [`IncrementalReducer`] —
//! the paper's `init() / cb() / fn()` triple (§4.2) plus the DINC eviction
//! hook (§4.3, §6.2). Values and states are opaque bytes, mirroring the
//! prototype's byte-array memory managers (§5): the engine never interprets
//! them, it only moves, groups and sizes them.

use opa_common::{Key, Pair, Value};
use std::ops::Deref;
use std::sync::Arc;

/// Where user code is currently running. Incremental jobs whose early
/// output is only safe with global knowledge (e.g. "count reached 50")
/// must gate emission on [`Site::Reduce`]; jobs with locally-safe early
/// output (a session closed by a within-chunk gap) may emit at either
/// site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Map-side combine (`cb` applied inside the Hash-based Map Output
    /// component).
    Map,
    /// Reduce-side processing.
    Reduce,
}

/// Emission context handed to reduce-side user code. Everything a reducer
/// (classic or incremental) outputs goes through here; the engine drains it
/// to account output bytes and progress.
#[derive(Debug)]
pub struct ReduceCtx {
    emitted: Vec<Pair>,
    /// Reusable assembly buffer lent to user code ([`ReduceCtx::take_scratch`]).
    scratch: Vec<u8>,
    /// Highest event time observed by this reducer, if the job defines
    /// event times. Drives the DINC expiry eviction rule.
    pub watermark: Option<u64>,
    /// Whether this context serves map-side or reduce-side user code.
    pub site: Site,
}

impl Default for ReduceCtx {
    fn default() -> Self {
        ReduceCtx {
            emitted: Vec::new(),
            scratch: Vec::new(),
            watermark: None,
            site: Site::Reduce,
        }
    }
}

impl ReduceCtx {
    /// Fresh reduce-side context.
    pub fn new() -> Self {
        ReduceCtx::default()
    }

    /// Fresh context at an explicit site.
    pub fn at_site(site: Site) -> Self {
        ReduceCtx {
            site,
            ..ReduceCtx::default()
        }
    }

    /// Emits one output pair.
    #[inline]
    pub fn emit(&mut self, key: Key, value: Value) {
        self.emitted.push(Pair::new(key, value));
    }

    /// Takes everything emitted since the last drain.
    pub fn drain(&mut self) -> Vec<Pair> {
        std::mem::take(&mut self.emitted)
    }

    /// Moves everything emitted since the last drain onto the end of
    /// `out` and returns the moved pairs' serialized size. Unlike
    /// [`ReduceCtx::drain`] the emission buffer keeps its allocation, so a
    /// reducer that drains after every delivery does not allocate a fresh
    /// `Vec` per emission.
    pub fn drain_into(&mut self, out: &mut Vec<Pair>) -> u64 {
        let bytes = self.emitted.iter().map(Pair::size).sum();
        out.append(&mut self.emitted);
        bytes
    }

    /// Lends out the context's assembly buffer, emptied but with its
    /// capacity intact: scratch space for user code that builds a large
    /// state from pieces before freezing it into a [`Value`]. Hand it back
    /// with [`ReduceCtx::return_scratch`] so the next call reuses the
    /// allocation (taking it, rather than borrowing it, leaves `self` free
    /// for [`ReduceCtx::emit`] meanwhile).
    pub fn take_scratch(&mut self) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf
    }

    /// Returns the buffer lent by [`ReduceCtx::take_scratch`].
    pub fn return_scratch(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    /// Number of pairs pending drain.
    pub fn pending(&self) -> usize {
        self.emitted.len()
    }

    /// Copy of the pairs pending drain (checkpointing).
    pub(crate) fn export_pending(&self) -> Vec<Pair> {
        self.emitted.clone()
    }

    /// Refills the pending buffer of a fresh context (restore path).
    pub(crate) fn restore_pending(&mut self, pairs: Vec<Pair>) {
        debug_assert!(self.emitted.is_empty(), "restore into a non-empty ctx");
        self.emitted = pairs;
    }

    /// Raises the watermark to `t` if it is higher.
    pub fn advance_watermark(&mut self, t: u64) {
        self.watermark = Some(self.watermark.map_or(t, |w| w.max(t)));
    }
}

/// A combine function (Fig. 1): partial aggregation applied after the map
/// function and again when a reducer's buffer fills.
///
/// The fold is the only combine operation. Collapsing a key's values is
/// one accumulator per key updated as values arrive — the shape of the
/// Hash-based Map Output component (§5) — so every combine site (the
/// map-side sorted run, the MR-hash collapse table, the sort-merge
/// reducer's buffer and the node staging table) folds in place and never
/// gathers a key's values into a list. A combiner therefore always yields
/// exactly one value per key; a job whose partial aggregate needs more
/// than one value encodes them into one.
pub trait Combiner: Send + Sync {
    /// Accumulates `value` into `acc` in place. Must be commutative and
    /// associative: the engine folds a key's values in an order that
    /// depends on the framework and combine scope, and `reduce` over the
    /// folded value must emit what it emits over the values themselves.
    fn fold(&self, key: &Key, acc: &mut Value, value: Value);
}

/// The paper's incremental-processing interface (§4.2): `init()` turns a
/// raw value into a state, `cb()` merges states, `finalize()` produces the
/// final answer — `reduce = cb ∘ … ∘ cb` followed by `fn`.
pub trait IncrementalReducer: Send + Sync {
    /// `init()` — reduces one raw value to a state. Applied map-side, as
    /// the map function emits: `value` is the emitted slice itself, read in
    /// place, so a job with a large value builds its state straight from
    /// the record instead of from a copy of it.
    fn init(&self, key: &Key, value: &[u8]) -> Value;

    /// `cb()` — merges `other` into `acc`. May emit early output through
    /// `ctx` (e.g. closed sessions, counters crossing a query threshold),
    /// which is what lets INC/DINC reduce progress track map progress.
    ///
    /// This is the engine's hottest user call. States of up to
    /// [`opa_common::INLINE_CAP`] bytes live inline and cost nothing
    /// to rebuild; a larger state should be merged on its encoded bytes and
    /// assembled with [`Value::concat`] (one allocation, one copy) — using
    /// [`ReduceCtx::take_scratch`] when the pieces must be interleaved
    /// first — rather than decoded into owned collections and re-encoded
    /// through `Vec` → [`Value::new`], which allocates per element and
    /// twice more for the result.
    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx);

    /// `fn()` — produces the final answer(s) for a key from its state.
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx);

    /// Memory footprint charged for a resident state. Defaults to the
    /// serialized length; jobs with pre-allocated fixed-size state buffers
    /// (sessionization's 0.5/1/2 KB reorder buffers) override this with the
    /// fixed capacity, which is what makes Table 4's "larger states ⇒
    /// fewer resident keys ⇒ more spill" trade-off real.
    fn state_mem_size(&self, state: &Value) -> u64 {
        state.len() as u64
    }

    /// Event time carried by a state, if this job has a temporal dimension
    /// (sessionization does; counting does not). The engine maintains the
    /// per-reducer watermark from these.
    fn event_time(&self, _state: &Value) -> Option<u64> {
        None
    }

    /// DINC eviction *guard* (the paper's §6.2 rule): may this state be
    /// displaced from the monitor right now? Sessionization answers "only
    /// if every click in the state belongs to an expired session"; counting
    /// workloads accept any eviction (their partial states spill and merge
    /// later). The default permits eviction.
    fn can_evict(&self, _key: &Key, _state: &Value, _watermark: Option<u64>) -> bool {
        true
    }

    /// DINC eviction hook. Called when the FREQUENT monitor displaces
    /// `state` (and at end-of-input drain). Return `None` after emitting
    /// the state's results through `ctx` if the state is complete and can
    /// bypass disk (the paper's sessionization rule: all clicks belong to
    /// an expired session); return `Some(state)` to spill it. The default
    /// spills everything.
    fn evict(
        &self,
        _key: &Key,
        state: Value,
        _watermark: Option<u64>,
        _ctx: &mut ReduceCtx,
    ) -> Option<Value> {
        Some(state)
    }
}

/// A MapReduce job: the map function, the classic reduce function, and the
/// optional combiner / incremental interfaces that unlock the richer
/// frameworks.
pub trait Job: Send + Sync {
    /// Human-readable job name for reports.
    fn name(&self) -> &str;

    /// The map function: parse one input record, emit ⟨key, value⟩ pairs
    /// as borrowed byte slices. The engine hands each emission straight to
    /// the framework's map-output collector, which copies only what it
    /// keeps (a new key and its state under the grouping collectors, the
    /// whole pair under sort-merge), so map functions should emit from
    /// stack buffers or record subslices and never allocate per pair.
    fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8]));

    /// The classic reduce function over a key's complete value list. Used
    /// by the sort-merge and MR-hash frameworks.
    fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx);

    /// Combiner for the sort-merge baseline, if the reduce function is
    /// commutative and associative.
    fn combiner(&self) -> Option<&dyn Combiner> {
        None
    }

    /// Incremental interface, if the reduce function permits incremental
    /// processing. Required by `Framework::IncHash` / `Framework::DincHash`.
    fn incremental(&self) -> Option<&dyn IncrementalReducer> {
        None
    }

    /// Hint: expected number of distinct keys, used to size the hash
    /// frameworks' bucket fan-out (the paper sets `h = K·n_p/B`).
    fn expected_keys(&self) -> Option<u64> {
        None
    }

    /// Hint: typical key-state pair size in bytes, used to size the DINC
    /// monitor (`s = (B − h)·n_p`).
    fn state_size_hint(&self) -> Option<u64> {
        None
    }

    /// Declares that this job's map function preserves the partition of
    /// its input records: for every framed ⟨key, value⟩ record it
    /// consumes in a dataflow, every pair it emits carries a key that
    /// hashes to the *same* h1 partition as the input key (the common
    /// case: the map emits under the unchanged input key). This is the
    /// M3R partition-stability contract — a chained stage may skip the
    /// reshuffle entirely only when the upstream dataset carries a
    /// compatible `PartitionSpec` *and* the downstream job declares this.
    /// The dataflow layer re-verifies the claim against the carried h1
    /// fingerprints at run time and hard-errors on a violation, so a
    /// wrong `true` cannot silently corrupt grouping. Default: `false`
    /// (always safe; forces the reshuffle fallback).
    fn partition_preserving(&self) -> bool {
        false
    }
}

/// A boxed, borrowed or held job is a job: every method forwards,
/// the hints and optional interfaces included, so `Box<dyn Job>` picked by
/// name at run time goes wherever a concrete job type does.
macro_rules! forward_job {
    ($([$($generics:tt)*] $ptr:ty),+) => {$(
        impl<$($generics)*> Job for $ptr {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
                (**self).map(record, emit);
            }
            fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
                (**self).reduce(key, values, ctx);
            }
            fn combiner(&self) -> Option<&dyn Combiner> {
                (**self).combiner()
            }
            fn incremental(&self) -> Option<&dyn IncrementalReducer> {
                (**self).incremental()
            }
            fn expected_keys(&self) -> Option<u64> {
                (**self).expected_keys()
            }
            fn state_size_hint(&self) -> Option<u64> {
                (**self).state_size_hint()
            }
            fn partition_preserving(&self) -> bool {
                (**self).partition_preserving()
            }
        }
    )+};
}

forward_job!(
    [J: Job + ?Sized] Box<J>,
    [J: Job + ?Sized] &J,
    ['a] JobRef<'a>
);

/// How an engine holds what it reads but does not own: borrowed, when the
/// run lives inside its caller's frame (a batch run, a dataflow stage), or
/// shared, when the engine is a value kept across calls (a served job).
pub enum Handle<'a, T: ?Sized> {
    /// Borrowed for the engine's lifetime.
    Borrowed(&'a T),
    /// Shared with whoever else holds it.
    Shared(Arc<T>),
}

impl<T: ?Sized> Clone for Handle<'_, T> {
    fn clone(&self) -> Self {
        match self {
            Handle::Borrowed(r) => Handle::Borrowed(r),
            Handle::Shared(a) => Handle::Shared(Arc::clone(a)),
        }
    }
}

impl<T: ?Sized> Deref for Handle<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Handle::Borrowed(r) => r,
            Handle::Shared(a) => a,
        }
    }
}

/// A job as an engine and its reducers hold it, with its incremental
/// interface resolved once: the reducers' hot path calls `cb` through
/// [`JobRef::incremental`] without asking the job for it per tuple.
#[derive(Clone)]
pub struct JobRef<'a> {
    job: Handle<'a, dyn Job + 'a>,
    inc: Option<Handle<'a, dyn IncrementalReducer + 'a>>,
}

impl<'a> JobRef<'a> {
    /// A job borrowed for the engine's lifetime.
    pub fn borrowed(job: &'a dyn Job) -> Self {
        JobRef {
            job: Handle::Borrowed(job),
            inc: job.incremental().map(Handle::Borrowed),
        }
    }

    /// A job shared by every engine built over it, for engines that
    /// outlive their caller's frame. Its incremental interface is reached
    /// with one dynamic dispatch, as a borrowed job's is.
    pub fn shared<J: Job + 'a>(job: J) -> Self {
        let job = Arc::new(job);
        let inc = job.incremental().is_some().then(|| {
            Handle::Shared(
                Arc::new(IncrementalOf(Arc::clone(&job))) as Arc<dyn IncrementalReducer + 'a>
            )
        });
        JobRef {
            job: Handle::Shared(job),
            inc,
        }
    }

    /// The job's incremental interface, if it has one.
    pub fn incremental(&self) -> Option<&Handle<'a, dyn IncrementalReducer + 'a>> {
        self.inc.as_ref()
    }
}

impl<'a> Deref for JobRef<'a> {
    type Target = dyn Job + 'a;

    fn deref(&self) -> &Self::Target {
        &*self.job
    }
}

/// A shared job's incremental interface as a value of its own: every call
/// asks the job — statically dispatched — for the interface and forwards.
struct IncrementalOf<J>(Arc<J>);

impl<J: Job> IncrementalOf<J> {
    fn inc(&self) -> &dyn IncrementalReducer {
        self.0
            .incremental()
            .expect("built only for a job with an incremental interface")
    }
}

impl<J: Job> IncrementalReducer for IncrementalOf<J> {
    fn init(&self, key: &Key, value: &[u8]) -> Value {
        self.inc().init(key, value)
    }
    fn cb(&self, key: &Key, acc: &mut Value, other: Value, ctx: &mut ReduceCtx) {
        self.inc().cb(key, acc, other, ctx);
    }
    fn finalize(&self, key: &Key, state: Value, ctx: &mut ReduceCtx) {
        self.inc().finalize(key, state, ctx);
    }
    fn state_mem_size(&self, state: &Value) -> u64 {
        self.inc().state_mem_size(state)
    }
    fn event_time(&self, state: &Value) -> Option<u64> {
        self.inc().event_time(state)
    }
    fn can_evict(&self, key: &Key, state: &Value, watermark: Option<u64>) -> bool {
        self.inc().can_evict(key, state, watermark)
    }
    fn evict(
        &self,
        key: &Key,
        state: Value,
        watermark: Option<u64>,
        ctx: &mut ReduceCtx,
    ) -> Option<Value> {
        self.inc().evict(key, state, watermark, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountJob;

    impl Job for CountJob {
        fn name(&self) -> &str {
            "count"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            emit(record, &1u64.to_be_bytes());
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            let sum: u64 = values.iter().filter_map(Value::as_u64).sum();
            ctx.emit(key.clone(), Value::from_u64(sum));
        }
    }

    #[test]
    fn ctx_collects_and_drains() {
        let mut ctx = ReduceCtx::new();
        CountJob.reduce(
            &Key::from("a"),
            vec![Value::from_u64(1), Value::from_u64(2)],
            &mut ctx,
        );
        assert_eq!(ctx.pending(), 1);
        let out = ctx.drain();
        assert_eq!(out[0].value.as_u64(), Some(3));
        assert_eq!(ctx.pending(), 0);
        assert!(ctx.drain().is_empty());
    }

    #[test]
    fn watermark_is_monotone() {
        let mut ctx = ReduceCtx::new();
        assert_eq!(ctx.watermark, None);
        ctx.advance_watermark(10);
        ctx.advance_watermark(5);
        assert_eq!(ctx.watermark, Some(10));
        ctx.advance_watermark(20);
        assert_eq!(ctx.watermark, Some(20));
    }

    #[test]
    fn default_hooks_are_absent() {
        let j = CountJob;
        assert!(j.combiner().is_none());
        assert!(j.incremental().is_none());
        assert!(j.expected_keys().is_none());
        assert!(j.state_size_hint().is_none());
        assert!(!j.partition_preserving());
    }

    /// Overrides every hook `CountJob` leaves at its default.
    struct HintedJob;
    impl Job for HintedJob {
        fn name(&self) -> &str {
            "hinted"
        }
        fn map(&self, record: &[u8], emit: &mut dyn FnMut(&[u8], &[u8])) {
            CountJob.map(record, emit);
        }
        fn reduce(&self, key: &Key, values: Vec<Value>, ctx: &mut ReduceCtx) {
            CountJob.reduce(key, values, ctx);
        }
        fn incremental(&self) -> Option<&dyn IncrementalReducer> {
            Some(&EchoInc)
        }
        fn expected_keys(&self) -> Option<u64> {
            Some(7)
        }
        fn state_size_hint(&self) -> Option<u64> {
            Some(9)
        }
        fn partition_preserving(&self) -> bool {
            true
        }
    }

    #[test]
    fn boxed_and_borrowed_jobs_forward_every_hook() {
        fn hooks(j: impl Job) -> (String, bool, Option<u64>, Option<u64>, bool) {
            let mut emitted = 0;
            j.map(b"r", &mut |_, _| emitted += 1);
            assert_eq!(emitted, 1);
            (
                j.name().to_string(),
                j.incremental().is_some(),
                j.expected_keys(),
                j.state_size_hint(),
                j.partition_preserving(),
            )
        }
        let want = ("hinted".to_string(), true, Some(7), Some(9), true);
        let boxed: Box<dyn Job> = Box::new(HintedJob);
        assert_eq!(hooks(&*boxed), want);
        assert_eq!(hooks(boxed), want);
        assert!(!hooks(&CountJob).1 && hooks(&CountJob).2.is_none());
    }

    struct EchoInc;
    impl IncrementalReducer for EchoInc {
        fn init(&self, _k: &Key, v: &[u8]) -> Value {
            Value::from_slice(v)
        }
        fn cb(&self, _k: &Key, acc: &mut Value, other: Value, _ctx: &mut ReduceCtx) {
            let mut b = acc.bytes().to_vec();
            b.extend_from_slice(other.bytes());
            *acc = Value::new(b);
        }
        fn finalize(&self, k: &Key, state: Value, ctx: &mut ReduceCtx) {
            ctx.emit(k.clone(), state);
        }
    }

    #[test]
    fn default_evict_spills_state_unchanged() {
        let inc = EchoInc;
        let mut ctx = ReduceCtx::new();
        let out = inc.evict(&Key::from("k"), Value::from("abc"), Some(5), &mut ctx);
        assert_eq!(out, Some(Value::from("abc")));
        assert_eq!(ctx.pending(), 0);
    }
}
