//! Which keys stay resident: the byte accounting and the LFU victim rule
//! shared by every [`GroupTable`] that is held to a memory budget — the
//! map-side collapse table, the node staging table, INC-hash's table `H`
//! and the spilled-bucket pass. Each caller keeps what is genuinely its
//! own (what happens to a displaced entry, which other conditions an
//! admission must meet); the sizes and the "strictly hotter" rule live
//! here, once.

use crate::api::{IncrementalReducer, ReduceCtx};
use opa_common::{FreqSketch, GroupTable, Key, Value};

/// Per-entry bookkeeping overhead charged against a memory budget
/// (hash-table slot, indices), mirroring the byte-array memory managers of
/// the prototype (§5).
const ENTRY_OVERHEAD: u64 = 16;

/// How many resident keys an LFU victim scan examines per table-full
/// arrival. A small constant keeps the gate O(1) while the rotating cursor
/// guarantees every resident is eventually considered.
const VICTIM_PROBES: usize = 4;

/// Bytes a resident key-state entry is charged against its budget.
pub(crate) fn entry_size(inc: &dyn IncrementalReducer, key: &Key, state: &Value) -> u64 {
    key.len() as u64 + inc.state_mem_size(state) + ENTRY_OVERHEAD
}

/// Folds `state` into the resident accumulator `acc` with `cb()` and moves
/// `used` by the accumulator's signed size change.
pub(crate) fn cb_sized(
    inc: &dyn IncrementalReducer,
    key: &Key,
    acc: &mut Value,
    state: Value,
    ctx: &mut ReduceCtx,
    used: &mut u64,
) {
    let before = inc.state_mem_size(acc);
    inc.cb(key, acc, state, ctx);
    *used = (*used + inc.state_mem_size(acc)).saturating_sub(before);
}

/// The LFU admission rule for a full table: scan a few residents from the
/// rotating `cursor` and return the coldest — provided the newcomer, whose
/// fingerprint is `fp`, is *strictly* hotter by the sketch. A pure function
/// of (table, sketch, cursor), all of which are pure functions of the
/// arrival order, so decisions repeat at any thread count.
pub(crate) fn colder_resident<V>(
    table: &GroupTable<V>,
    cursor: &mut u64,
    sketch: &FreqSketch,
    fp: u64,
) -> Option<usize> {
    let (victim, score) = table.coldest(cursor, VICTIM_PROBES, |f| sketch.estimate(f))?;
    (sketch.estimate(fp) > score).then_some(victim)
}
