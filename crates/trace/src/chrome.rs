//! Chrome trace-event export (Perfetto / `chrome://tracing`).
//!
//! Renders a trace as the JSON object format of the Trace Event spec:
//! each simulated node becomes a process (`pid`), with one thread lane
//! per operation class (map/shuffle/merge/reduce/disk), so loading the
//! file in <https://ui.perfetto.dev> reproduces the paper's Fig 2/Fig 7
//! task-timeline plots directly from a run. Virtual timestamps are
//! already microseconds — the spec's `ts` unit — so no scaling happens.
//!
//! Fault decisions, retries, batch seals and checkpoints appear as
//! instant events on a synthetic `control` process.

use crate::event::{fault_kind_label, io_category_label, SpanKind, TraceEvent};
use std::collections::BTreeSet;

/// Thread-lane ids within each node process.
const LANE_MAP: u32 = 0;
const LANE_SHUFFLE: u32 = 1;
const LANE_MERGE: u32 = 2;
const LANE_REDUCE: u32 = 3;
const LANE_DISK: u32 = 4;

fn lane(kind: SpanKind) -> u32 {
    match kind {
        SpanKind::Map => LANE_MAP,
        SpanKind::Shuffle => LANE_SHUFFLE,
        SpanKind::Merge => LANE_MERGE,
        SpanKind::Reduce => LANE_REDUCE,
    }
}

/// Renders `events` in Chrome trace-event JSON object format.
pub fn to_chrome(events: &[TraceEvent]) -> String {
    // Pass 1: which nodes exist? (Names every pid, and places the
    // control track past the last node.)
    let nodes: BTreeSet<u32> = events.iter().filter_map(TraceEvent::node).collect();
    let control_pid = nodes.iter().next_back().map_or(0, |n| n + 1);

    let mut out = String::with_capacity(events.len() * 128 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&s);
    };

    for &node in &nodes {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{node},\"tid\":0,\"args\":{{\"name\":\"node {node}\"}}}}"
            ),
            &mut first,
        );
        for (tid, name) in [
            (LANE_MAP, "map"),
            (LANE_SHUFFLE, "shuffle"),
            (LANE_MERGE, "merge"),
            (LANE_REDUCE, "reduce"),
            (LANE_DISK, "disk"),
        ] {
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{node},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
                ),
                &mut first,
            );
        }
    }
    push(
        format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{control_pid},\"tid\":0,\"args\":{{\"name\":\"control\"}}}}"
        ),
        &mut first,
    );

    for ev in events {
        match *ev {
            TraceEvent::Span { t0, t, node, kind } => push(
                format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{node},\"tid\":{},\"ts\":{t0},\"dur\":{}}}",
                    kind.label(),
                    lane(kind),
                    t.saturating_sub(t0)
                ),
                &mut first,
            ),
            TraceEvent::Io {
                t0,
                t,
                node,
                cat,
                read,
                written,
                seeks,
                recovery,
            } => push(
                format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{node},\"tid\":{LANE_DISK},\"ts\":{t0},\"dur\":{},\"args\":{{\"read\":{read},\"written\":{written},\"seeks\":{seeks},\"recovery\":{}}}}}",
                    io_category_label(cat),
                    t.saturating_sub(t0),
                    u8::from(recovery)
                ),
                &mut first,
            ),
            TraceEvent::MapStart {
                t,
                chunk,
                attempt,
                node,
            } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"map_start c{chunk}\",\"pid\":{node},\"tid\":{LANE_MAP},\"ts\":{t},\"s\":\"t\",\"args\":{{\"chunk\":{chunk},\"attempt\":{attempt}}}}}"
                ),
                &mut first,
            ),
            TraceEvent::MapFinish {
                t,
                chunk,
                node,
                output_bytes,
                spill_bytes,
                ..
            } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"map_finish c{chunk}\",\"pid\":{node},\"tid\":{LANE_MAP},\"ts\":{t},\"s\":\"t\",\"args\":{{\"output_bytes\":{output_bytes},\"spill_bytes\":{spill_bytes}}}}}"
                ),
                &mut first,
            ),
            TraceEvent::Shuffle {
                t0,
                t,
                from_node,
                reducer,
                bytes,
            } => push(
                format!(
                    "{{\"ph\":\"X\",\"name\":\"to r{reducer}\",\"pid\":{from_node},\"tid\":{LANE_SHUFFLE},\"ts\":{t0},\"dur\":{},\"args\":{{\"bytes\":{bytes}}}}}",
                    t.saturating_sub(t0)
                ),
                &mut first,
            ),
            TraceEvent::NodeCombine {
                t0,
                t,
                node,
                bytes_in,
                bytes_out,
                keys,
            } => push(
                format!(
                    "{{\"ph\":\"X\",\"name\":\"node_combine\",\"pid\":{node},\"tid\":{LANE_SHUFFLE},\"ts\":{t0},\"dur\":{},\"args\":{{\"bytes_in\":{bytes_in},\"bytes_out\":{bytes_out},\"keys\":{keys}}}}}",
                    t.saturating_sub(t0)
                ),
                &mut first,
            ),
            TraceEvent::ReduceStart { t, reducer, node } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"reduce_start r{reducer}\",\"pid\":{node},\"tid\":{LANE_REDUCE},\"ts\":{t},\"s\":\"t\"}}"
                ),
                &mut first,
            ),
            TraceEvent::ReduceFinish { t, reducer, node } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"reduce_finish r{reducer}\",\"pid\":{node},\"tid\":{LANE_REDUCE},\"ts\":{t},\"s\":\"t\"}}"
                ),
                &mut first,
            ),
            TraceEvent::Fault {
                t,
                kind,
                target,
                attempt,
            } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"fault {}\",\"pid\":{control_pid},\"tid\":0,\"ts\":{t},\"s\":\"g\",\"args\":{{\"target\":{target},\"attempt\":{attempt}}}}}",
                    fault_kind_label(kind)
                ),
                &mut first,
            ),
            TraceEvent::Retry {
                t,
                kind,
                target,
                attempt,
            } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"retry {}\",\"pid\":{control_pid},\"tid\":0,\"ts\":{t},\"s\":\"g\",\"args\":{{\"target\":{target},\"attempt\":{attempt}}}}}",
                    fault_kind_label(kind)
                ),
                &mut first,
            ),
            TraceEvent::BatchSeal {
                t,
                batch,
                batches,
                records,
            } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"seal {batch}/{batches}\",\"pid\":{control_pid},\"tid\":0,\"ts\":{t},\"s\":\"g\",\"args\":{{\"records\":{records}}}}}"
                ),
                &mut first,
            ),
            TraceEvent::Checkpoint { t, batch, bytes } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"checkpoint {batch}\",\"pid\":{control_pid},\"tid\":0,\"ts\":{t},\"s\":\"g\",\"args\":{{\"bytes\":{bytes}}}}}"
                ),
                &mut first,
            ),
            TraceEvent::Admission {
                t,
                reducer,
                offered,
                absorbed,
                evictions,
                rejected,
            } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"admission r{reducer}\",\"pid\":{control_pid},\"tid\":0,\"ts\":{t},\"s\":\"g\",\"args\":{{\"offered\":{offered},\"absorbed\":{absorbed},\"evictions\":{evictions},\"rejected\":{rejected}}}}}"
                ),
                &mut first,
            ),
            TraceEvent::Poison {
                t,
                chunk,
                offset,
                attempt,
            } => push(
                format!(
                    "{{\"ph\":\"i\",\"name\":\"poison c{chunk}\",\"pid\":{control_pid},\"tid\":0,\"ts\":{t},\"s\":\"g\",\"args\":{{\"offset\":{offset},\"attempt\":{attempt}}}}}"
                ),
                &mut first,
            ),
            // Serving-layer and dataflow-level events use ordinal
            // timestamps (scheduler rounds / stage indices) from a
            // different clock domain than the engine's virtual µs; they
            // are omitted from the per-job Chrome timeline.
            _ => {}
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use opa_common::fault::FaultKind;
    use opa_simio::IoCategory;

    #[test]
    fn chrome_output_is_valid_json_with_expected_shape() {
        let events = vec![
            TraceEvent::Span {
                t0: 5,
                t: 25,
                node: 1,
                kind: SpanKind::Map,
            },
            TraceEvent::Io {
                t0: 25,
                t: 30,
                node: 1,
                cat: IoCategory::MapInput,
                read: 64,
                written: 0,
                seeks: 1,
                recovery: false,
            },
            TraceEvent::Fault {
                t: 7,
                kind: FaultKind::MapFailure,
                target: 0,
                attempt: 0,
            },
        ];
        let text = to_chrome(&events);
        let v = JsonValue::parse(&text).expect("valid JSON");
        let arr = match v.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // 6 metadata rows for node 1, 1 for control, 3 events.
        assert_eq!(arr.len(), 10, "{text}");
        let span = arr
            .iter()
            .find(|e| e.str_field("ph") == Ok("X") && e.str_field("name") == Ok("map"))
            .expect("map span present");
        assert_eq!(span.u64_field("ts").unwrap(), 5);
        assert_eq!(span.u64_field("dur").unwrap(), 20);
        assert_eq!(span.u64_field("pid").unwrap(), 1);
        // Control process sits past the last node.
        let fault = arr
            .iter()
            .find(|e| matches!(e.str_field("name"), Ok(n) if n.starts_with("fault")))
            .expect("fault instant present");
        assert_eq!(fault.u64_field("pid").unwrap(), 2);
        assert_eq!(fault.str_field("ph").unwrap(), "i");
    }
}
