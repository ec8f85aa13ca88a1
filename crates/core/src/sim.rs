//! Discrete-event simulation primitives: per-node disk queues, CPU/disk
//! utilization accounting, and the task timeline behind Fig. 2(a).
//!
//! Each node owns one or two disk queues (one when intermediate data shares
//! the HDFS device — the paper's default — two for the Fig 2(d) SSD
//! variant). A queue serializes requests: an operation requested at `t` is
//! serviced at `max(t, free_at)` and the requester blocks until completion,
//! which is how disk contention between co-located map tasks, shuffles and
//! merges arises without an explicit queueing model.

use crate::cost::CostModel;
use opa_common::units::{SimDuration, SimTime};
use opa_simio::{IoCategory, IoOp, IoStats};
use opa_trace::{SpanKind, TraceEvent, TraceLog, Tracer};

// The workspace names the timeline's operation classes as
// `opa_trace::SpanKind`; `opa_perf` is this re-export's only user, and
// ROADMAP item 5(b) removes it.
pub use opa_trace::SpanKind as OpKind;

/// One timeline interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Operation class.
    pub kind: SpanKind,
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval.
    pub end: SimTime,
}

/// Cluster-wide busy-time accounting in fixed-width buckets, from which the
/// harness derives CPU-utilization and disk-busy (iowait-proxy) series.
///
/// Buckets hold whole microseconds, so an interval adds exactly what its
/// pieces would: the series do not depend on how a stretch of work is split
/// into charges (one interval per run of tuples, or one per tuple).
#[derive(Debug, Clone, PartialEq)]
pub struct Usage {
    /// Bucket width in seconds.
    pub bucket_secs: f64,
    /// CPU busy microseconds per bucket (all nodes pooled).
    pub cpu: Vec<u64>,
    /// Disk busy microseconds per bucket (all devices pooled).
    pub disk: Vec<u64>,
    /// Bucket width in microseconds.
    width: u64,
    nodes: usize,
    cores_per_node: usize,
}

impl Usage {
    fn new(width: SimDuration, nodes: usize, cores_per_node: usize) -> Self {
        assert!(width.0 > 0, "bucket width must be positive");
        Usage {
            bucket_secs: width.as_secs_f64(),
            cpu: Vec::new(),
            disk: Vec::new(),
            width: width.0,
            nodes,
            cores_per_node,
        }
    }

    /// Adds `[start, end)` to `series`. An interval that ends exactly on a
    /// bucket edge opens the bucket after it, with nothing in it.
    fn add(series: &mut Vec<u64>, width: u64, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        let first = (start.0 / width) as usize;
        let last = (end.0 / width) as usize;
        if series.len() <= last {
            series.resize(last + 1, 0);
        }
        for (b, slot) in series.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = b as u64 * width;
            *slot += end.0.min(lo + width) - start.0.max(lo);
        }
    }

    fn add_cpu(&mut self, start: SimTime, end: SimTime) {
        Self::add(&mut self.cpu, self.width, start, end);
    }

    fn add_disk(&mut self, start: SimTime, end: SimTime) {
        Self::add(&mut self.disk, self.width, start, end);
    }

    /// CPU utilization percentage per bucket (busy cores / total cores).
    pub fn cpu_utilization(&self) -> Vec<f64> {
        let cap = self.bucket_secs * (self.nodes * self.cores_per_node) as f64;
        self.cpu
            .iter()
            .map(|&b| 100.0 * SimDuration(b).as_secs_f64() / cap)
            .collect()
    }

    /// Disk busy percentage per bucket — the engine's proxy for the
    /// paper's CPU-iowait curves (the disks are the blocking resource).
    pub fn disk_busy(&self) -> Vec<f64> {
        let cap = self.bucket_secs * self.nodes as f64;
        self.disk
            .iter()
            .map(|&b| (100.0 * SimDuration(b).as_secs_f64() / cap).min(100.0))
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct DiskQueue {
    free_at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct NodeRes {
    hdfs: DiskQueue,
    spill: DiskQueue,
}

/// All shared simulated resources of one job run.
#[derive(Debug)]
pub struct Resources {
    nodes: Vec<NodeRes>,
    /// Whether intermediate data shares the HDFS device (the default).
    shared_device: bool,
    /// Busy-time accounting.
    pub usage: Usage,
    /// Task timeline spans.
    pub timeline: Vec<Span>,
    /// Job-wide I/O statistics (first pass and recovery combined — what
    /// the devices actually served).
    pub io: IoStats,
    /// The recovery-only share of [`Resources::io`]: I/O re-done while
    /// re-replaying reduce work lost to an injected crash. Subtracting it
    /// recovers the fault-free first pass the §3 model predicts
    /// (`JobMetrics::io_first_pass`).
    pub io_recovery: IoStats,
    /// Optional spill-disk error injector (fault-injection subsystem).
    disk_faults: Option<opa_simio::DiskFaultInjector>,
    /// Structured event collector; `None` (the default) keeps tracing
    /// zero-cost.
    trace: Option<Box<Tracer>>,
    /// Whether I/O charged right now is fault-recovery re-replay.
    in_recovery: bool,
}

impl Resources {
    /// Builds resources for `nodes` nodes. `separate_spill_device` selects
    /// the Fig 2(d) topology (intermediate data on its own device).
    pub fn new(nodes: usize, cores_per_node: usize, separate_spill_device: bool) -> Self {
        Resources {
            nodes: vec![
                NodeRes {
                    hdfs: DiskQueue {
                        free_at: SimTime::ZERO
                    },
                    spill: DiskQueue {
                        free_at: SimTime::ZERO
                    },
                };
                nodes
            ],
            shared_device: !separate_spill_device,
            usage: Usage::new(SimDuration::from_secs_f64(10.0), nodes, cores_per_node),
            timeline: Vec::new(),
            io: IoStats::new(),
            io_recovery: IoStats::new(),
            disk_faults: None,
            trace: None,
            in_recovery: false,
        }
    }

    /// Turns on structured event collection for this run. All emission
    /// happens scheduler-side in event order, so the resulting trace is
    /// bit-identical at any execution-thread count.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Box::new(Tracer::new()));
    }

    /// Appends one event to the trace, if tracing is on.
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    /// Detaches the collected trace (if tracing was on).
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        self.trace.take().map(|t| t.into_log())
    }

    /// Marks subsequent I/O as fault-recovery re-replay: it still hits
    /// [`Resources::io`] (the device really served it) but is mirrored
    /// into [`Resources::io_recovery`] and flagged in the trace.
    pub fn begin_recovery(&mut self) {
        self.in_recovery = true;
    }

    /// Ends the recovery window opened by [`Resources::begin_recovery`].
    pub fn end_recovery(&mut self) {
        self.in_recovery = false;
    }

    /// Arms spill-disk error injection. Disk operations keep their logical
    /// byte accounting; injected errors only repeat the operation's busy
    /// time and are reported through the injector.
    pub fn set_disk_faults(&mut self, injector: opa_simio::DiskFaultInjector) {
        self.disk_faults = Some(injector);
    }

    /// Disarms and returns the injector, with its accumulated error trace.
    pub fn take_disk_faults(&mut self) -> Option<opa_simio::DiskFaultInjector> {
        self.disk_faults.take()
    }

    /// Performs an I/O operation on a node's HDFS device starting no
    /// earlier than `t`; records it under `cat` and returns completion.
    pub fn hdfs_io(
        &mut self,
        node: usize,
        t: SimTime,
        cat: IoCategory,
        op: IoOp,
        cost: &CostModel,
    ) -> SimTime {
        if op.is_none() {
            return t;
        }
        self.io.record(cat, op);
        if self.in_recovery {
            self.io_recovery.record(cat, op);
        }
        let dur = cost.hdfs_time(op);
        let q = &mut self.nodes[node].hdfs;
        let start = t.max(q.free_at);
        let end = start + dur;
        q.free_at = end;
        self.usage.add_disk(start, end);
        self.emit_io(node, start, end, cat, op);
        end
    }

    /// Performs an I/O operation on a node's intermediate-data device.
    /// Falls back to the HDFS queue when the devices are shared.
    pub fn spill_io(
        &mut self,
        node: usize,
        t: SimTime,
        cat: IoCategory,
        op: IoOp,
        cost: &CostModel,
    ) -> SimTime {
        if op.is_none() {
            return t;
        }
        self.io.record(cat, op);
        if self.in_recovery {
            self.io_recovery.record(cat, op);
        }
        let dur = cost.spill_time(op);
        let n = &mut self.nodes[node];
        let q = if self.shared_device {
            &mut n.hdfs
        } else {
            &mut n.spill
        };
        let start = t.max(q.free_at);
        // Injected errors repeat the whole operation: a torn write (or a
        // read that returned garbage) moves the same bytes again.
        let failures = match self.disk_faults.as_mut() {
            Some(inj) => inj.inject(start, op.read + op.written),
            None => 0,
        };
        let mut end = start + dur;
        for _ in 0..failures {
            end += dur;
        }
        q.free_at = end;
        self.usage.add_disk(start, end);
        self.emit_io(node, start, end, cat, op);
        end
    }

    #[inline]
    fn emit_io(&mut self, node: usize, start: SimTime, end: SimTime, cat: IoCategory, op: IoOp) {
        if let Some(tr) = self.trace.as_mut() {
            tr.push(TraceEvent::Io {
                t0: start.0,
                t: end.0,
                node: node as u32,
                cat,
                read: op.read,
                written: op.written,
                seeks: op.seeks,
                recovery: self.in_recovery,
            });
        }
    }

    /// Charges `dur` of CPU time starting at `t` (slots, not this method,
    /// bound concurrency). Returns completion.
    pub fn cpu(&mut self, _node: usize, t: SimTime, dur: SimDuration) -> SimTime {
        let end = t + dur;
        self.usage.add_cpu(t, end);
        end
    }

    /// Records a timeline span on `node`.
    pub fn span(&mut self, node: usize, kind: SpanKind, start: SimTime, end: SimTime) {
        if end > start {
            self.timeline.push(Span { kind, start, end });
            if let Some(tr) = self.trace.as_mut() {
                tr.push(TraceEvent::Span {
                    t0: start.0,
                    t: end.0,
                    node: node as u32,
                    kind,
                });
            }
        }
    }

    /// Per-node disk-queue availability `(hdfs_free_at, spill_free_at)` in
    /// microseconds — checkpointed by the stream runtime because queue
    /// occupancy feeds granule and delivery times, and therefore delivery
    /// *order*, on resume.
    pub fn export_disk_free(&self) -> Vec<(u64, u64)> {
        self.nodes
            .iter()
            .map(|n| (n.hdfs.free_at.0, n.spill.free_at.0))
            .collect()
    }

    /// Restores per-node disk-queue availability from
    /// [`Resources::export_disk_free`] output.
    ///
    /// # Panics
    /// Panics if `free` does not have one entry per node.
    pub fn restore_disk_free(&mut self, free: &[(u64, u64)]) {
        assert_eq!(free.len(), self.nodes.len(), "node count mismatch");
        for (n, &(h, s)) in self.nodes.iter_mut().zip(free) {
            n.hdfs.free_at = SimTime(h);
            n.spill.free_at = SimTime(s);
        }
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking: an entry's
/// key is `(time, seq)`, `seq` counting up from the first push.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: std::collections::BinaryHeap<QueueEntry<E>>,
    seq: u64,
    /// Entries pushed so far, re-queued ones included.
    #[cfg(test)]
    pub(crate) pushes: u64,
}

#[derive(Debug)]
struct QueueEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for QueueEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for QueueEntry<E> {}
impl<E> PartialOrd for QueueEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for QueueEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
            #[cfg(test)]
            pushes: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.reserve(1);
        self.push_seq(time, seq, event);
    }

    /// Reserves `n` consecutive sequence numbers, as `n` pushes would take
    /// them, and returns the first. An event that stands for several
    /// pushes is queued under one of them with [`EventQueue::push_seq`].
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedules `event` at `time` under a sequence number taken from
    /// [`EventQueue::reserve`]; the key `(time, seq)` must not be queued.
    pub fn push_seq(&mut self, time: SimTime, seq: u64, event: E) {
        #[cfg(test)]
        {
            self.pushes += 1;
        }
        self.heap.push(QueueEntry { time, seq, event });
    }

    /// Pops the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The earliest event without removing it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// The `(time, seq)` key of the earliest event.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Every pending event with its `(time, seq)` key, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.heap.iter().map(|e| (e.time, e.seq, &e.event))
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::units::KB;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn event_queue_orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(t(5.0), "late");
        q.push(t(1.0), "first");
        q.push(t(1.0), "second");
        q.push(t(0.5), "earliest");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek(), Some((t(0.5), &"earliest")));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["earliest", "first", "second", "late"]);
        assert!(q.is_empty());
    }

    #[test]
    fn disk_queue_serializes_requests() {
        let cost = CostModel::paper_scaled();
        let mut res = Resources::new(2, 4, false);
        // Two requests at t=0 on the same node queue back-to-back.
        let op = IoOp::read(80 * KB); // ~1.004 s at scaled 80 MB/s
        let e1 = res.hdfs_io(0, SimTime::ZERO, IoCategory::MapInput, op, &cost);
        let e2 = res.hdfs_io(0, SimTime::ZERO, IoCategory::MapInput, op, &cost);
        assert!(e2 > e1);
        assert!((e2.as_secs_f64() - 2.0 * e1.as_secs_f64()).abs() < 1e-6);
        // A different node is unaffected.
        let e3 = res.hdfs_io(1, SimTime::ZERO, IoCategory::MapInput, op, &cost);
        assert_eq!(e3, e1);
    }

    #[test]
    fn shared_device_couples_hdfs_and_spill() {
        let cost = CostModel::paper_scaled();
        let op = IoOp::write(80 * KB);
        let mut shared = Resources::new(1, 4, false);
        let h = shared.hdfs_io(0, SimTime::ZERO, IoCategory::MapInput, op, &cost);
        let s = shared.spill_io(0, SimTime::ZERO, IoCategory::ReduceSpill, op, &cost);
        assert!(s > h, "spill should queue behind HDFS on a shared device");

        let mut split = Resources::new(1, 4, true);
        let h2 = split.hdfs_io(0, SimTime::ZERO, IoCategory::MapInput, op, &cost);
        let s2 = split.spill_io(0, SimTime::ZERO, IoCategory::ReduceSpill, op, &cost);
        assert_eq!(
            s2.as_secs_f64(),
            h2.as_secs_f64(),
            "separate devices serve in parallel"
        );
    }

    #[test]
    fn zero_ops_are_free_and_unrecorded() {
        let cost = CostModel::paper_scaled();
        let mut res = Resources::new(1, 4, false);
        let end = res.hdfs_io(0, t(3.0), IoCategory::MapInput, IoOp::NONE, &cost);
        assert_eq!(end, t(3.0));
        assert_eq!(res.io.total_bytes(), 0);
        assert_eq!(res.io.total_seeks(), 0);
    }

    const BUCKET: SimDuration = SimDuration(10_000_000);

    #[test]
    fn usage_buckets_accumulate() {
        let mut u = Usage::new(BUCKET, 1, 4);
        u.add_cpu(t(5.0), t(25.0)); // spans buckets 0,1,2
        assert_eq!(u.cpu, [5_000_000, 10_000_000, 5_000_000]);
        // Bucket 1: 10 busy seconds / (10 s × 4 cores) = 25%.
        assert_eq!(u.cpu_utilization(), [12.5, 25.0, 12.5]);
        // Ending exactly on an edge fills bucket 2 and opens an empty
        // bucket 3, as the float buckets did.
        u.add_cpu(t(25.0), t(30.0));
        assert_eq!(u.cpu, [5_000_000, 10_000_000, 10_000_000, 0]);
        u.add_cpu(t(7.0), t(7.0)); // empty
        assert_eq!(u.cpu.len(), 4);
    }

    #[test]
    fn usage_does_not_depend_on_how_work_is_split() {
        // One interval per run against one per tuple, across two edges.
        let (start, step, n) = (SimTime(9_999_990), 7u64, 1_500_000u64);
        let mut whole = Usage::new(BUCKET, 2, 4);
        whole.add_cpu(start, SimTime(start.0 + step * n));
        let mut split = Usage::new(BUCKET, 2, 4);
        for j in 0..n {
            split.add_cpu(
                SimTime(start.0 + step * j),
                SimTime(start.0 + step * (j + 1)),
            );
        }
        assert_eq!(whole, split);
        assert_eq!(whole.cpu, [10, 10_000_000, 499_990]);
    }

    /// The float buckets `Usage` accumulated before it counted whole
    /// microseconds, kept as the oracle for what the integer series mean.
    fn add_float(series: &mut Vec<f64>, bucket_secs: f64, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        let (s, e) = (start.as_secs_f64(), end.as_secs_f64());
        let first = (s / bucket_secs) as usize;
        let last = (e / bucket_secs) as usize;
        if series.len() <= last {
            series.resize(last + 1, 0.0);
        }
        for (b, slot) in series.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = (b as f64) * bucket_secs;
            let hi = lo + bucket_secs;
            *slot += (e.min(hi) - s.max(lo)).max(0.0);
        }
    }

    #[test]
    fn integer_buckets_agree_with_the_float_oracle() {
        let mut rng = opa_common::rng::SplitMix64::new(19);
        let mut u = Usage::new(BUCKET, 1, 1);
        let mut oracle: Vec<f64> = Vec::new();
        for _ in 0..20_000 {
            // Mostly tuple-sized charges, some spanning several buckets,
            // some ending exactly on an edge.
            let start = SimTime(rng.next_below(90_000_000));
            let end = match rng.next_below(10) {
                0 => SimTime(start.0 + rng.next_below(35_000_000)),
                1 => SimTime((start.0 / BUCKET.0 + 1) * BUCKET.0),
                _ => SimTime(start.0 + rng.next_below(20)),
            };
            u.add_disk(start, end);
            add_float(&mut oracle, u.bucket_secs, start, end);
        }
        assert_eq!(u.disk.len(), oracle.len(), "same buckets opened");
        for (&us, &secs) in u.disk.iter().zip(&oracle) {
            let exact = SimDuration(us).as_secs_f64();
            assert!(
                (exact - secs).abs() <= 1e-9 * exact.max(1.0),
                "{exact} vs {secs}"
            );
        }
    }

    #[test]
    fn spans_drop_empty_intervals() {
        let mut res = Resources::new(1, 4, false);
        res.span(0, SpanKind::Map, t(1.0), t(1.0));
        res.span(0, SpanKind::Map, t(1.0), t(2.0));
        assert_eq!(res.timeline.len(), 1);
    }

    #[test]
    fn io_stats_flow_through() {
        let cost = CostModel::free();
        let mut res = Resources::new(1, 4, false);
        let _ = res.spill_io(
            0,
            SimTime::ZERO,
            IoCategory::ReduceSpill,
            IoOp::write(100),
            &cost,
        );
        assert_eq!(res.io.written_bytes(IoCategory::ReduceSpill), 100);
    }
}
