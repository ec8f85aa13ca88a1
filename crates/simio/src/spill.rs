//! Spill files: simulated on-disk runs of records.
//!
//! Both the sort-merge baseline (sorted runs + merged files, Fig. 3 of the
//! paper) and the hash frameworks (bucket files) stage intermediate data to
//! disk. A [`SpillStore`] keeps each staged run in memory while accounting
//! for it as disk traffic: writing a run and reading it back each return an
//! [`IoOp`] the engine prices and records.

use crate::iostats::IoOp;
use opa_common::Pair;

/// Identifier of a spill file within one [`SpillStore`].
pub type FileId = usize;

/// One staged run.
#[derive(Debug, Clone)]
pub struct SpillFile {
    /// Store-unique id.
    pub id: FileId,
    /// The staged records, in the order they were written.
    pub records: Vec<Pair>,
    /// Serialized size of the run in bytes.
    pub bytes: u64,
}

/// An append-only collection of spill files belonging to one task.
///
/// Files are created whole (one sequential write) and consumed whole (one
/// sequential read); removal models the deletion of inputs after a merge.
#[derive(Debug, Default)]
pub struct SpillStore {
    files: Vec<Option<SpillFile>>,
    /// Total bytes ever written into this store (spill volume).
    written_bytes: u64,
}

impl SpillStore {
    /// An empty store.
    pub fn new() -> Self {
        SpillStore {
            files: Vec::new(),
            written_bytes: 0,
        }
    }

    /// Writes a run to disk. Returns the new file's id and the write
    /// operation to charge.
    pub fn write_file(&mut self, records: Vec<Pair>) -> (FileId, IoOp) {
        let bytes: u64 = records.iter().map(Pair::size).sum();
        let id = self.files.len();
        self.files.push(Some(SpillFile { id, records, bytes }));
        self.written_bytes += bytes;
        (id, IoOp::write(bytes))
    }

    /// Reads a live file without consuming it (snapshots re-read inputs
    /// that later merges still need). Returns a copy of the records and
    /// the read operation to charge.
    pub fn read_file(&mut self, id: FileId) -> Option<(Vec<Pair>, IoOp)> {
        let f = self.files.get(id)?.as_ref()?;
        Some((f.records.clone(), IoOp::read(f.bytes)))
    }

    /// Reads a file back and deletes it (merge inputs are consumed).
    /// Returns `None` if the id is unknown or already consumed.
    pub fn take_file(&mut self, id: FileId) -> Option<(SpillFile, IoOp)> {
        let f = self.files.get_mut(id)?.take()?;
        let op = IoOp::read(f.bytes);
        Some((f, op))
    }

    /// Ids and sizes of all live files, in creation order.
    pub fn live_files(&self) -> impl Iterator<Item = (FileId, u64)> + '_ {
        self.files.iter().flatten().map(|f| (f.id, f.bytes))
    }

    /// Total bytes of live files.
    pub fn live_bytes(&self) -> u64 {
        self.files.iter().flatten().map(|f| f.bytes).sum()
    }

    /// Total bytes ever written (the "reduce spill" / "map spill" metric of
    /// Tables 1, 3 and 4).
    pub fn total_written(&self) -> u64 {
        self.written_bytes
    }

    /// Copies of all live runs, in creation order — the checkpoint
    /// counterpart of [`SpillStore::restore`]. Consumed files are not
    /// exported (their contents were merged into later runs).
    pub fn export_runs(&self) -> Vec<Vec<Pair>> {
        self.files
            .iter()
            .flatten()
            .map(|f| f.records.clone())
            .collect()
    }

    /// Rebuilds a store holding the given runs as its live files, ids
    /// compacted to `0..runs.len()`. Callers must not hold [`FileId`]s from
    /// the original store across a restore; relative creation order (and
    /// therefore merge-selection order) is preserved. `total_written`
    /// restarts at the live volume — spill metrics cover the restored
    /// portion of a run only.
    pub fn restore(runs: Vec<Vec<Pair>>) -> Self {
        let mut s = SpillStore::new();
        for run in runs {
            let _ = s.write_file(run);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::{Key, Value};

    fn pairs(n: usize) -> Vec<Pair> {
        (0..n)
            .map(|i| Pair::new(Key::from_u64(i as u64), Value::from_u64(1)))
            .collect()
    }

    #[test]
    fn write_then_take_roundtrips_records() {
        let mut s = SpillStore::new();
        let run = pairs(10);
        let total: u64 = run.iter().map(|p| p.size()).sum();
        let (id, wop) = s.write_file(run.clone());
        assert_eq!(wop.written, total);
        assert_eq!(wop.seeks, 1);
        assert_eq!(s.live_files().count(), 1);
        let (f, rop) = s.take_file(id).unwrap();
        assert_eq!(f.records, run);
        assert_eq!(rop.read, total);
        assert_eq!(s.live_files().count(), 0);
    }

    #[test]
    fn double_take_returns_none() {
        let mut s = SpillStore::new();
        let (id, _op) = s.write_file(pairs(1));
        assert!(s.take_file(id).is_some());
        assert!(s.take_file(id).is_none());
        assert!(s.take_file(999).is_none());
    }

    #[test]
    fn live_files_reflect_consumption() {
        let mut s = SpillStore::new();
        let ids: Vec<_> = (0..5).map(|i| s.write_file(pairs(i + 1)).0).collect();
        let (_f, _op) = s.take_file(ids[2]).unwrap();
        let live: Vec<_> = s.live_files().map(|(id, _)| id).collect();
        assert_eq!(live, vec![0, 1, 3, 4]);
        assert_eq!(s.live_files().count(), 4);
    }

    #[test]
    fn total_written_counts_consumed_files_too() {
        let mut s = SpillStore::new();
        let (id, op) = s.write_file(pairs(4));
        let w = op.written;
        let (_f, _op) = s.take_file(id).unwrap();
        let (_id2, op2) = s.write_file(pairs(2));
        assert_eq!(s.total_written(), w + op2.written);
        assert!(s.live_bytes() < s.total_written());
    }
}
