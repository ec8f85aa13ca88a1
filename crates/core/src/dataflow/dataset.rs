//! The reusable in-memory dataset handle.
//!
//! A [`Dataset`] is one job's output held resident between the stages of a
//! [`Dataflow`](super::Dataflow): the pairs live bucketed by their `h1`
//! partition, and every record carries the `h1` fingerprint computed when
//! it was bucketed. Those carried fingerprints are what make partition
//! compatibility *checkable* rather than assumed — a downstream stage may
//! skip its shuffle only after [`Dataset::verify_placement`] proves every
//! record already sits on the partition the downstream partition function
//! would send it to.

use crate::cluster::ClusterSpec;
use crate::job::JobInput;
use opa_common::hash::{bucket_of, HashFamily};
use opa_common::{encode_kv_into, Error, Pair, Result};
use opa_simio::ckpt::{Kind, SectionReader, SectionWriter};

/// Identity of a partition function: the engine partitions by
/// `bucket_of(h1(key), partitions)` where `h1` is the first member of the
/// universal hash family seeded by `hash_seed`. Two stages share a
/// partitioning exactly when their `PartitionSpec`s are equal — same
/// family seed, same fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Seed of the engine's universal hash family.
    pub hash_seed: u64,
    /// Number of partitions (the cluster's total reducers, `N · R`).
    pub partitions: usize,
}

impl PartitionSpec {
    /// The partition function a job run on `spec` uses.
    pub fn of(spec: &ClusterSpec) -> Self {
        PartitionSpec {
            hash_seed: spec.hash_seed,
            partitions: spec.total_reducers(),
        }
    }
}

/// One job's output pairs, resident in memory, bucketed by `h1` partition
/// and carrying each record's partition-time fingerprint.
///
/// Both `opa run` batch outcomes ([`crate::job::JobOutcome::dataset`]) and
/// the stream driver produce datasets; a [`Dataflow`](super::Dataflow)
/// consumes them. Record order is deterministic: partition-major, original
/// output order within each partition — so a dataset built from a
/// bit-identical `JobOutcome` is itself bit-identical at any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    spec: PartitionSpec,
    /// Per-partition pairs, indexed by partition.
    parts: Vec<Vec<Pair>>,
    /// Per-partition `h1` fingerprints, parallel to `parts`.
    hashes: Vec<Vec<u64>>,
}

impl Dataset {
    /// Buckets `pairs` under the given partition function, computing and
    /// carrying each key's `h1` fingerprint.
    pub fn from_pairs(pairs: Vec<Pair>, spec: PartitionSpec) -> Dataset {
        assert!(spec.partitions > 0, "partition count must be positive");
        let h1 = HashFamily::new(spec.hash_seed).fn_at(0);
        let mut parts: Vec<Vec<Pair>> = vec![Vec::new(); spec.partitions];
        let mut hashes: Vec<Vec<u64>> = vec![Vec::new(); spec.partitions];
        for pair in pairs {
            let h = h1.hash(pair.key.bytes());
            let p = bucket_of(h, spec.partitions);
            parts[p].push(pair);
            hashes[p].push(h);
        }
        Dataset {
            spec,
            parts,
            hashes,
        }
    }

    /// The partition function this dataset is bucketed under.
    pub fn spec(&self) -> PartitionSpec {
        self.spec
    }

    /// Total records across all partitions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Whether the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Vec::is_empty)
    }

    /// Total bytes of the dataset in its framed dataflow-record form —
    /// what the downstream map phase reads
    /// (see [`opa_common::record`]).
    pub fn record_bytes(&self) -> u64 {
        self.pairs()
            .map(|p| 4 + p.key.len() as u64 + p.value.len() as u64)
            .sum()
    }

    /// The pairs of one partition, in output order.
    pub fn partition(&self, p: usize) -> &[Pair] {
        &self.parts[p]
    }

    /// All pairs in canonical (partition-major) order.
    pub fn pairs(&self) -> impl Iterator<Item = &Pair> {
        self.parts.iter().flatten()
    }

    /// Consumes the dataset into its pairs, partition-major.
    pub fn into_pairs(self) -> Vec<Pair> {
        self.parts.into_iter().flatten().collect()
    }

    /// The pairs sorted by key then value — canonical form for
    /// correctness comparisons, matching
    /// [`crate::job::JobOutcome::sorted_output`].
    pub fn sorted_pairs(&self) -> Vec<Pair> {
        let mut out: Vec<Pair> = self.pairs().cloned().collect();
        out.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
        out
    }

    /// Re-encodes the whole dataset as a [`JobInput`] of framed dataflow
    /// records, partition-major: what every chained stage maps over,
    /// whichever handoff it takes, and the exact bytes a
    /// materialize-to-disk handoff reads back.
    pub fn to_input(&self) -> JobInput {
        let mut out = JobInput::builder();
        out.reserve(self.len());
        for pair in self.pairs() {
            out.push_with(|block| encode_kv_into(block, pair.key.bytes(), pair.value.bytes()));
        }
        out.finish()
    }

    /// Checks the carried fingerprints against the dataset's own partition
    /// function: every record must sit on the partition `h1` sends it to.
    /// True by construction after [`Dataset::from_pairs`]; the check
    /// matters after a checkpoint restore or a union, and is the runtime
    /// half of the shuffle-skip compatibility argument.
    pub fn verify_placement(&self) -> bool {
        self.hashes
            .iter()
            .enumerate()
            .all(|(p, hs)| hs.iter().all(|&h| bucket_of(h, self.spec.partitions) == p))
    }

    /// Co-partitioned union: concatenates two datasets that share a
    /// partition function, `a`'s records before `b`'s within each
    /// partition. This is the no-shuffle join primitive — because both
    /// sides are bucketed by the same `h1`, every key's records from both
    /// inputs meet on one partition, verified against the carried
    /// fingerprints. Errors if the specs differ.
    pub fn union(a: &Dataset, b: &Dataset) -> Result<Dataset> {
        if a.spec != b.spec {
            return Err(Error::job(format!(
                "dataset union requires one partition function: \
                 {:?} vs {:?}",
                a.spec, b.spec
            )));
        }
        let mut parts = a.parts.clone();
        let mut hashes = a.hashes.clone();
        for (p, (pairs, hs)) in b.parts.iter().zip(&b.hashes).enumerate() {
            parts[p].extend(pairs.iter().cloned());
            hashes[p].extend(hs.iter().copied());
        }
        let out = Dataset {
            spec: a.spec,
            parts,
            hashes,
        };
        debug_assert!(out.verify_placement());
        Ok(out)
    }

    /// Appends the dataset's sections: one numeric header (seed,
    /// fan-out), then a pair run and its fingerprints per partition.
    pub(crate) fn write_sections(&self, w: &mut SectionWriter) {
        w.nums(&[self.spec.hash_seed, self.spec.partitions as u64]);
        for (pairs, hashes) in self.parts.iter().zip(&self.hashes) {
            w.pairs(pairs).nums(hashes);
        }
    }

    /// Rebuilds a dataset from the [`Dataset::write_sections`] sections `r`
    /// still holds (all of them: leftovers are an error), verifying record
    /// placement against the restored fingerprints.
    pub(crate) fn from_reader(mut r: SectionReader<'_>) -> Result<Dataset> {
        let bad = || Error::job("malformed dataset checkpoint sections");
        let [hash_seed, partitions] = r.nums_exact("dataset header")?;
        // The file-supplied fan-out is believed only if the file holds
        // exactly its two sections per partition.
        let held = r.remaining();
        if partitions == 0 || partitions.checked_mul(2) != Some(held as u64) {
            return Err(bad());
        }
        let partitions = held / 2;
        let mut parts = Vec::with_capacity(partitions);
        let mut hashes = Vec::with_capacity(partitions);
        for _ in 0..partitions {
            let (pairs, hs) = (r.pairs("partition pairs")?, r.nums("fingerprints")?);
            if pairs.len() != hs.len() {
                return Err(bad());
            }
            parts.push(pairs);
            hashes.push(hs);
        }
        let ds = Dataset {
            spec: PartitionSpec {
                hash_seed,
                partitions,
            },
            parts,
            hashes,
        };
        if !ds.verify_placement() {
            return Err(Error::job(
                "dataset checkpoint fails fingerprint placement verification",
            ));
        }
        Ok(ds)
    }

    /// Writes the dataset to a [`Kind::DATASET`] container file (`OPAC`
    /// header + CRC, see [`opa_simio::ckpt`]).
    pub fn write(&self, path: &std::path::Path) -> Result<()> {
        let mut w = SectionWriter::new(Kind::DATASET);
        self.write_sections(&mut w);
        w.write_to(path)
    }

    /// Reads back a dataset written by [`Dataset::write`], verifying the
    /// file's kind, checksum and record placement.
    pub fn read(path: &std::path::Path) -> Result<Dataset> {
        Dataset::from_reader(SectionReader::open(path, Kind::DATASET)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opa_common::{Key, Value};

    fn sample_spec() -> PartitionSpec {
        PartitionSpec {
            hash_seed: 7,
            partitions: 4,
        }
    }

    fn sample() -> Dataset {
        let pairs: Vec<Pair> = (0..64)
            .map(|i| {
                Pair::new(
                    Key::from_slice(format!("key{i}").as_bytes()),
                    Value::from_u64(i),
                )
            })
            .collect();
        Dataset::from_pairs(pairs, sample_spec())
    }

    #[test]
    fn bucketing_matches_engine_partitioning() {
        let ds = sample();
        assert_eq!(ds.len(), 64);
        assert!(ds.verify_placement());
        let h1 = HashFamily::new(7).fn_at(0);
        for p in 0..4 {
            for pair in ds.partition(p) {
                assert_eq!(bucket_of(h1.hash(pair.key.bytes()), 4), p);
            }
        }
    }

    #[test]
    fn framed_roundtrip_through_input() {
        let ds = sample();
        let input = ds.to_input();
        assert_eq!(input.len(), 64);
        assert_eq!(input.total_bytes(), ds.record_bytes());
        for rec in &input.records {
            let (k, _v) = opa_common::decode_kv(rec).expect("framed record");
            assert!(k.starts_with(b"key"));
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let ds = sample();
        let dir = std::env::temp_dir().join(format!("opa-ds-{}", std::process::id()));
        let path = dir.join("ds.opadf");
        ds.write(&path).expect("write");
        let back = Dataset::read(&path).expect("read");
        assert_eq!(ds, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forged_partition_count_is_an_error() {
        let ds = sample();
        // The sample's sections with `header` in place of its own and the
        // first `parts` partitions after it.
        let read = |header: [u64; 2], parts: usize| {
            let mut w = SectionWriter::new(Kind::DATASET);
            w.nums(&header);
            for p in 0..parts {
                w.pairs(&ds.parts[p]).nums(&ds.hashes[p]);
            }
            Dataset::from_reader(SectionReader::new(&w.finish(), Kind::DATASET)?)
        };
        assert_eq!(read([7, 4], 4).expect("decodes"), ds);
        // `1 + 2 * partitions` overflows for the first; the second wraps it
        // to 1 in release arithmetic, matching a one-section file.
        for forged in [u64::MAX, 1 << 63, 1 << 62, 5, 0] {
            assert!(read([7, forged], 4).is_err(), "partitions = {forged}");
            assert!(read([7, forged], 0).is_err(), "header only, {forged}");
        }
    }

    #[test]
    fn union_requires_matching_spec() {
        let a = sample();
        let b = Dataset::from_pairs(
            vec![Pair::new(Key::from("x"), Value::from_u64(1))],
            PartitionSpec {
                hash_seed: 9,
                partitions: 4,
            },
        );
        assert!(Dataset::union(&a, &b).is_err());
        let c = Dataset::from_pairs(
            vec![Pair::new(Key::from("x"), Value::from_u64(1))],
            sample_spec(),
        );
        let u = Dataset::union(&a, &c).expect("co-partitioned union");
        assert_eq!(u.len(), 65);
        assert!(u.verify_placement());
    }
}
