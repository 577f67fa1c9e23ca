//! Silo workload from Tailbench (§V-A): OLTP transactions over a
//! Masstree-style index with optimistic concurrency control.
//!
//! Each transaction performs a read set of tree lookups, a small write
//! set, then a commit phase (validation compute + version writes to the
//! touched record headers) — the access shape of Silo's OCC protocol.

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, PAGE_SIZE};
use crate::engines::btree_index::BPlusTree;
use crate::engines::touch_record;
use crate::job::{JobBuf, MemoryAccess, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const NODE_BYTES: u64 = 256;

/// The Silo workload engine.
#[derive(Debug)]
pub struct Silo {
    tree: BPlusTree,
    chooser: KeyChooser,
    compute_ns: u64,
    n: u64,
}

impl Silo {
    /// Builds the index over `params.num_records()` keys.
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let n = params.num_records();
        let space = AddressSpace::new(params.dataset_bytes);
        let mut alloc = SimAlloc::scattered(space, seed ^ 0x51_10);
        let record_bytes = params.record_bytes;

        let mut tree = BPlusTree::new(&mut |_| alloc.alloc(NODE_BYTES));
        for key in 0..n {
            let record = alloc.alloc(record_bytes);
            tree.insert(key, record, &mut |_| alloc.alloc(NODE_BYTES));
        }

        Silo {
            tree,
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.75),
            ),
            compute_ns: params.compute_ns_per_op,
            n,
        }
    }

    /// The underlying index (exposed for invariant tests).
    pub fn tree(&self) -> &BPlusTree {
        &self.tree
    }
}

impl WorkloadEngine for Silo {
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        let read_set = 2 + rng.gen_range(5) as usize; // 2..=6 reads
        let write_set = rng.gen_range(3) as usize; // 0..=2 writes
        let mut written_records = [0u64; 2];

        for _ in 0..read_set {
            let key = self.chooser.next(rng) % self.n;
            let start = buf.mark();
            let record = self
                .tree
                .lookup_trace(key, buf.accesses_mut())
                .expect("all keys inserted");
            touch_record(buf.accesses_mut(), record, 2, false);
            buf.finish_op(self.compute_ns, start);
        }
        for written in written_records.iter_mut().take(write_set) {
            let key = self.chooser.next(rng) % self.n;
            let start = buf.mark();
            let record = self
                .tree
                .lookup_trace(key, buf.accesses_mut())
                .expect("all keys inserted");
            // Buffered write: read the record now, install at commit.
            touch_record(buf.accesses_mut(), record, 2, false);
            *written = record;
            buf.finish_op(self.compute_ns, start);
        }

        // Commit: validate the read set (compute), then install writes —
        // one version-word store per written record (Silo's TID write).
        let start = buf.mark();
        for &record in &written_records[..write_set] {
            buf.push(MemoryAccess::write(record));
        }
        buf.finish_op(self.compute_ns * (1 + read_set as u64 / 2), start);
    }

    fn name(&self) -> &'static str {
        "Silo"
    }

    fn threads_per_core_hint(&self) -> usize {
        40
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_valid_after_build() {
        let e = Silo::new(&WorkloadParams::tiny_for_tests(), 51);
        assert_eq!(e.tree().validate(), e.tree().len());
    }

    #[test]
    fn txns_have_read_and_commit_phases() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 52);
        let mut rng = SimRng::new(53);
        let mut job = JobBuf::new();
        e.fill_job(&mut job, &mut rng);
        // At least 2 reads + commit op.
        assert!(job.op_count() >= 3);
        // Commit op is last and has the validation compute.
        let commit = job.ops().last().unwrap();
        assert!(commit.compute_ns >= e.compute_ns);
    }

    #[test]
    fn writes_only_at_commit() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 54);
        let mut rng = SimRng::new(55);
        let mut job = JobBuf::new();
        for _ in 0..50 {
            e.fill_job(&mut job, &mut rng);
            let (body, commit) = job.ops().split_at(job.ops().len() - 1);
            assert!(
                body.iter().all(|o| job.op_accesses(o).iter().all(|a| !a.is_write)),
                "writes must be buffered until commit"
            );
            // Commit writes equal the write set size (possibly 0).
            assert!(job.op_accesses(&commit[0]).iter().all(|a| a.is_write));
        }
    }

    #[test]
    fn lookups_traverse_the_tree() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 56);
        let height = e.tree().height();
        let mut rng = SimRng::new(57);
        let mut job = JobBuf::new();
        e.fill_job(&mut job, &mut rng);
        assert!(job.op(0).access_len as usize >= height + 2);
    }
}
