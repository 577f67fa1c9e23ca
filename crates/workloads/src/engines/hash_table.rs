//! Hash Table microbenchmark: "data structure lookups with pointer
//! chasing behavior" (§V-A).
//!
//! An open-chaining table is built over the whole key population at
//! construction time. A lookup hashes the key, reads the bucket-head slot,
//! walks the chain node by node (each node is a separately allocated 64 B
//! cell, so the walk is genuine pointer chasing across scattered pages),
//! then touches the 1 KiB data record.

use astriflash_sim::rng::splitmix64;
use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, BLOCK_SIZE, PAGE_SIZE};
use crate::engines::touch_record;
use crate::job::{JobBuf, MemoryAccess, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const NODE_BYTES: u64 = 64;
const LOAD_FACTOR: u64 = 4; // mean chain length
/// Node slots reserved per bucket before spilling to the overflow
/// region. Chains are stored in their bucket's slot run — the layout a
/// slab-per-bucket allocator produces — so a chain walk has page
/// locality while remaining a dependent-load chain.
const SLOTS_PER_BUCKET: u64 = 8;

/// The Hash Table workload engine.
#[derive(Debug)]
pub struct HashTable {
    chooser: KeyChooser,
    compute_ns: u64,
    lookups_per_job: usize,
    write_fraction: f64,
    bucket_array_base: u64,
    num_buckets: u64,
    /// Per-key: (chain position, node address, record address).
    key_info: Vec<KeyInfo>,
    /// Per-bucket: node addresses in walk order (head first).
    chains: Vec<Vec<u32>>,
}

#[derive(Debug, Clone, Copy)]
struct KeyInfo {
    bucket: u32,
    node_addr: u64,
    record_addr: u64,
}

fn hash_key(key: u64) -> u64 {
    let mut s = key;
    splitmix64(&mut s)
}

impl HashTable {
    /// Builds and populates the table with `params.num_records()` keys.
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let n = params.num_records();
        // Round the bucket count *down* to a power of two so the node
        // slabs never overshoot the address-space budget; chains average
        // 4-8 entries.
        let want = (n / LOAD_FACTOR).max(16);
        let num_buckets = if want.is_power_of_two() {
            want
        } else {
            want.next_power_of_two() / 2
        };
        let space = AddressSpace::new(params.dataset_bytes);
        // Regions are indexed by address arithmetic, so they must be
        // contiguous: use the sequential allocator.
        let mut alloc = SimAlloc::sequential(space);
        let _ = seed;

        // Bucket array: 8 B slots, dense.
        let bucket_array_base = alloc.alloc(num_buckets * 8);
        // Per-bucket node slabs + an overflow region for long chains.
        let node_base = alloc.alloc(num_buckets * SLOTS_PER_BUCKET * NODE_BYTES);
        let overflow_base = alloc.alloc(n * NODE_BYTES / 4 + NODE_BYTES);
        // Records are laid out by key so popularity clusters share pages.
        let record_base = alloc.alloc(n * params.record_bytes);

        let mut key_info = Vec::with_capacity(n as usize);
        let mut chains: Vec<Vec<u32>> = vec![Vec::new(); num_buckets as usize];
        let mut overflow_used = 0u64;
        for key in 0..n {
            let bucket = (hash_key(key) % num_buckets) as u32;
            let pos = chains[bucket as usize].len() as u64;
            let node_addr = if pos < SLOTS_PER_BUCKET {
                node_base + (bucket as u64 * SLOTS_PER_BUCKET + pos) * NODE_BYTES
            } else {
                let a = overflow_base + overflow_used * NODE_BYTES;
                overflow_used += 1;
                a
            };
            let record_addr = record_base + key * params.record_bytes;
            key_info.push(KeyInfo {
                bucket,
                node_addr,
                record_addr,
            });
            chains[bucket as usize].push(key as u32);
        }

        HashTable {
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.75),
            ),
            compute_ns: params.compute_ns_per_op,
            lookups_per_job: 8,
            write_fraction: 0.10,
            bucket_array_base,
            num_buckets,
            key_info,
            chains,
        }
    }

    /// Emits the access trace of one lookup into `out`.
    fn lookup_trace(&self, key: u64, write: bool, out: &mut Vec<MemoryAccess>) {
        let info = self.key_info[key as usize];
        // Bucket-head slot (64 B block containing the 8 B pointer).
        let slot_addr = self.bucket_array_base + info.bucket as u64 * 8;
        out.push(MemoryAccess::read(slot_addr / BLOCK_SIZE * BLOCK_SIZE));
        // Chain walk up to and including this key's node.
        for &k in &self.chains[info.bucket as usize] {
            out.push(MemoryAccess::read(self.key_info[k as usize].node_addr));
            if k as u64 == key {
                break;
            }
        }
        // Record payload: two blocks read, head block written on updates.
        touch_record(out, info.record_addr, 2, write);
    }

    /// Mean chain length (for tests and reports).
    pub fn mean_chain_len(&self) -> f64 {
        self.key_info.len() as f64 / self.num_buckets as f64
    }
}

impl WorkloadEngine for HashTable {
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        for _ in 0..self.lookups_per_job {
            let key = self.chooser.next(rng);
            let write = rng.gen_bool(self.write_fraction);
            let start = buf.mark();
            self.lookup_trace(key, write, buf.accesses_mut());
            buf.finish_op(self.compute_ns, start);
        }
    }

    fn name(&self) -> &'static str {
        "HashTable"
    }

    fn threads_per_core_hint(&self) -> usize {
        48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> HashTable {
        HashTable::new(&WorkloadParams::tiny_for_tests(), 11)
    }

    fn trace(e: &HashTable, key: u64, write: bool) -> Vec<MemoryAccess> {
        let mut out = Vec::new();
        e.lookup_trace(key, write, &mut out);
        out
    }

    #[test]
    fn lookup_walks_chain_to_target() {
        let e = engine();
        // Pick a key that is not at the head of its chain, if one exists.
        let key = (0..e.key_info.len() as u64)
            .find(|&k| {
                let b = e.key_info[k as usize].bucket as usize;
                e.chains[b].len() > 1 && e.chains[b][0] as u64 != k
            })
            .expect("some chain has length > 1");
        let accesses = trace(&e, key, false);
        let info = e.key_info[key as usize];
        // The trace must include the key's own node.
        assert!(accesses.iter().any(|a| a.addr == info.node_addr));
        // And at least: bucket slot + 2 nodes + 2 record blocks.
        assert!(accesses.len() >= 5);
    }

    #[test]
    fn chain_positions_are_respected() {
        let e = engine();
        // Head-of-chain keys touch exactly one node.
        let head_key = e.chains.iter().find(|c| !c.is_empty()).unwrap()[0] as u64;
        let node_accesses = trace(&e, head_key, false)
            .iter()
            .filter(|a| {
                e.key_info
                    .iter()
                    .any(|ki| ki.node_addr == a.addr)
            })
            .count();
        assert_eq!(node_accesses, 1);
    }

    #[test]
    fn writes_only_on_update_ops() {
        let e = engine();
        let read = trace(&e, 3, false);
        assert_eq!(read.iter().filter(|a| a.is_write).count(), 0);
        let write = trace(&e, 3, true);
        assert_eq!(write.iter().filter(|a| a.is_write).count(), 1);
    }

    #[test]
    fn load_factor_is_sane() {
        let e = engine();
        let m = e.mean_chain_len();
        assert!(m > 1.0 && m < 10.0, "mean chain length {m}");
    }

    #[test]
    fn all_keys_present_in_their_chain() {
        let e = engine();
        for (k, info) in e.key_info.iter().enumerate() {
            assert!(e.chains[info.bucket as usize].contains(&(k as u32)));
        }
    }
}
