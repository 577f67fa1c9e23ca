//! Job model shared by all workload engines.
//!
//! A *job* is one client request (one TATP transaction, one hash lookup,
//! …). It decomposes into operations ([`FlatOp`]s), each contributing
//! compute time and a handful of block-granular memory accesses. Engines
//! write jobs into a recycled [`JobBuf`] through
//! [`WorkloadEngine::fill_job`]. The core model executes operations in
//! order; the memory hierarchy decides which accesses stall the core or
//! trigger thread switches.

use crate::address_space::{BLOCK_SIZE, PAGE_SIZE};
use astriflash_sim::SimRng;

/// One block-granular memory reference.
///
/// The translation-relevant decompositions of `addr` are resolved once
/// at generation time rather than per simulated access: the core's hot
/// loop replays each access many times (thread switches, MSHR retries,
/// DRAM-cache probes) and previously re-derived the page and block
/// numbers with two divisions each time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// Simulated byte address.
    pub addr: u64,
    /// Pre-resolved virtual page number, `addr / PAGE_SIZE`.
    pub vpn: u64,
    /// Pre-resolved block index within the page,
    /// `(addr % PAGE_SIZE) / BLOCK_SIZE`.
    pub block: u32,
    /// Whether the reference is a store.
    pub is_write: bool,
}

impl MemoryAccess {
    /// A read of `addr`.
    pub fn read(addr: u64) -> Self {
        MemoryAccess {
            addr,
            vpn: addr / PAGE_SIZE,
            block: ((addr % PAGE_SIZE) / BLOCK_SIZE) as u32,
            is_write: false,
        }
    }

    /// A write of `addr`.
    pub fn write(addr: u64) -> Self {
        MemoryAccess {
            addr,
            vpn: addr / PAGE_SIZE,
            block: ((addr % PAGE_SIZE) / BLOCK_SIZE) as u32,
            is_write: true,
        }
    }
}

/// One operation in flat encoding: compute time plus a span into the
/// job's contiguous access slab (DESIGN.md §14).
///
/// 16 bytes; a job's ops sit contiguously in [`JobBuf::ops`], so the
/// run loop's op fetch is one indexed load instead of a pointer chase
/// into per-op access vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatOp {
    /// Pure compute preceding the accesses, in nanoseconds.
    pub compute_ns: u64,
    /// First access of this op in the slab.
    pub access_start: u32,
    /// Number of accesses in this op.
    pub access_len: u32,
}

/// A flat, recycled job encoding: one contiguous [`MemoryAccess`] slab
/// plus [`FlatOp`] spans over it.
///
/// Engines write into a `JobBuf` through [`WorkloadEngine::fill_job`];
/// the buffer is cleared and refilled, so after warm-up no per-job
/// allocation happens (both `Vec`s keep their high-water capacity).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobBuf {
    ops: Vec<FlatOp>,
    accesses: Vec<MemoryAccess>,
}

impl JobBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        JobBuf::default()
    }

    /// Clears contents, keeping capacity. Every `fill_job` starts here.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.accesses.clear();
    }

    /// Current slab length — the `access_start` of an op about to be
    /// built. Pair with [`JobBuf::finish_op`].
    pub fn mark(&self) -> u32 {
        self.accesses.len() as u32
    }

    /// Appends one access to the slab (part of the op under
    /// construction).
    pub fn push(&mut self, a: MemoryAccess) {
        self.accesses.push(a);
    }

    /// Mutable slab access, for data-structure trace helpers that
    /// append into a `&mut Vec<MemoryAccess>` (`lookup_trace`,
    /// `touch_record`, …).
    pub fn accesses_mut(&mut self) -> &mut Vec<MemoryAccess> {
        &mut self.accesses
    }

    /// Closes the op whose accesses started at `start` (from
    /// [`JobBuf::mark`]).
    pub fn finish_op(&mut self, compute_ns: u64, start: u32) {
        let len = self.accesses.len() as u32 - start;
        self.ops.push(FlatOp {
            compute_ns,
            access_start: start,
            access_len: len,
        });
    }

    /// Appends a compute-only op.
    pub fn push_compute(&mut self, compute_ns: u64) {
        let start = self.mark();
        self.ops.push(FlatOp {
            compute_ns,
            access_start: start,
            access_len: 0,
        });
    }

    /// Number of ops.
    pub fn op_count(&self) -> u32 {
        self.ops.len() as u32
    }

    /// The `idx`-th op (copied; 16 bytes).
    #[inline]
    pub fn op(&self, idx: u32) -> FlatOp {
        self.ops[idx as usize]
    }

    /// The `idx`-th slab access (copied; 24 bytes).
    #[inline]
    pub fn access(&self, idx: u32) -> MemoryAccess {
        self.accesses[idx as usize]
    }

    /// All ops in program order.
    pub fn ops(&self) -> &[FlatOp] {
        &self.ops
    }

    /// The whole access slab in program order.
    pub fn accesses(&self) -> &[MemoryAccess] {
        &self.accesses
    }

    /// The slab span of one op's accesses.
    pub fn op_accesses(&self, op: &FlatOp) -> &[MemoryAccess] {
        &self.accesses[op.access_start as usize..(op.access_start + op.access_len) as usize]
    }

    /// True when the buffer holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total compute time across ops.
    pub fn total_compute_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.compute_ns).sum()
    }

    /// Total number of memory accesses.
    pub fn total_accesses(&self) -> usize {
        self.accesses.len()
    }

    /// Number of write accesses.
    pub fn total_writes(&self) -> usize {
        self.accesses.iter().filter(|a| a.is_write).count()
    }
}

/// A per-core pool of [`JobBuf`] slots with a free-list.
///
/// `alloc` pops a recycled slot (or grows the pool on first use);
/// `release` pushes it back. Slot contents are *not* cleared on release
/// — `fill_job` overwrites on the next fill — so capacity is retained
/// and steady-state job turnover allocates nothing.
#[derive(Debug, Default)]
pub struct JobArena {
    slots: Vec<JobBuf>,
    free: Vec<u32>,
}

impl JobArena {
    /// An empty arena.
    pub fn new() -> Self {
        JobArena::default()
    }

    /// An arena with `n` pre-created free slots (e.g. threads per core).
    pub fn with_capacity(n: usize) -> Self {
        JobArena {
            slots: (0..n).map(|_| JobBuf::new()).collect(),
            free: (0..n as u32).rev().collect(),
        }
    }

    /// Claims a slot, growing the pool if none is free.
    pub fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.slots.push(JobBuf::new());
            (self.slots.len() - 1) as u32
        }
    }

    /// Returns a slot to the free list. The buffer keeps its capacity.
    pub fn release(&mut self, slot: u32) {
        debug_assert!((slot as usize) < self.slots.len(), "release of unknown slot");
        debug_assert!(!self.free.contains(&slot), "double release of slot {slot}");
        self.free.push(slot);
    }

    /// Shared view of a slot's buffer.
    #[inline]
    pub fn buf(&self, slot: u32) -> &JobBuf {
        &self.slots[slot as usize]
    }

    /// Mutable view of a slot's buffer.
    #[inline]
    pub fn buf_mut(&mut self, slot: u32) -> &mut JobBuf {
        &mut self.slots[slot as usize]
    }

    /// Total slots ever created.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the arena has created no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Currently free (recyclable) slots.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Currently live (allocated) slots.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A source of jobs: one per workload.
///
/// Engines are deterministic given the construction seed and the `SimRng`
/// passed to [`WorkloadEngine::fill_job`].
pub trait WorkloadEngine: Send {
    /// Generates the next job into a recycled flat buffer, overwriting
    /// it. Steady-state generation allocates nothing: the buffer keeps
    /// its high-water capacity.
    ///
    /// The stream each engine emits is pinned by per-engine digests in
    /// `crates/workloads/tests/job_stream_digest.rs` (DESIGN.md §14).
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng);

    /// Short workload name (used in reports).
    fn name(&self) -> &'static str;

    /// Suggested user-level threads per core for this workload
    /// (the paper spawns 32–64 depending on the workload, §V-A).
    fn threads_per_core_hint(&self) -> usize {
        48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_constructors() {
        assert!(!MemoryAccess::read(5).is_write);
        assert!(MemoryAccess::write(5).is_write);
    }

    #[test]
    fn job_buf_incremental_builders() {
        let mut buf = JobBuf::new();
        let start = buf.mark();
        buf.push(MemoryAccess::read(0));
        buf.push(MemoryAccess::write(64));
        buf.finish_op(100, start);
        buf.push_compute(50);
        let start = buf.mark();
        buf.accesses_mut().push(MemoryAccess::write(128));
        buf.finish_op(25, start);
        assert_eq!(buf.op(0), FlatOp { compute_ns: 100, access_start: 0, access_len: 2 });
        assert_eq!(buf.op(1), FlatOp { compute_ns: 50, access_start: 2, access_len: 0 });
        assert_eq!(buf.op(2), FlatOp { compute_ns: 25, access_start: 2, access_len: 1 });
        assert_eq!(buf.access(2).addr, 128);
        assert_eq!(buf.op_accesses(&buf.op(0)), &buf.accesses()[..2]);
        assert!(buf.op_accesses(&buf.op(1)).is_empty());
        assert_eq!(buf.total_compute_ns(), 175);
        assert_eq!(buf.total_accesses(), 3);
        assert_eq!(buf.total_writes(), 2);
        assert!(!buf.is_empty());
        // A refill starts from `clear`: nothing of the old job survives.
        buf.clear();
        buf.push_compute(7);
        assert_eq!((buf.op_count(), buf.total_accesses()), (1, 0));
        assert_eq!(buf.op(0), FlatOp { compute_ns: 7, access_start: 0, access_len: 0 });
    }

    #[test]
    fn arena_recycles_slots() {
        let mut arena = JobArena::with_capacity(2);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.free_len(), 2);
        let a = arena.alloc();
        let b = arena.alloc();
        assert_ne!(a, b);
        assert_eq!(arena.live(), 2);
        // Exhausted pool grows.
        let c = arena.alloc();
        assert_eq!(arena.len(), 3);
        arena.buf_mut(a).push_compute(1);
        arena.release(a);
        // The freed slot is reused before any new slot is created.
        let d = arena.alloc();
        assert_eq!(d, a);
        assert_eq!(arena.len(), 3);
        arena.release(b);
        arena.release(c);
        arena.release(d);
        assert_eq!(arena.free_len(), 3);
    }

    #[test]
    fn flat_op_stays_packed() {
        // DESIGN.md §14: the run loop's op fetch is one 16-byte load.
        assert_eq!(std::mem::size_of::<FlatOp>(), 16, "FlatOp grew; see DESIGN.md §14");
        assert_eq!(
            std::mem::size_of::<MemoryAccess>(),
            24,
            "MemoryAccess grew; see DESIGN.md §14"
        );
    }

    #[test]
    fn pre_resolved_fields_match_recomputation() {
        for addr in [0u64, 63, 64, 4095, 4096, 4160, 7 * 4096 + 3 * 64 + 9] {
            for a in [MemoryAccess::read(addr), MemoryAccess::write(addr)] {
                assert_eq!(a.vpn, addr / PAGE_SIZE, "vpn of {addr:#x}");
                assert_eq!(
                    a.block as u64,
                    (addr % PAGE_SIZE) / BLOCK_SIZE,
                    "block of {addr:#x}"
                );
            }
        }
    }
}
