//! Stress test of `JobArena` recycling in the flat job pipeline
//! (DESIGN.md §14). The job streams themselves are pinned by
//! `job_stream_digest.rs`.

use astriflash_sim::SimRng;
use astriflash_testkit::prop_check;
use astriflash_workloads::{JobArena, WorkloadKind, WorkloadParams};

/// Arena recycling under interleaved alloc/complete traffic: no slot is
/// ever handed out twice while live (aliasing), every release is
/// recycled before the pool grows (leaks), and live buffers keep their
/// contents until released.
#[test]
fn arena_recycling_stress() {
    prop_check!(cases: 24, |g| {
        let threads = g.usize_in(1..9);
        let steps = g.usize_in(10..200);
        let seed = g.u64_in(0..1_000);
        let params = WorkloadParams::tiny_for_tests();
        let mut engine = WorkloadKind::HashTable.build(&params, seed);
        let mut rng = SimRng::new(seed ^ 0xA5);
        let mut arena = JobArena::with_capacity(threads);
        let mut live: Vec<(u32, u64, usize)> = Vec::new(); // (slot, compute, accesses)
        let mut high_water = arena.len();
        for step in 0..steps {
            let complete = !live.is_empty() && (g.any_bool() || live.len() >= threads);
            if complete {
                let idx = g.usize_in(0..live.len());
                let (slot, compute, accesses) = live.swap_remove(idx);
                // Contents survived while other slots were refilled.
                let buf = arena.buf(slot);
                assert_eq!(buf.total_compute_ns(), compute, "step {step}: slot {slot} mutated");
                assert_eq!(buf.total_accesses(), accesses, "step {step}: slot {slot} mutated");
                arena.release(slot);
            } else {
                let slot = arena.alloc();
                assert!(
                    live.iter().all(|&(s, _, _)| s != slot),
                    "step {step}: slot {slot} aliased while live"
                );
                engine.fill_job(arena.buf_mut(slot), &mut rng);
                let buf = arena.buf(slot);
                live.push((slot, buf.total_compute_ns(), buf.total_accesses()));
            }
            assert_eq!(arena.live(), live.len(), "step {step}: live accounting");
            assert_eq!(arena.len(), arena.live() + arena.free_len(), "step {step}: leak");
            high_water = high_water.max(arena.len());
        }
        // The pool never grows past the peak concurrency: with at most
        // `threads` jobs in flight, `with_capacity(threads)` slots are
        // recycled rather than leaked.
        assert_eq!(high_water, threads.max(arena.len()));
        assert!(arena.len() <= threads, "pool grew past peak concurrency");
    });
}
