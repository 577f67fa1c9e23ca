//! Property tests across the workload engines: every engine, under any
//! seed, must stay within its address space, be deterministic, and emit
//! jobs in the calibrated shape envelope.

use astriflash_sim::SimRng;
use astriflash_testkit::prop_check;
use astriflash_workloads::{JobBuf, WorkloadKind, WorkloadParams};

fn all_kinds() -> [WorkloadKind; 7] {
    WorkloadKind::all()
}

/// All engines stay inside the dataset for arbitrary seeds.
#[test]
fn accesses_stay_in_dataset() {
    prop_check!(cases: 12, |g| {
        let engine_seed = g.u64_in(0..1_000);
        let job_seed = g.u64_in(0..1_000);
        let params = WorkloadParams::tiny_for_tests();
        for kind in all_kinds() {
            let mut engine = kind.build(&params, engine_seed);
            let mut rng = SimRng::new(job_seed);
            let mut job = JobBuf::new();
            for _ in 0..20 {
                engine.fill_job(&mut job, &mut rng);
                assert!(!job.is_empty(), "{kind}: empty job");
                for a in job.accesses() {
                    assert!(
                        a.addr < params.dataset_bytes,
                        "{kind}: access {:#x} outside dataset",
                        a.addr
                    );
                }
            }
        }
    });
}

/// Same (engine seed, job seed) ⇒ identical job streams.
#[test]
fn engines_are_deterministic() {
    prop_check!(cases: 12, |g| {
        let engine_seed = g.u64_in(0..1_000);
        let job_seed = g.u64_in(0..1_000);
        let params = WorkloadParams::tiny_for_tests();
        for kind in all_kinds() {
            let mut e1 = kind.build(&params, engine_seed);
            let mut e2 = kind.build(&params, engine_seed);
            let mut r1 = SimRng::new(job_seed);
            let mut r2 = SimRng::new(job_seed);
            let (mut j1, mut j2) = (JobBuf::new(), JobBuf::new());
            for _ in 0..8 {
                e1.fill_job(&mut j1, &mut r1);
                e2.fill_job(&mut j2, &mut r2);
                assert_eq!(j1, j2, "{kind}");
            }
        }
    });
}

/// Every emitted access carries pre-resolved translation fields that
/// agree with recomputation from `addr` — the contract the core's fast
/// path relies on instead of dividing per simulated access.
#[test]
fn pre_resolved_access_fields_are_consistent() {
    use astriflash_workloads::address_space::{BLOCK_SIZE, PAGE_SIZE};
    prop_check!(cases: 12, |g| {
        let engine_seed = g.u64_in(0..1_000);
        let job_seed = g.u64_in(0..1_000);
        let params = WorkloadParams::tiny_for_tests();
        for kind in all_kinds() {
            let mut engine = kind.build(&params, engine_seed);
            let mut rng = SimRng::new(job_seed);
            let mut job = JobBuf::new();
            for _ in 0..20 {
                engine.fill_job(&mut job, &mut rng);
                for a in job.accesses() {
                    assert_eq!(a.vpn, a.addr / PAGE_SIZE, "{kind}: vpn of {:#x}", a.addr);
                    assert_eq!(
                        a.block as u64,
                        (a.addr % PAGE_SIZE) / BLOCK_SIZE,
                        "{kind}: block of {:#x}",
                        a.addr
                    );
                }
            }
        }
    });
}

/// Jobs carry both compute and memory work, with bounded size: the
/// envelope the core model was calibrated for.
#[test]
fn job_shape_envelope() {
    prop_check!(cases: 12, |g| {
        let job_seed = g.u64_in(0..500);
        let params = WorkloadParams::tiny_for_tests();
        for kind in all_kinds() {
            let mut engine = kind.build(&params, 17);
            let mut rng = SimRng::new(job_seed);
            let mut job = JobBuf::new();
            for _ in 0..10 {
                engine.fill_job(&mut job, &mut rng);
                assert!(job.total_compute_ns() > 0, "{kind}: free job");
                assert!(
                    job.total_compute_ns() < 1_000_000,
                    "{kind}: job compute over 1 ms"
                );
                assert!(job.total_accesses() >= 1);
                assert!(
                    job.total_accesses() <= 512,
                    "{kind}: {} accesses in one job",
                    job.total_accesses()
                );
            }
        }
    });
}
