//! The one-pass Fig. 1 sweep against the per-capacity replay it
//! replaced: one engine build, one legacy `next_job` stream and one
//! `PageLru` per (fraction, workload) cell. Every point must agree bit
//! for bit, at any worker count.

use astriflash_core::experiments::fig1::{self, Fig1Point, DRAM_BW_PER_CORE_GBPS};
use astriflash_core::sweep::Sweep;
use astriflash_mem::PageLru;
use astriflash_sim::SimRng;
use astriflash_workloads::{WorkloadKind, WorkloadParams, BLOCK_SIZE, PAGE_SIZE};

const ACCESSES: usize = 20_000;
const SEED: u64 = 7;

/// One LRU replay: the page-granularity miss ratio of workload `i` at
/// `capacity` pages, with the sweep's seed expressions.
fn replay_miss_ratio(
    params: &WorkloadParams,
    kind: WorkloadKind,
    i: usize,
    capacity: usize,
    accesses_per_point: usize,
    seed: u64,
) -> f64 {
    let mut engine = kind.build(params, seed ^ (i as u64) << 8);
    let mut rng = SimRng::new(seed ^ 0xF1 ^ (i as u64));
    let mut lru = PageLru::new(capacity);
    let mut touched = 0usize;
    while touched < accesses_per_point {
        let job = engine.next_job(&mut rng);
        for a in job.accesses() {
            lru.access(a.addr / PAGE_SIZE);
            touched += 1;
        }
    }
    lru.reset_counters();
    let mut measured = 0usize;
    while measured < accesses_per_point / 2 {
        let job = engine.next_job(&mut rng);
        for a in job.accesses() {
            lru.access(a.addr / PAGE_SIZE);
            measured += 1;
        }
    }
    lru.miss_ratio()
}

/// The sweep as it was computed one cell per (fraction, workload).
fn oracle(
    params: &WorkloadParams,
    workloads: &[WorkloadKind],
    fractions: &[f64],
) -> Vec<Fig1Point> {
    let num_pages = (params.dataset_bytes / PAGE_SIZE).max(1);
    fractions
        .iter()
        .map(|&fraction| {
            let capacity = ((num_pages as f64 * fraction) as usize).max(1);
            let per_wl: Vec<f64> = workloads
                .iter()
                .enumerate()
                .map(|(i, &kind)| replay_miss_ratio(params, kind, i, capacity, ACCESSES, SEED))
                .collect();
            let miss_ratio = per_wl.iter().sum::<f64>() / per_wl.len().max(1) as f64;
            let per_core =
                DRAM_BW_PER_CORE_GBPS / BLOCK_SIZE as f64 * miss_ratio * PAGE_SIZE as f64;
            Fig1Point {
                dram_fraction: fraction,
                miss_ratio,
                flash_bw_per_core_gbps: per_core,
                flash_bw_64core_gbps: per_core * 64.0,
            }
        })
        .collect()
}

fn bits(points: &[Fig1Point]) -> Vec<[u64; 4]> {
    points
        .iter()
        .map(|p| {
            [
                p.dram_fraction.to_bits(),
                p.miss_ratio.to_bits(),
                p.flash_bw_per_core_gbps.to_bits(),
                p.flash_bw_64core_gbps.to_bits(),
            ]
        })
        .collect()
}

fn check(workloads: &[WorkloadKind], fractions: &[f64]) {
    let params = WorkloadParams::tiny_for_tests();
    let want = bits(&oracle(&params, workloads, fractions));
    for threads in [1, 3] {
        let got = fig1::sweep_with(
            &Sweep::with_threads(threads),
            &params,
            workloads,
            fractions,
            ACCESSES,
            SEED,
        );
        assert_eq!(
            bits(&got),
            want,
            "{threads} thread(s), fractions {fractions:?}"
        );
    }
}

#[test]
fn one_pass_sweep_matches_per_capacity_replay() {
    // Unsorted, with 0.0001 and 0.0002 both clamped to one page and 0.03
    // and 0.0302 both truncated to 61 pages of the 2048-page dataset.
    let fractions = [0.16, 0.0001, 0.03, 0.005, 0.0302, 0.0002, 0.5];
    check(&WorkloadKind::all(), &fractions);
}

#[test]
fn paper_grid_matches_per_capacity_replay() {
    let workloads = [
        WorkloadKind::HashTable,
        WorkloadKind::RbTree,
        WorkloadKind::Tatp,
        WorkloadKind::ArraySwap,
    ];
    check(&workloads, &fig1::default_fractions());
}

#[test]
fn empty_inputs_match_per_capacity_replay() {
    check(&[WorkloadKind::HashTable], &[]);
    check(&[], &[0.01, 0.03]);
}
