//! Fig. 1: DRAM-cache miss ratio and required flash bandwidth vs DRAM
//! capacity (§II-A).
//!
//! Each workload's page trace is replayed once through an exact LRU that
//! is evaluated at every capacity point (DESIGN.md, "One-pass Fig. 1
//! replay"); the required flash bandwidth per core follows Equation 1:
//!
//! ```text
//! BW_flash = BW_dram / block_size × miss_rate × page_size
//! ```

use astriflash_mem::BandedLru;
use astriflash_prof::{scope, Scope};
use astriflash_sim::SimRng;
use astriflash_workloads::{JobBuf, WorkloadKind, WorkloadParams, BLOCK_SIZE, PAGE_SIZE};

use crate::sweep::Sweep;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Point {
    /// DRAM capacity as a fraction of the dataset.
    pub dram_fraction: f64,
    /// Page-granularity miss ratio.
    pub miss_ratio: f64,
    /// Required flash bandwidth per core, GB/s (Eq. 1, 0.5 GB/s DRAM
    /// bandwidth per core).
    pub flash_bw_per_core_gbps: f64,
    /// Aggregate flash bandwidth for a 64-core server, GB/s.
    pub flash_bw_64core_gbps: f64,
}

/// Per-core average DRAM bandwidth assumed by the paper (§II-A).
pub const DRAM_BW_PER_CORE_GBPS: f64 = 0.5;

/// One replay of workload `i`'s page stream: the page-granularity miss
/// ratio at each of `capacities` pages, in that order. The warm-up and
/// measurement lengths are access counts that do not depend on capacity,
/// so by LRU inclusion one [`BandedLru`] pass is exact at every capacity.
/// The seed expressions are part of the pinned output contract — do not
/// change them.
fn replay_miss_ratios(
    params: &WorkloadParams,
    kind: WorkloadKind,
    i: usize,
    capacities: &[usize],
    accesses_per_point: usize,
    seed: u64,
) -> Vec<f64> {
    let mut engine = {
        let _prof = scope(Scope::EngineBuild);
        kind.build(params, seed ^ (i as u64) << 8)
    };
    let _prof = scope(Scope::LruReplay);
    let mut rng = SimRng::new(seed ^ 0xF1 ^ (i as u64));
    let mut lru = BandedLru::new(capacities);
    let mut buf = JobBuf::new();
    // Replays whole jobs until at least `target` accesses were made.
    let mut replay = |lru: &mut BandedLru, target: usize| {
        let mut touched = 0usize;
        while touched < target {
            engine.fill_job(&mut buf, &mut rng);
            for a in buf.accesses() {
                lru.access(a.addr / PAGE_SIZE);
            }
            touched += buf.accesses().len();
        }
    };
    // Warmup phase: fill the cache to steady state.
    replay(&mut lru, accesses_per_point);
    // Measurement phase with counters reset.
    lru.reset_counters();
    replay(&mut lru, accesses_per_point / 2);
    // Free the engine before allocating the result, which outlives the
    // cell: allocated while the engine is live, it lands above the
    // engine's heap and keeps that memory from being reused. Measured
    // over a minute of back-to-back quick sweeps, that raised peak RSS
    // by ~0.3 MiB.
    drop(engine);
    (0..capacities.len()).map(|c| lru.miss_ratio(c)).collect()
}

/// Runs the Fig. 1 sweep: miss ratio averaged over `workloads` at each
/// DRAM fraction. Parallelized over the worker count in
/// `ASTRIFLASH_THREADS`.
pub fn sweep(
    params: &WorkloadParams,
    workloads: &[WorkloadKind],
    fractions: &[f64],
    accesses_per_point: usize,
    seed: u64,
) -> Vec<Fig1Point> {
    sweep_with(
        &Sweep::from_env(),
        params,
        workloads,
        fractions,
        accesses_per_point,
        seed,
    )
}

/// [`sweep`] with an explicit worker pool.
pub fn sweep_with(
    sweep: &Sweep,
    params: &WorkloadParams,
    workloads: &[WorkloadKind],
    fractions: &[f64],
    accesses_per_point: usize,
    seed: u64,
) -> Vec<Fig1Point> {
    if fractions.is_empty() {
        return Vec::new();
    }
    let num_pages = (params.dataset_bytes / PAGE_SIZE).max(1);
    let capacities: Vec<usize> = fractions
        .iter()
        .map(|&fraction| ((num_pages as f64 * fraction) as usize).max(1))
        .collect();
    // One cell per workload: each replay yields every fraction's ratio.
    let ratios = sweep.map(workloads, |i, &kind| {
        replay_miss_ratios(params, kind, i, &capacities, accesses_per_point, seed)
    });

    // Merge in fraction order; the per-fraction mean sums ratios in
    // workload order, exactly as the sequential version did.
    fractions
        .iter()
        .enumerate()
        .map(|(fi, &fraction)| {
            let miss_ratio = ratios.iter().map(|r| r[fi]).sum::<f64>() / ratios.len().max(1) as f64;
            let per_core = DRAM_BW_PER_CORE_GBPS / BLOCK_SIZE as f64
                * miss_ratio
                * PAGE_SIZE as f64;
            Fig1Point {
                dram_fraction: fraction,
                miss_ratio,
                flash_bw_per_core_gbps: per_core,
                flash_bw_64core_gbps: per_core * 64.0,
            }
        })
        .collect()
}

/// The paper's sweep grid (0.5 %–16 % of the dataset).
pub fn default_fractions() -> Vec<f64> {
    vec![0.005, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.12, 0.16]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_decreases_with_capacity() {
        let params = WorkloadParams::tiny_for_tests();
        let pts = sweep(
            &params,
            &[WorkloadKind::HashTable],
            &[0.01, 0.03, 0.10],
            40_000,
            3,
        );
        assert_eq!(pts.len(), 3);
        assert!(pts[0].miss_ratio > pts[1].miss_ratio);
        assert!(pts[1].miss_ratio > pts[2].miss_ratio);
    }

    #[test]
    fn bandwidth_follows_equation_one() {
        let params = WorkloadParams::tiny_for_tests();
        let pts = sweep(&params, &[WorkloadKind::ArraySwap], &[0.03], 20_000, 4);
        let p = pts[0];
        let expect = 0.5 / 64.0 * p.miss_ratio * 4096.0;
        assert!((p.flash_bw_per_core_gbps - expect).abs() < 1e-12);
        assert!((p.flash_bw_64core_gbps - 64.0 * expect).abs() < 1e-9);
    }

    #[test]
    fn curve_flattens_at_high_capacity() {
        // The paper's observation: returns diminish past a few percent.
        let params = WorkloadParams::tiny_for_tests();
        let pts = sweep(
            &params,
            &[WorkloadKind::HashTable],
            &[0.01, 0.03, 0.08, 0.16],
            60_000,
            5,
        );
        let drop_low = pts[0].miss_ratio - pts[1].miss_ratio;
        let drop_high = pts[2].miss_ratio - pts[3].miss_ratio;
        assert!(
            drop_high < drop_low,
            "curve should flatten: {drop_low} vs {drop_high}"
        );
    }
}
