//! Workload characterization: the per-engine numbers behind the §V-A
//! calibration (job shape, write mix, page footprint, reuse).
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin workload_stats [--quick]
//! ```

use std::collections::HashSet;

use astriflash_bench::HarnessOpts;
use astriflash_core::sweep::Sweep;
use astriflash_sim::SimRng;
use astriflash_stats::{OnlineStats, TextTable};
use astriflash_workloads::{JobBuf, WorkloadKind, WorkloadParams, PAGE_SIZE};

struct Characterization {
    compute_us: OnlineStats,
    accesses: OnlineStats,
    write_fraction: f64,
    unique_pages_per_kjob: f64,
}

fn characterize(kind: WorkloadKind, params: &WorkloadParams, jobs: usize, seed: u64) -> Characterization {
    let mut engine = kind.build(params, seed);
    let mut rng = SimRng::new(seed ^ 0x57A7);
    let mut compute_us = OnlineStats::new();
    let mut accesses = OnlineStats::new();
    let mut writes = 0u64;
    let mut total = 0u64;
    let mut pages: HashSet<u64> = HashSet::new();
    let mut job = JobBuf::new();
    for _ in 0..jobs {
        engine.fill_job(&mut job, &mut rng);
        compute_us.push(job.total_compute_ns() as f64 / 1000.0);
        accesses.push(job.total_accesses() as f64);
        writes += job.total_writes() as u64;
        total += job.total_accesses() as u64;
        for a in job.accesses() {
            pages.insert(a.addr / PAGE_SIZE);
        }
    }
    Characterization {
        compute_us,
        accesses,
        write_fraction: writes as f64 / total.max(1) as f64,
        unique_pages_per_kjob: pages.len() as f64 * 1000.0 / jobs as f64,
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    let params = if opts.quick {
        WorkloadParams::tiny_for_tests()
    } else {
        WorkloadParams::scaled_down()
    };
    let jobs = if opts.quick { 2_000 } else { 20_000 };

    println!(
        "Workload characterization over {jobs} jobs each ({} MiB dataset):\n",
        params.dataset_bytes >> 20
    );
    let mut t = TextTable::new(&[
        "workload",
        "compute_us_mean",
        "compute_cv",
        "accesses_mean",
        "write_frac",
        "uniq_pages_per_1k_jobs",
    ]);
    let kinds = WorkloadKind::all();
    let characterizations = Sweep::from_env().map(&kinds, |_, &kind| {
        characterize(kind, &params, jobs, opts.seed)
    });
    for (kind, c) in kinds.iter().zip(characterizations) {
        t.row_owned(vec![
            kind.name().to_string(),
            format!("{:.1}", c.compute_us.mean()),
            format!("{:.2}", c.compute_us.coefficient_of_variation()),
            format!("{:.1}", c.accesses.mean()),
            format!("{:.3}", c.write_fraction),
            format!("{:.0}", c.unique_pages_per_kjob),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\npaper calibration targets: 10-100 us jobs (SecIV-D2), limited write\n\
         traffic (SecV-A), and a page footprint whose hot fraction fits a 3%\n\
         DRAM cache (SecII-A)."
    );
}
