//! Golden regression tests pinning the seed-1 headline numbers from
//! EXPERIMENTS.md.
//!
//! The Fig. 3 goldens are analytic and always run. The Fig. 1 and
//! Fig. 9 goldens replay the full-scale experiments behind the
//! committed `results/` files, so they are release-only (ignored under
//! `debug_assertions`); `scripts/ci.sh` runs them via
//! `cargo test --release`.

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiments::{fig1, fig3, fig9};
use astriflash_core::sweep::Cell;
use astriflash_stats::{CsvDoc, Phase};
use astriflash_workloads::{WorkloadKind, WorkloadParams};

/// Tolerance for values EXPERIMENTS.md reports at three decimals.
const TABLE_TOL: f64 = 5e-4;

#[test]
fn fig3_saturation_throughputs_match_experiments_md() {
    let s = fig3::Fig3Systems::paper_defaults();
    let dram = s.dram_only.saturation_throughput();
    let astri = s.astriflash.saturation_throughput() / dram;
    let os = s.os_swap.saturation_throughput() / dram;
    let sync = s.flash_sync.saturation_throughput() / dram;
    // EXPERIMENTS.md: AstriFlash 0.98, OS-Swap 0.50, Flash-Sync 0.17.
    assert!((astri - 0.98).abs() < 5e-3, "AstriFlash saturation {astri}");
    assert!((os - 0.50).abs() < 5e-3, "OS-Swap saturation {os}");
    assert!((sync - 0.17).abs() < 5e-3, "Flash-Sync saturation {sync}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden; run with `cargo test --release`"
)]
fn fig1_series_matches_committed_csv() {
    let params = WorkloadParams::scaled_down();
    let workloads = [
        WorkloadKind::HashTable,
        WorkloadKind::RbTree,
        WorkloadKind::Tatp,
        WorkloadKind::ArraySwap,
    ];
    let points = fig1::sweep(
        &params,
        &workloads,
        &fig1::default_fractions(),
        2_000_000,
        1,
    );
    // Rendered exactly as the fig1 bin writes results/csv/fig1.csv, so
    // every point is pinned to the last bit.
    let mut csv = CsvDoc::new(&[
        "dram_fraction",
        "miss_ratio",
        "flash_bw_per_core_gbps",
        "flash_bw_64core_gbps",
    ]);
    for p in &points {
        csv.row_owned(vec![
            format!("{}", p.dram_fraction),
            format!("{}", p.miss_ratio),
            format!("{}", p.flash_bw_per_core_gbps),
            format!("{}", p.flash_bw_64core_gbps),
        ]);
    }
    let committed = include_str!("../../../results/csv/fig1.csv");
    assert_eq!(
        csv.render(),
        committed,
        "Fig. 1 series drifted from results/csv/fig1.csv"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden; run with `cargo test --release`"
)]
fn fig9_matrix_matches_experiments_md() {
    let configs = [
        Configuration::AstriFlash,
        Configuration::AstriFlashIdeal,
        Configuration::AstriFlashNoPS,
        Configuration::AstriFlashNoDP,
        Configuration::OsSwap,
        Configuration::FlashSync,
    ];
    let workloads = WorkloadKind::all();
    let cells = fig9::run_matrix(&SystemConfig::default(), &workloads, &configs, 400, 1);

    // The EXPERIMENTS.md table, rows in WorkloadKind::all() order,
    // columns in `configs` order.
    let expected: [(&str, [f64; 6]); 7] = [
        ("ArraySwap", [0.908, 0.924, 0.967, 0.856, 0.440, 0.233]),
        ("HashTable", [0.912, 0.942, 0.912, 0.860, 0.429, 0.208]),
        ("RBT", [0.843, 0.875, 0.157, 0.754, 0.322, 0.151]),
        ("TATP", [0.969, 0.985, 0.985, 0.686, 0.556, 0.360]),
        ("TPCC", [0.981, 0.985, 0.979, 0.946, 0.570, 0.281]),
        ("Silo", [0.937, 0.960, 0.395, 0.905, 0.433, 0.213]),
        ("Masstree", [0.851, 0.866, 0.144, 0.815, 0.333, 0.142]),
    ];
    for (workload, row) in expected {
        for (conf, want) in configs.iter().zip(row) {
            let got = cells
                .iter()
                .find(|c| c.workload == workload && c.configuration == *conf)
                .unwrap_or_else(|| panic!("missing cell {workload}/{}", conf.name()))
                .normalized;
            assert!(
                (got - want).abs() < TABLE_TOL,
                "{workload}/{}: normalized throughput {got} drifted from {want}",
                conf.name()
            );
        }
    }

    let geomeans = [0.913, 0.933, 0.498, 0.827, 0.431, 0.217];
    for (conf, want) in configs.iter().zip(geomeans) {
        let got = fig9::geomean_normalized(&cells, *conf);
        assert!(
            (got - want).abs() < TABLE_TOL,
            "geomean {}: {got} drifted from {want}",
            conf.name()
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden; run with `cargo test --release`"
)]
fn phase_breakdown_seed1_matches_golden() {
    // The seed-1 AstriFlash TATP cell's per-phase miss-latency
    // breakdown (DESIGN.md §11), pinned exactly: the simulation is
    // deterministic and the histograms are exact counters, so any
    // drift here is a real behavior change in the miss path or the
    // attribution itself.
    let r = Cell::closed(SystemConfig::default(), Configuration::AstriFlash, 1, 200).run();
    assert_eq!(r.phases.completed_misses(), 882);
    let expected: [(Phase, u64, [u64; 4]); 7] = [
        (Phase::AdmitWait, 882, [6, 6, 6, 6]),
        (Phase::CoalescedWait, 114, [27135, 69631, 86015, 89825]),
        (Phase::FlashQueue, 768, [0, 27135, 43007, 68895]),
        (Phase::FlashRead, 768, [44031, 49151, 51199, 59727]),
        (Phase::PcieXfer, 768, [1311, 30207, 43007, 58301]),
        (Phase::Install, 768, [2367, 4095, 5503, 6182]),
        (Phase::ResumeDelay, 882, [4479, 8447, 12287, 49537]),
    ];
    for (phase, count, pcts) in expected {
        assert_eq!(
            r.phases.hist(phase).count(),
            count,
            "{phase}: sample count drifted"
        );
        assert_eq!(
            r.phases.percentiles(phase),
            pcts,
            "{phase}: p50/p95/p99/p99.9 drifted"
        );
    }
}
