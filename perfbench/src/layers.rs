//! Per-layer metric assembly for traced runs.

use std::collections::BTreeMap;

use astriflash_core::RunReport;
use astriflash_stats::{Phase, PhaseSet};

use crate::spans::Spans;
use crate::{Metric, PER_LAYER};

/// Per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub(crate) struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every [`PER_LAYER`] metric in order; layers not set read 0.
    pub(crate) fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// Span-derived `core.*` metrics of a per-cell replay whose cells
    /// were built (`workloads.build`, a replica of the build inside
    /// prepare), prepared (`core.prepare`) and run (`core.run`).
    pub(crate) fn set_cell_spans(&mut self, spans: &Spans, reports: &[RunReport], records: u64) {
        self.set_builds(spans, records);
        let prepare_s = spans.total_s("core.prepare");
        let run_ns = spans.total_ns("core.run") as f64;
        let accesses: u64 = reports.iter().map(|r| count(r, "l1_accesses")).sum();
        let events: u64 = reports.iter().map(|r| r.events_processed).sum();
        self.set("core.prepare_s", prepare_s);
        self.set(
            "core.system_new_s",
            prepare_s - spans.total_s("workloads.build"),
        );
        self.set("core.run_s", run_ns * 1e-9);
        self.set("core.run_ns_per_access", run_ns / accesses.max(1) as f64);
        self.set("core.run_ns_per_event", run_ns / events.max(1) as f64);
        self.set("core.cells", reports.len() as f64);
    }

    /// `workloads.build*` from the `workloads.build` spans, each building
    /// an engine of `records` records.
    pub(crate) fn set_builds(&mut self, spans: &Spans, records: u64) {
        let build_ns = spans.total_ns("workloads.build");
        let builds = spans.count("workloads.build");
        self.set("workloads.build_s", build_ns as f64 * 1e-9);
        self.set("workloads.builds", builds as f64);
        self.set(
            "workloads.build_ns_per_record",
            build_ns as f64 / (builds * records).max(1) as f64,
        );
    }

    /// Simulated per-layer counts and tails, summed (rates weighted by
    /// their access counts, occupancy as a maximum, percentiles over the
    /// merged phase histograms) across `reports`.
    pub(crate) fn set_report_totals(&mut self, reports: &[RunReport]) {
        let sum = |name: &str| reports.iter().map(|r| count(r, name)).sum::<u64>();
        let weighted = |rate: &str, weight: &str| {
            let hits: f64 = reports
                .iter()
                .map(|r| float(r, rate) * count(r, weight) as f64)
                .sum();
            hits / sum(weight).max(1) as f64
        };
        let mut phases = PhaseSet::new();
        for r in reports {
            phases.merge(&r.phases);
        }
        let p99 = |phase: Phase| phases.percentiles(phase)[2] as f64;
        let misses = sum("dram_cache_misses");
        let stalls = sum("msr_stalls");

        self.set("os.tlb_accesses", sum("tlb_accesses") as f64);
        self.set("os.tlb_hit_rate", weighted("tlb_hit_rate", "tlb_accesses"));
        self.set("os.pt_walk_flash_reads", sum("pt_walk_flash_reads") as f64);
        self.set("mem.l1_accesses", sum("l1_accesses") as f64);
        self.set("mem.l1_hit_rate", weighted("l1_hit_rate", "l1_accesses"));
        self.set("mem.llc_hit_rate", weighted("llc_hit_rate", "llc_accesses"));
        self.set("mem.dram_cache_misses", misses as f64);
        self.set("mem.msr_stalls", stalls as f64);
        self.set(
            "mem.msr_admit_ratio",
            if misses == 0 {
                1.0
            } else {
                1.0 - stalls as f64 / misses as f64
            },
        );
        self.set(
            "mem.msr_max_occupancy",
            reports
                .iter()
                .map(|r| count(r, "msr_max_occupancy"))
                .max()
                .unwrap_or(0) as f64,
        );
        self.set("mem.admit_wait_p99_ns", p99(Phase::AdmitWait));
        self.set("mem.install_p99_ns", p99(Phase::Install));
        self.set("flash.reads", sum("flash_reads") as f64);
        self.set("flash.writebacks", sum("flash_writebacks") as f64);
        self.set("flash.queue_p99_ns", p99(Phase::FlashQueue));
        self.set("flash.read_p99_ns", p99(Phase::FlashRead));
        self.set("flash.pcie_xfer_p99_ns", p99(Phase::PcieXfer));
        self.set("uthread.switches", sum("switches") as f64);
        self.set(
            "uthread.forced_synchronous",
            sum("forced_synchronous") as f64,
        );
        self.set("uthread.resume_delay_p99_ns", p99(Phase::ResumeDelay));
        self.set("uthread.coalesced_wait_p99_ns", p99(Phase::CoalescedWait));
        self.set(
            "sim.events",
            reports.iter().map(|r| r.events_processed).sum::<u64>() as f64,
        );
    }
}

/// A count from a report's metric set (0 when absent).
fn count(r: &RunReport, name: &str) -> u64 {
    r.metrics.count(name).unwrap_or(0)
}

fn float(r: &RunReport, name: &str) -> f64 {
    r.metrics.float(name).unwrap_or(0.0)
}

/// Everything a report says about the simulated run, as text: two runs
/// of the same cell are bit-identical iff their fingerprints are equal.
pub(crate) fn fingerprint(r: &RunReport) -> String {
    let phases: Vec<[u64; 4]> = Phase::all()
        .iter()
        .map(|&p| r.phase_percentiles(p))
        .collect();
    format!(
        "{}events={} jobs={} tput_bits={:#x} service_n={} response_n={} response_max={} phases={:?}\n",
        r.render(),
        r.events_processed,
        r.jobs_completed,
        r.throughput_jobs_per_sec.to_bits(),
        r.service_hist.count(),
        r.response_hist.count(),
        r.response_hist.max(),
        phases
    )
}
