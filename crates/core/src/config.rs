//! System configuration (Table I) and the evaluated configurations
//! (§V-B).

use astriflash_flash::FlashConfig;
use astriflash_mem::{DramCacheConfig, HierarchyConfig};
use astriflash_os::OsPagingCosts;
use astriflash_workloads::{WorkloadKind, WorkloadParams};

/// The seven evaluated configurations (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Configuration {
    /// All data served from DRAM — the ideal baseline.
    DramOnly,
    /// The full AstriFlash proposal.
    AstriFlash,
    /// AstriFlash with zero-cost thread switches.
    AstriFlashIdeal,
    /// AstriFlash with FIFO scheduling instead of priority + aging.
    AstriFlashNoPS,
    /// AstriFlash without DRAM partitioning (flash-based PT walks).
    AstriFlashNoDP,
    /// Traditional OS demand paging over flash.
    OsSwap,
    /// Synchronous flash access on every DRAM-cache miss (FlatFlash).
    FlashSync,
}

impl Configuration {
    /// All configurations in the paper's Fig. 9 order.
    pub fn all() -> [Configuration; 7] {
        [
            Configuration::DramOnly,
            Configuration::AstriFlash,
            Configuration::AstriFlashIdeal,
            Configuration::AstriFlashNoPS,
            Configuration::AstriFlashNoDP,
            Configuration::OsSwap,
            Configuration::FlashSync,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Configuration::DramOnly => "DRAM-only",
            Configuration::AstriFlash => "AstriFlash",
            Configuration::AstriFlashIdeal => "AstriFlash-Ideal",
            Configuration::AstriFlashNoPS => "AstriFlash-noPS",
            Configuration::AstriFlashNoDP => "AstriFlash-noDP",
            Configuration::OsSwap => "OS-Swap",
            Configuration::FlashSync => "Flash-Sync",
        }
    }

    /// Whether this configuration uses the hardware-managed DRAM cache
    /// (all flash-backed configurations do; DRAM-only does not).
    pub fn uses_flash(&self) -> bool {
        !matches!(self, Configuration::DramOnly)
    }

    /// Whether the configuration switches user-level threads on a miss.
    pub fn switches_on_miss(&self) -> bool {
        matches!(
            self,
            Configuration::AstriFlash
                | Configuration::AstriFlashIdeal
                | Configuration::AstriFlashNoPS
                | Configuration::AstriFlashNoDP
        )
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a [`SystemConfig`] cannot be simulated (see [`SystemConfig::check`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `cores` is zero.
    NoCores,
    /// `dram_cache_fraction` lies outside `[0.001, 1.0]`.
    DramCacheFraction(f64),
    /// `warmup_fraction` lies outside `[0.0, 1.0)`.
    WarmupFraction(f64),
    /// `max_sim_time_ms` is zero.
    NoSimTime,
    /// The telemetry window length is zero.
    TelemetryWindow,
    /// The telemetry SLO deadline is zero.
    TelemetrySlo,
    /// The telemetry window cap is zero.
    TelemetryMaxWindows,
    /// `msr_geometry` has a zero dimension.
    MsrGeometry {
        /// MSR sets.
        sets: usize,
        /// MSR ways.
        ways: usize,
    },
    /// `tlb_geometry` has zero ways, more than 16 ways, or fewer entries
    /// than ways.
    TlbGeometry {
        /// TLB entries.
        entries: usize,
        /// TLB ways.
        ways: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NoCores => write!(f, "need at least one core"),
            ConfigError::DramCacheFraction(x) => {
                write!(f, "DRAM-cache fraction {x} out of range [0.001, 1]")
            }
            ConfigError::WarmupFraction(x) => {
                write!(f, "warmup fraction {x} out of range [0, 1)")
            }
            ConfigError::NoSimTime => write!(f, "simulated time limit must be positive"),
            ConfigError::TelemetryWindow => write!(f, "telemetry window must be positive"),
            ConfigError::TelemetrySlo => write!(f, "SLO deadline must be positive"),
            ConfigError::TelemetryMaxWindows => {
                write!(f, "need at least one telemetry window")
            }
            ConfigError::MsrGeometry { sets, ways } => write!(
                f,
                "MSR geometry {sets} sets x {ways} ways needs at least one of each"
            ),
            ConfigError::TlbGeometry { entries, ways } => write!(
                f,
                "TLB geometry {entries} entries x {ways} ways needs 1-16 ways \
                 and at least as many entries as ways"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full-system parameters.
///
/// Defaults reproduce the paper's *ratios* at 1/64 scale (DESIGN.md §2):
/// 16 cores, a dataset standing in for the paper's 256 GB, a DRAM cache
/// at 3 % of it, and a flash device sized to the dataset.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Workload sizing parameters (dataset bytes, Zipf skew, …).
    pub workload_params: WorkloadParams,
    /// DRAM cache size as a fraction of the dataset (paper: 0.03).
    pub dram_cache_fraction: f64,
    /// Override of the DRAM-cache associativity (default 8, §IV-B1).
    pub dram_cache_ways: Option<usize>,
    /// Footprint-cache mode (§II-A extension): fetch only predicted-hot
    /// blocks of each page from flash.
    pub footprint_cache: bool,
    /// On-chip hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Flash device parameters (capacity is overridden to the dataset).
    pub flash: FlashConfig,
    /// OS paging costs (OS-Swap baseline).
    pub os_costs: OsPagingCosts,
    /// User-level thread switch cost in ns (100 ns, §IV; 0 for Ideal).
    pub switch_cost_ns: u64,
    /// User-level threads per core (32–64 per workload, §V-A); `None`
    /// uses the workload's hint.
    pub threads_per_core: Option<usize>,
    /// Pending-queue capacity per core (§IV-D1); defaults to the thread
    /// count minus one.
    pub pending_queue_capacity: Option<usize>,
    /// DRAM-cache miss-status-row geometry: (sets, ways).
    pub msr_geometry: (usize, usize),
    /// Aging-threshold multiplier for the priority scheduler (the
    /// starvation guard fires at `multiplier x` the average flash
    /// response; §IV-D2, ablation knob).
    pub aging_multiplier: f64,
    /// Second-level TLB geometry: (entries, ways). The paper leans on
    /// large translation reach (§IV-A); this knob quantifies it.
    pub tlb_geometry: (usize, usize),
    /// Per-phase miss-latency attribution (DESIGN.md §11). Always on by
    /// default — recording is per-miss and never affects timing
    /// decisions; the knob exists so `perf_report` can measure the
    /// accounting overhead against a true baseline.
    pub phase_attribution: bool,
    /// Batched hit-run interpreter (DESIGN.md §15): consume leading
    /// TLB-hit+L1-hit runs of a job's contiguous access slab in one
    /// pass instead of one interpreter step per access. On by default —
    /// the batched path is decision-identical to the scalar path
    /// (proven by the differential suite in
    /// `crates/core/tests/hit_run_differential.rs`); the knob retains
    /// the scalar interpreter as the in-tree reference and lets
    /// `perf_report` pair the two.
    pub batched_hit_runs: bool,
    /// Use the in-order stall model ([`astriflash_cpu::OooTiming::in_order`])
    /// instead of the default OoO overlap model: every memory latency is
    /// fully exposed as stall. An ablation knob; it also gives the
    /// differential suite a configuration whose per-access L1 stall is
    /// nonzero, so hit runs can be truncated by the slice budget.
    pub in_order_timing: bool,
    /// Time-resolved telemetry (DESIGN.md §13): when set, the run
    /// collects windowed latency/SLO, cache, MSR, and flash-health
    /// series into a `TelemetryReport`. `None` (default) compiles the
    /// collection hooks down to a single skipped `Option` check; either
    /// way the simulated outcome is bit-identical.
    pub telemetry: Option<crate::telemetry::TelemetryCfg>,
    /// Simulated-time cap per run; closed-loop runs end at the job quota
    /// or this cap, whichever comes first.
    pub max_sim_time_ms: u64,
    /// Warmup fraction of the job quota excluded from statistics.
    pub warmup_fraction: f64,
}

impl SystemConfig {
    /// Builder-style: set core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Builder-style: set the workload.
    pub fn with_workload(mut self, workload: WorkloadKind) -> Self {
        self.workload = workload;
        self
    }

    /// Builder-style: set workload parameters.
    pub fn with_workload_params(mut self, params: WorkloadParams) -> Self {
        self.workload_params = params;
        self
    }

    /// Builder-style: set the DRAM-cache fraction of the dataset.
    pub fn with_dram_cache_fraction(mut self, fraction: f64) -> Self {
        self.dram_cache_fraction = fraction;
        self
    }

    /// Builder-style: set the user-level switch cost.
    pub fn with_switch_cost_ns(mut self, ns: u64) -> Self {
        self.switch_cost_ns = ns;
        self
    }

    /// Builder-style: set threads per core.
    pub fn with_threads_per_core(mut self, threads: usize) -> Self {
        self.threads_per_core = Some(threads);
        self
    }

    /// Builder-style: set the scheduler's aging multiplier.
    pub fn with_aging_multiplier(mut self, multiplier: f64) -> Self {
        self.aging_multiplier = multiplier;
        self
    }

    /// Builder-style: set the MSR geometry (sets, ways).
    pub fn with_msr_geometry(mut self, sets: usize, ways: usize) -> Self {
        self.msr_geometry = (sets, ways);
        self
    }

    /// Builder-style: set the TLB geometry (entries, ways).
    pub fn with_tlb_geometry(mut self, entries: usize, ways: usize) -> Self {
        self.tlb_geometry = (entries, ways);
        self
    }

    /// Shrinks every dimension for fast unit tests: tiny dataset, few
    /// threads, small caches.
    pub fn scaled_for_tests(mut self) -> Self {
        self.workload_params = WorkloadParams::tiny_for_tests();
        self.hierarchy.llc_bytes = 256 << 10;
        self.hierarchy.l2_bytes = 64 << 10;
        self.threads_per_core = Some(16);
        // The tiny dataset needs a larger cache fraction to land in the
        // paper's miss-interval regime (the 8 MiB dataset has only 2048
        // pages; 3 % would be 64 pages).
        self.dram_cache_fraction = 0.25;
        self.max_sim_time_ms = 50;
        self
    }

    /// The DRAM-cache configuration derived from the dataset size.
    pub fn dram_cache_config(&self) -> DramCacheConfig {
        let defaults = DramCacheConfig::default();
        DramCacheConfig {
            capacity_bytes: ((self.workload_params.dataset_bytes as f64
                * self.dram_cache_fraction) as u64)
                .max(4096 * 8 * 8),
            ways: self.dram_cache_ways.unwrap_or(defaults.ways),
            footprint: self.footprint_cache,
            ..defaults
        }
    }

    /// Builder-style: toggle per-phase miss-latency attribution (on by
    /// default; `perf_report` turns it off to measure its overhead).
    pub fn with_phase_attribution(mut self, enabled: bool) -> Self {
        self.phase_attribution = enabled;
        self
    }

    /// Builder-style: toggle the batched hit-run interpreter (on by
    /// default; the differential suite and `perf_report` turn it off to
    /// run the retained scalar reference path).
    pub fn with_batched_hit_runs(mut self, enabled: bool) -> Self {
        self.batched_hit_runs = enabled;
        self
    }

    /// Builder-style: run cores with the fully exposed in-order stall
    /// model (ablation; default is the OoO overlap model).
    pub fn with_in_order_timing(mut self, enabled: bool) -> Self {
        self.in_order_timing = enabled;
        self
    }

    /// Builder-style: attach windowed telemetry (DESIGN.md §13).
    pub fn with_telemetry(mut self, telemetry: crate::telemetry::TelemetryCfg) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Builder-style: enable the footprint-cache extension.
    pub fn with_footprint_cache(mut self, enabled: bool) -> Self {
        self.footprint_cache = enabled;
        self
    }

    /// The flash configuration with capacity pinned to the dataset plus
    /// the page-table region.
    pub fn flash_config(&self) -> FlashConfig {
        let mut f = self.flash.clone();
        f.capacity_bytes = self.workload_params.dataset_bytes + self.page_table_region_bytes();
        f
    }

    /// Bytes reserved past the dataset for page tables (≈0.2 % of the
    /// dataset, the size of a 4-level radix tree over it).
    pub fn page_table_region_bytes(&self) -> u64 {
        (self.workload_params.dataset_bytes / 512).max(64 << 10)
    }

    /// Effective threads per core for `workload`.
    pub fn effective_threads_per_core(&self, hint: usize) -> usize {
        self.threads_per_core.unwrap_or(hint)
    }

    /// Checks ratios, sizes and geometries, returning the first problem.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::NoCores);
        }
        if !(0.001..=1.0).contains(&self.dram_cache_fraction) {
            return Err(ConfigError::DramCacheFraction(self.dram_cache_fraction));
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err(ConfigError::WarmupFraction(self.warmup_fraction));
        }
        if self.max_sim_time_ms == 0 {
            return Err(ConfigError::NoSimTime);
        }
        if let Some(t) = &self.telemetry {
            t.check()?;
        }
        let (sets, ways) = self.msr_geometry;
        if sets == 0 || ways == 0 {
            return Err(ConfigError::MsrGeometry { sets, ways });
        }
        let (entries, ways) = self.tlb_geometry;
        if !(1..=16).contains(&ways) || entries < ways {
            return Err(ConfigError::TlbGeometry { entries, ways });
        }
        Ok(())
    }

    /// Validates ratios, sizes and geometries.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] that [`SystemConfig::check`]
    /// returns.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cores: 16,
            workload: WorkloadKind::Tatp,
            workload_params: WorkloadParams::scaled_down(),
            dram_cache_fraction: 0.03,
            dram_cache_ways: None,
            footprint_cache: false,
            hierarchy: HierarchyConfig::default(),
            flash: FlashConfig::default(),
            os_costs: OsPagingCosts::default(),
            switch_cost_ns: 100,
            threads_per_core: None,
            pending_queue_capacity: None,
            msr_geometry: (64, 8),
            aging_multiplier: 2.0,
            tlb_geometry: (1536, 6),
            phase_attribution: true,
            batched_hit_runs: true,
            in_order_timing: false,
            telemetry: None,
            max_sim_time_ms: 200,
            warmup_fraction: 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = SystemConfig::default();
        c.validate();
        assert_eq!(c.cores, 16);
        assert!((c.dram_cache_fraction - 0.03).abs() < 1e-12);
    }

    #[test]
    fn dram_cache_is_three_percent() {
        let c = SystemConfig::default();
        let cache = c.dram_cache_config();
        let ratio = cache.capacity_bytes as f64 / c.workload_params.dataset_bytes as f64;
        assert!((ratio - 0.03).abs() < 0.005, "ratio {ratio}");
    }

    #[test]
    fn flash_covers_dataset_and_page_tables() {
        let c = SystemConfig::default();
        let f = c.flash_config();
        assert!(f.capacity_bytes > c.workload_params.dataset_bytes);
    }

    #[test]
    fn configuration_properties() {
        assert!(!Configuration::DramOnly.uses_flash());
        assert!(Configuration::FlashSync.uses_flash());
        assert!(!Configuration::FlashSync.switches_on_miss());
        assert!(Configuration::AstriFlashNoPS.switches_on_miss());
        assert_eq!(Configuration::all().len(), 7);
        assert_eq!(Configuration::OsSwap.to_string(), "OS-Swap");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        SystemConfig::default().with_cores(0).validate();
    }

    fn check(edit: impl FnOnce(&mut SystemConfig)) -> Result<(), ConfigError> {
        let mut c = SystemConfig::default();
        edit(&mut c);
        c.check()
    }

    #[test]
    fn zero_cores_is_a_typed_error() {
        assert_eq!(check(|c| c.cores = 0), Err(ConfigError::NoCores));
    }

    #[test]
    fn dram_cache_fraction_out_of_range_is_a_typed_error() {
        assert_eq!(
            check(|c| c.dram_cache_fraction = 1.5),
            Err(ConfigError::DramCacheFraction(1.5))
        );
        assert!(check(|c| c.dram_cache_fraction = 1.0).is_ok());
    }

    #[test]
    fn warmup_fraction_out_of_range_is_a_typed_error() {
        assert_eq!(
            check(|c| c.warmup_fraction = 1.0),
            Err(ConfigError::WarmupFraction(1.0))
        );
    }

    #[test]
    fn zero_sim_time_is_a_typed_error() {
        assert_eq!(
            check(|c| c.max_sim_time_ms = 0),
            Err(ConfigError::NoSimTime)
        );
    }

    #[test]
    fn bad_telemetry_is_a_typed_error() {
        use crate::telemetry::TelemetryCfg;
        let t = TelemetryCfg::default();
        assert_eq!(
            check(|c| c.telemetry = Some(t.with_window_ns(0))),
            Err(ConfigError::TelemetryWindow)
        );
        assert_eq!(
            check(|c| c.telemetry = Some(t.with_slo_ns(0))),
            Err(ConfigError::TelemetrySlo)
        );
        assert_eq!(
            check(|c| c.telemetry = Some(t.with_max_windows(0))),
            Err(ConfigError::TelemetryMaxWindows)
        );
    }

    #[test]
    fn zero_msr_dimension_is_a_typed_error() {
        for (sets, ways) in [(0, 8), (64, 0), (0, 0)] {
            assert_eq!(
                check(|c| c.msr_geometry = (sets, ways)),
                Err(ConfigError::MsrGeometry { sets, ways })
            );
        }
        assert!(check(|c| c.msr_geometry = (1, 1)).is_ok());
    }

    #[test]
    fn bad_tlb_geometry_is_a_typed_error() {
        for (entries, ways) in [(64, 0), (64, 17), (4, 8)] {
            assert_eq!(
                check(|c| c.tlb_geometry = (entries, ways)),
                Err(ConfigError::TlbGeometry { entries, ways })
            );
        }
        assert!(check(|c| c.tlb_geometry = (1, 1)).is_ok());
        assert!(check(|c| c.tlb_geometry = (16, 16)).is_ok());
    }

    #[test]
    #[should_panic(expected = "TLB geometry 4 entries x 8 ways")]
    fn validate_panics_with_the_error() {
        SystemConfig::default().with_tlb_geometry(4, 8).validate();
    }
}
