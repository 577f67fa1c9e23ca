//! End-to-end benchmark of the AstriFlash reproduction.
//!
//! Two workloads, each run through the library's public entry points on
//! a one-worker [`Sweep`](astriflash_core::Sweep) in this process:
//!
//! * `fig9_sweep` — the Fig. 9 matrix (`fig9::run_matrix_with`);
//! * `fig1_lru` — the Fig. 1 sweep (`fig1::sweep_with`), which bypasses
//!   the simulation kernel.
//!
//! Each run repeats short units many times and reports, per timed piece,
//! the fastest repeat ([`sum_of_fastest`]). An untraced run reports the
//! end-to-end metrics ([`END_TO_END`]). A traced run repeats the work
//! once more under spans taken around the benchmark's own calls into
//! each crate and reports [`PER_LAYER`]. See `README.md` beside this
//! crate for why each workload and metric exists.

pub mod envrec;
mod fig1_lru;
mod fig9_sweep;
mod layers;
pub mod spans;

use std::time::Instant;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full Fig. 9 matrix: 7 engines × 7 configurations.
    Fig9Sweep,
    /// Full Fig. 1 sweep: 4 engines × 9 DRAM fractions of LRU replay.
    Fig1Lru,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Fig9Sweep, Workload::Fig1Lru];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Sweep => "fig9_sweep",
            Workload::Fig1Lru => "fig1_lru",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-figure scale: the sweeps reproduce the committed
    /// `results/csv/fig9.csv` and `results/csv/fig1.csv`. One sweep takes
    /// ~20 s, so a run holds one or two units.
    Full,
    /// The scale `BENCHMARK.json` runs: the figure bins' `--quick` inputs.
    /// A unit takes ~0.2 s, so a run holds hundreds.
    Quick,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget: after one warm-up unit, whole units are
    /// repeated while the next one is expected to end within it; at least
    /// one is always measured.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Expected FNV-1a digest of the workload's rendered output, if one
    /// is pinned for this (workload, scale, seed).
    pub golden: Option<u64>,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of a traced run: `(name, unit)`. Every traced run
/// reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("workloads.build_ns_per_record", "ns"),
    ("workloads.fill_job_ns_per_access", "ns"),
    ("mem.page_lru_ns_per_access", "ns"),
    ("core.prepare_s", "s"),
    ("core.system_new_s", "s"),
    ("core.run_s", "s"),
    ("core.run_ns_per_access", "ns"),
    ("core.run_ns_per_event", "ns"),
    ("core.cells", "count"),
    ("core.failed_cells", "count"),
    ("core.replay_residual_s", "s"),
    ("prof.access_run.self_ms", "ms"),
    ("prof.access_run.calls", "count"),
    ("prof.do_access.self_ms", "ms"),
    ("prof.do_access.calls", "count"),
    ("prof.pt_walk.self_ms", "ms"),
    ("prof.pt_walk.calls", "count"),
    ("prof.fill_job.self_ms", "ms"),
    ("prof.fill_job.calls", "count"),
    ("prof.miss_path.self_ms", "ms"),
    ("prof.miss_path.calls", "count"),
    ("prof.scheduler_pick.self_ms", "ms"),
    ("prof.scheduler_pick.calls", "count"),
    ("prof.queue_cascade.self_ms", "ms"),
    ("prof.queue_cascade.calls", "count"),
    ("os.tlb_accesses", "count"),
    ("os.tlb_hit_rate", "ratio"),
    ("os.pt_walk_flash_reads", "count"),
    ("mem.l1_accesses", "count"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.llc_hit_rate", "ratio"),
    ("mem.dram_cache_misses", "count"),
    ("mem.msr_stalls", "count"),
    ("mem.msr_admit_ratio", "ratio"),
    ("mem.msr_max_occupancy", "count"),
    ("mem.admit_wait_p99_ns", "ns"),
    ("mem.install_p99_ns", "ns"),
    ("flash.reads", "count"),
    ("flash.writebacks", "count"),
    ("flash.queue_p99_ns", "ns"),
    ("flash.read_p99_ns", "ns"),
    ("flash.pcie_xfer_p99_ns", "ns"),
    ("uthread.switches", "count"),
    ("uthread.forced_synchronous", "count"),
    ("uthread.resume_delay_p99_ns", "ns"),
    ("uthread.coalesced_wait_p99_ns", "ns"),
    ("sim.events", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (sweep cells) attempted.
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Simulated outcome of the run: repeats exactly at a fixed seed, so
    /// it is a correctness record rather than a timed metric.
    pub sim: Vec<Metric>,
    /// Perfetto trace of a traced run.
    pub trace_json: Option<String>,
    /// Sweep worker count (always 1).
    pub workers: usize,
    /// Host wall time of each measured unit, in run order.
    pub unit_wall_s: Vec<f64>,
}

impl Outcome {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records a failed check that spoils `cells` operations.
    pub fn fail(&mut self, cells: u64, why: String) {
        self.failed = (self.failed + cells).min(self.attempted);
        self.failures.push(why);
    }

    /// The final result line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The simulated-outcome line printed before the result.
    pub fn sim_json(&self) -> String {
        format!("{{\"sim\":{}}}", metrics_json(&self.sim))
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Pinned output digests: (workload, scale, seed, FNV-1a of the
/// rendered output). The full-scale seed-1 sweep digests are those of the
/// committed `results/csv/fig9.csv` and `results/csv/fig1.csv`, so
/// `--scale full` reproduces the paper figures exactly or fails.
pub const GOLDEN: [(Workload, Scale, u64, u64); 4] = [
    (Workload::Fig9Sweep, Scale::Full, 1, 0x9509_2e9f_0409_8666),
    (Workload::Fig1Lru, Scale::Full, 1, 0x1ea2_9379_421e_12cd),
    (Workload::Fig9Sweep, Scale::Quick, 1, 0x1d13_6408_e22c_87da),
    (Workload::Fig1Lru, Scale::Quick, 1, 0x9075_7e2f_98e5_2019),
];

/// The pinned digest for a run, if any.
pub fn golden(workload: Workload, scale: Scale, seed: u64) -> Option<u64> {
    GOLDEN
        .iter()
        .find(|g| g.0 == workload && g.1 == scale && g.2 == seed)
        .map(|g| g.3)
}

/// 64-bit FNV-1a.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks `text` against the pinned digest; `None` when none is pinned.
fn golden_mismatch(golden: Option<u64>, text: &str) -> Option<String> {
    let want = golden?;
    let got = fnv1a(text);
    (got != want).then(|| format!("output digest {got:#018x} != pinned {want:#018x}"))
}

/// The sum over a unit's timed pieces of each piece's fastest time
/// across `units`, each a slice of piece times in the same order.
///
/// Timings report this rather than a median. On the shared host the
/// benchmark was tuned on, other guests slow identical work by 1.3–2×
/// for stretches of a second to several minutes, so a run's median moves
/// with how much of it such a stretch covered. Noise only ever adds
/// time, and a short piece repeated many times catches a quiet moment
/// even inside a busy stretch, so the fastest repeat of each piece is
/// the steadiest estimate of the program's own cost.
pub fn sum_of_fastest<'a>(units: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let mut fastest: Vec<f64> = Vec::new();
    for pieces in units {
        if fastest.is_empty() {
            fastest = pieces.to_vec();
        }
        for (f, &t) in fastest.iter_mut().zip(pieces) {
            *f = f.min(t);
        }
    }
    fastest.iter().sum()
}

/// Set-up constructions per timed batch. A sweep's input construction
/// takes tens of nanoseconds, about as long as a clock read, so it is
/// timed in batches and reported per construction.
const SETUP_BATCH: u32 = 1000;

/// Times one batch of [`SETUP_BATCH`] calls of `f` and returns the time
/// of one call in seconds. Callers time a batch before every unit, so
/// the fastest batch comes from the same quiet moments as the units.
fn setup_batch_s<T>(mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
}

/// Failed checks of one unit, kept until the run's operation count is
/// known: (operations spoiled, why).
type UnitFailures = Vec<(u64, String)>;

/// Runs one warm-up unit, then whole measured units while the next one
/// is expected to end within `seconds` of the first measured one's
/// start; at least one is measured. The warm-up unit comes first in the
/// result: it is checked like the others but left out of timings.
fn repeat_units<T>(seconds: f64, mut unit: impl FnMut() -> T) -> Vec<T> {
    let mut out = vec![unit()];
    let start = Instant::now();
    out.push(unit());
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let per_unit = elapsed / (out.len() - 1) as f64;
        if elapsed + per_unit > seconds {
            return out;
        }
        out.push(unit());
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = match opts.workload {
        Workload::Fig9Sweep => fig9_sweep::run(opts),
        Workload::Fig1Lru => fig1_lru::run(opts),
    };
    if !opts.trace {
        let rss = envrec::peak_rss_mb();
        if rss.is_none() {
            out.fail(out.attempted, "VmHWM unavailable".into());
        }
        out.metrics.push(Metric {
            name: "peak_rss_mb",
            value: rss.unwrap_or(f64::NAN),
            unit: "MiB",
        });
    }
    // JSON has no NaN or infinity: such a value is a failure, printed as 0.
    let mut non_finite = Vec::new();
    for m in out.metrics.iter_mut().chain(out.sim.iter_mut()) {
        if !m.value.is_finite() {
            non_finite.push(format!("metric {} is not finite ({})", m.name, m.value));
            m.value = 0.0;
        }
    }
    for why in non_finite {
        out.fail(out.attempted, why);
    }
    if out.workers != 1 {
        let why = format!("sweep ran on {} workers, expected 1", out.workers);
        out.fail(out.attempted, why);
    }
    out
}
