//! Variance-controlled wall-clock performance report (DESIGN.md §12).
//!
//! Produces `results/<PERF_REPORT>.json` (the name is
//! [`astriflash_bench::PERF_REPORT`]) with five sections, every number
//! measured under the adaptive protocol in
//! [`astriflash_bench::harness`] (warmup-discard, repeat until the
//! coefficient of variation settles or the rep cap is hit, report the
//! median plus CV and rep count so each number carries its own error
//! bar):
//!
//! * **microbenches** — paired baseline-vs-optimized timings of the
//!   kernel hot paths overhauled so far (see
//!   [`astriflash_bench::micro`]). Each pair reports
//!   `ratio_vs_baseline` (= baseline median / optimized median) — the
//!   machine-independent number `perf_gate` pins.
//! * **throughputs** — shipped hot paths with no retained reference,
//!   timed alone and reported as absolute rates (`per_sec`): today
//!   `job_gen`, `fill_job` on the TATP stream in jobs/s. `perf_gate`
//!   pins each with its throughput margin.
//! * **figure_cells** — median wall seconds and simulation-kernel
//!   throughput (events/second) for representative fig9 cells, one per
//!   configuration class. Setup is **hoisted out of the timed region**:
//!   each repetition builds the `SystemSim` via [`Cell::prepare`]
//!   untimed and clocks only the event loop. Where the committed
//!   baseline pins a floor, `ratio_vs_baseline` = measured rate /
//!   pinned floor. These cells run with the scope profiler
//!   *instrumented but disabled* — the floors therefore pin the
//!   disabled-path overhead budget (DESIGN.md §16).
//! * **phase_attribution** — the fig9 AstriFlash cell with per-phase
//!   latency attribution on vs off (interleaved reps, median per side),
//!   reporting the accounting overhead as a percentage (target ≤ 3 %,
//!   DESIGN.md §11).
//! * **host_prof** — the same cell with a host-side scope-profiling
//!   session attached vs detached (interleaved reps), reporting the
//!   enabled-profiler overhead as a percentage. `perf_gate` enforces
//!   the `host_prof.overhead_ceiling_pct` pinned in the baseline.
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin perf_report [-- --smoke] [-- --profile]
//! ```
//!
//! `--smoke` runs reduced-scale cells under the reduced protocol so CI
//! can validate the artifact schema in seconds. The committed full-mode
//! report is gated by `perf_gate` against `results/perf_baseline.json`.
//!
//! `--profile` is a diagnostic mode: instead of writing the report it
//! prints the measured self-profile of one fig9 AstriFlash run — the
//! scope tree from [`astriflash_prof`] — followed by the wall clock
//! grouped into hot-path rows, for aiming optimization effort.

use std::process::ExitCode;
use std::time::Instant;

use astriflash_bench::harness::{measure_prepared, Sample, VarianceConfig};
use astriflash_bench::micro::{run_microbenches, run_throughputs, Pair, Throughput};
use astriflash_bench::selfprofile::{profile_cell, profile_rows, render_rows};
use astriflash_bench::{perf_report_path, PERF_REPORT};
use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::sweep::Cell;
use astriflash_trace::json;
use std::fmt::Write as _;

struct FigureCell {
    name: &'static str,
    sample: Sample,
    events: u64,
    jobs: u64,
    /// Pinned floor from the committed baseline, if this cell has one.
    reference_rate: Option<f64>,
}

impl FigureCell {
    fn events_per_sec(&self) -> f64 {
        let wall = self.sample.median();
        if wall > 0.0 {
            self.events as f64 / wall
        } else {
            0.0
        }
    }

    fn ratio_vs_baseline(&self) -> Option<f64> {
        self.reference_rate.map(|r| self.events_per_sec() / r)
    }
}

/// Reads the pinned events/s floors out of the committed baseline so
/// the report can carry baseline-relative ratios. `None` (with a
/// warning) when the baseline is absent — the gate step will catch a
/// genuinely missing baseline in CI.
fn reference_rates() -> Option<astriflash_analyze::Value> {
    match std::fs::read_to_string("results/perf_baseline.json") {
        Ok(text) => match astriflash_analyze::parse(&text) {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("warning: results/perf_baseline.json unparseable: {e}");
                None
            }
        },
        Err(_) => {
            eprintln!("warning: results/perf_baseline.json missing; ratios omitted");
            None
        }
    }
}

fn reference_rate_for(baseline: &Option<astriflash_analyze::Value>, name: &str) -> Option<f64> {
    baseline
        .as_ref()?
        .get("events_per_sec_floors")?
        .get(name)?
        .as_num()?
        .parse()
        .ok()
}

fn run_figure_cells(cfg: &VarianceConfig, smoke: bool) -> Vec<FigureCell> {
    let (sys, jobs) = if smoke {
        (
            SystemConfig::default().with_cores(4).scaled_for_tests(),
            80u64,
        )
    } else {
        (SystemConfig::default(), 200u64)
    };
    let baseline = reference_rates();
    let specs: [(&'static str, Configuration); 3] = [
        ("fig9_astriflash_closed", Configuration::AstriFlash),
        ("fig9_flash_sync_closed", Configuration::FlashSync),
        ("fig9_dram_only_closed", Configuration::DramOnly),
    ];
    specs
        .iter()
        .map(|&(name, configuration)| {
            let cell = Cell::closed(sys.clone(), configuration, 1, jobs);
            let mut events = 0u64;
            let mut jobs_done = 0u64;
            // Setup (SystemSim construction + DRAM-prewarm replay) runs
            // untimed; only the event loop is inside the clock.
            let sample = measure_prepared(
                cfg,
                || cell.prepare(),
                |prepared| {
                    let report = prepared.run();
                    events = report.events_processed;
                    jobs_done = report.jobs_completed;
                },
            );
            let out = FigureCell {
                name,
                sample,
                events,
                jobs: jobs_done,
                reference_rate: reference_rate_for(&baseline, name),
            };
            println!(
                "{name:<26} {:>8.3} s (cv {:.3}, {} reps)  {:>10.0} events/s   ({} events, {} jobs)",
                out.sample.median(),
                out.sample.cv(),
                out.sample.reps(),
                out.events_per_sec(),
                out.events,
                out.jobs,
            );
            out
        })
        .collect()
}

/// Interleaved on/off overhead measurement, condensed to a median + CV
/// per side. Used for both phase attribution and the host profiler.
struct OnOffOverhead {
    off: Sample,
    on: Sample,
    events: u64,
}

impl OnOffOverhead {
    fn overhead_pct(&self) -> f64 {
        let off = self.off.median();
        if off > 0.0 {
            (self.on.median() - off) / off * 100.0
        } else {
            0.0
        }
    }
}

fn overhead_scale(smoke: bool) -> (SystemConfig, u64) {
    if smoke {
        (
            SystemConfig::default().with_cores(4).scaled_for_tests(),
            80u64,
        )
    } else {
        (SystemConfig::default(), 200u64)
    }
}

/// Times the fig9 AstriFlash cell with phase attribution on vs off.
/// Runs are interleaved (off/on per rep) so drift hits both sides
/// equally; each side is condensed to a median + CV. Setup is prepared
/// outside the clock here too.
fn run_phase_overhead(cfg: &VarianceConfig, smoke: bool) -> OnOffOverhead {
    let (sys, jobs) = overhead_scale(smoke);
    let reps = cfg.max_reps.max(1);
    let cell_off = Cell::closed(
        sys.clone().with_phase_attribution(false),
        Configuration::AstriFlash,
        1,
        jobs,
    );
    let cell_on = Cell::closed(sys, Configuration::AstriFlash, 1, jobs);
    let mut off_walls = Vec::with_capacity(reps);
    let mut on_walls = Vec::with_capacity(reps);
    let mut events = 0u64;
    for _ in 0..reps {
        let prepared = cell_off.prepare();
        let start = Instant::now();
        let r = prepared.run();
        off_walls.push(start.elapsed().as_secs_f64());
        let prepared = cell_on.prepare();
        let start = Instant::now();
        let r_on = prepared.run();
        on_walls.push(start.elapsed().as_secs_f64());
        assert_eq!(
            r.events_processed, r_on.events_processed,
            "attribution must not change the event stream"
        );
        events = r_on.events_processed;
    }
    let out = OnOffOverhead {
        off: Sample::from_reps(off_walls),
        on: Sample::from_reps(on_walls),
        events,
    };
    println!(
        "phase_attribution off {:.3} s -> on {:.3} s   ({:+.2}% overhead, {} reps/side)",
        out.off.median(),
        out.on.median(),
        out.overhead_pct(),
        out.off.reps()
    );
    out
}

/// Times the fig9 AstriFlash cell with a host-profiling session
/// attached vs detached, interleaved like `run_phase_overhead`. The
/// detached side is the instrumented-but-disabled path every normal
/// run pays (one relaxed load + branch per scope); the attached side
/// adds two clock reads plus tree accounting per scope. The resulting
/// `overhead_pct` is what the gate's ceiling pins.
fn run_host_prof_overhead(cfg: &VarianceConfig, smoke: bool) -> OnOffOverhead {
    let (sys, jobs) = overhead_scale(smoke);
    let reps = cfg.max_reps.max(1);
    let cell = Cell::closed(sys, Configuration::AstriFlash, 1, jobs);
    let mut off_walls = Vec::with_capacity(reps);
    let mut on_walls = Vec::with_capacity(reps);
    let mut events = 0u64;
    for _ in 0..reps {
        let prepared = cell.prepare();
        let start = Instant::now();
        let r = prepared.run();
        off_walls.push(start.elapsed().as_secs_f64());
        let prepared = cell.prepare();
        let session = astriflash_prof::begin();
        let start = Instant::now();
        let r_on = prepared.run();
        on_walls.push(start.elapsed().as_secs_f64());
        let profile = session.finish();
        assert_eq!(
            r.events_processed, r_on.events_processed,
            "profiling must not change the event stream"
        );
        assert!(
            !profile.is_empty(),
            "profiled rep produced an empty scope tree"
        );
        events = r_on.events_processed;
    }
    let out = OnOffOverhead {
        off: Sample::from_reps(off_walls),
        on: Sample::from_reps(on_walls),
        events,
    };
    println!(
        "host_prof         off {:.3} s -> on {:.3} s   ({:+.2}% overhead, {} reps/side)",
        out.off.median(),
        out.on.median(),
        out.overhead_pct(),
        out.off.reps()
    );
    out
}

/// Measured self-profile (`--profile`): one fig9 AstriFlash run with a
/// scope-profiling session attached, printed as the measured scope tree
/// followed by the attribution table.
fn run_profile(smoke: bool) {
    let (sys, jobs) = overhead_scale(smoke);
    let m = profile_cell(sys, Configuration::AstriFlash, jobs);

    println!("== measured self-profile (fig9 AstriFlash, 1 rep) ==");
    println!(
        "wall {:.3} s, {} events, {} jobs",
        m.wall_ns / 1e9,
        m.run.events_processed,
        m.run.jobs_completed
    );
    print!("{}", m.profile.render_tree());

    println!("== measured attribution ==");
    print!("{}", render_rows(&m, &profile_rows(&m)));
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

fn num4(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "0".to_string()
    }
}

fn render_json(
    mode: &str,
    cfg: &VarianceConfig,
    pairs: &[Pair],
    throughputs: &[Throughput],
    cells: &[FigureCell],
    overhead: &OnOffOverhead,
    host_prof: &OnOffOverhead,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"{PERF_REPORT}\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(
        s,
        "  \"protocol\": {{\"warmup\": {}, \"min_reps\": {}, \"max_reps\": {}, \"cv_target\": {}}},",
        cfg.warmup,
        cfg.min_reps,
        cfg.max_reps,
        num(cfg.cv_target),
    );
    s.push_str("  \"microbenches\": [\n");
    for (i, p) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"baseline_ns\": {}, \
             \"baseline_cv\": {}, \"optimized\": \"{}\", \"optimized_ns\": {}, \
             \"optimized_cv\": {}, \"reps\": {}, \"ratio_vs_baseline\": {}}}{comma}",
            p.name,
            p.baseline.label,
            num(p.baseline.sample.median()),
            num4(p.baseline.sample.cv()),
            p.optimized.label,
            num(p.optimized.sample.median()),
            num4(p.optimized.sample.cv()),
            p.optimized.sample.reps(),
            num(p.ratio_vs_baseline()),
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"throughputs\": [\n");
    for (i, t) in throughputs.iter().enumerate() {
        let comma = if i + 1 < throughputs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"median_ns\": {}, \"cv\": {}, \
             \"reps\": {}, \"per_sec\": {}}}{comma}",
            t.name,
            t.unit,
            num(t.sample.median()),
            num4(t.sample.cv()),
            t.sample.reps(),
            num(t.per_sec()),
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"figure_cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let ratio = match c.ratio_vs_baseline() {
            Some(r) => format!(", \"ratio_vs_baseline\": {}", num(r)),
            None => String::new(),
        };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"median_wall_seconds\": {}, \"cv\": {}, \
             \"reps\": {}, \"events\": {}, \"jobs\": {}, \"events_per_sec\": {}{ratio}}}{comma}",
            c.name,
            num(c.sample.median()),
            num4(c.sample.cv()),
            c.sample.reps(),
            c.events,
            c.jobs,
            num(c.events_per_sec()),
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"phase_attribution\": {{\"cell\": \"fig9_astriflash_closed\", \
         \"off_wall_seconds\": {}, \"off_cv\": {}, \"on_wall_seconds\": {}, \
         \"on_cv\": {}, \"events\": {}, \"reps\": {}, \"overhead_pct\": {}}},",
        num(overhead.off.median()),
        num4(overhead.off.cv()),
        num(overhead.on.median()),
        num4(overhead.on.cv()),
        overhead.events,
        overhead.off.reps(),
        num(overhead.overhead_pct()),
    );
    let _ = writeln!(
        s,
        "  \"host_prof\": {{\"cell\": \"fig9_astriflash_closed\", \
         \"off_wall_seconds\": {}, \"off_cv\": {}, \"on_wall_seconds\": {}, \
         \"on_cv\": {}, \"events\": {}, \"reps\": {}, \"overhead_pct\": {}}}",
        num(host_prof.off.median()),
        num4(host_prof.off.cv()),
        num(host_prof.on.median()),
        num4(host_prof.on.cv()),
        host_prof.events,
        host_prof.off.reps(),
        num(host_prof.overhead_pct()),
    );
    s.push_str("}\n");
    s
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--quick");
    let profile = std::env::args().any(|a| a == "--profile");
    let mode = if smoke { "smoke" } else { "full" };
    let cfg = VarianceConfig::for_mode(smoke);

    if profile {
        run_profile(smoke);
        return ExitCode::SUCCESS;
    }

    println!("== kernel microbenches ({mode}) ==");
    let pairs = run_microbenches(&cfg, smoke);
    for p in &pairs {
        println!(
            "{:<20} {}: {:.1} ns (cv {:.3})  ->  {}: {:.1} ns (cv {:.3})   ({:.2}x, {} reps)",
            p.name,
            p.baseline.label,
            p.baseline.sample.median(),
            p.baseline.sample.cv(),
            p.optimized.label,
            p.optimized.sample.median(),
            p.optimized.sample.cv(),
            p.ratio_vs_baseline(),
            p.optimized.sample.reps(),
        );
    }

    let throughputs = run_throughputs(&cfg, smoke);
    for t in &throughputs {
        println!(
            "{:<20} {:.1} ns (cv {:.3})  ->  {:.0} {}   ({} reps)",
            t.name,
            t.sample.median(),
            t.sample.cv(),
            t.per_sec(),
            t.unit,
            t.sample.reps(),
        );
    }

    println!("== figure cells ({mode}) ==");
    let cells = run_figure_cells(&cfg, smoke);

    println!("== phase-attribution overhead ({mode}) ==");
    let overhead = run_phase_overhead(&cfg, smoke);

    println!("== host-profiler overhead ({mode}) ==");
    let host_prof = run_host_prof_overhead(&cfg, smoke);

    let out = render_json(mode, &cfg, &pairs, &throughputs, &cells, &overhead, &host_prof);
    let path = perf_report_path();
    if let Err(e) = json::validate(&out) {
        eprintln!("error: {path} failed validation: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, &out))
    {
        eprintln!("error: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path} ({} bytes)", out.len());
    ExitCode::SUCCESS
}
