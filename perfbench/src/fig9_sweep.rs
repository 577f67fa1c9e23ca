//! `fig9_sweep`: the Fig. 9 matrix through `fig9::run_matrix_with`.
//!
//! 7 engines × 7 configurations = 49 closed-loop cells. Every cell
//! builds its engine and `SystemSim` and then runs, so build-once gains
//! and kernel gains both show; it also runs every configuration's miss
//! path.

use std::time::Instant;

use astriflash_core::experiments::fig9::{self, Fig9Cell};
use astriflash_core::{Cell, Configuration, PreparedRun, RunReport, Sweep, SystemConfig};
use astriflash_prof::Scope;
use astriflash_stats::CsvDoc;
use astriflash_workloads::WorkloadKind;

use crate::layers::{fingerprint, Layers};
use crate::spans::Spans;
use crate::{
    fnv1a, golden_mismatch, repeat_units, setup_batch_s, sum_of_fastest, Metric, Outcome, RunOpts,
    Scale, UnitFailures,
};

/// Seed transform `SystemSim::new` applies before building its engine,
/// so the traced replica build matches the build inside prepare.
const ENGINE_SEED_SALT: u64 = 0xE17;

/// Profiler scopes reported by the traced run.
const PROF_SCOPES: [(Scope, &str, &str); 7] = [
    (
        Scope::AccessRun,
        "prof.access_run.self_ms",
        "prof.access_run.calls",
    ),
    (
        Scope::DoAccess,
        "prof.do_access.self_ms",
        "prof.do_access.calls",
    ),
    (Scope::PtWalk, "prof.pt_walk.self_ms", "prof.pt_walk.calls"),
    (
        Scope::FillJob,
        "prof.fill_job.self_ms",
        "prof.fill_job.calls",
    ),
    (
        Scope::MissPath,
        "prof.miss_path.self_ms",
        "prof.miss_path.calls",
    ),
    (
        Scope::SchedulerPick,
        "prof.scheduler_pick.self_ms",
        "prof.scheduler_pick.calls",
    ),
    (
        Scope::QueueCascade,
        "prof.queue_cascade.self_ms",
        "prof.queue_cascade.calls",
    ),
];

struct Input {
    sweep: Sweep,
    base: SystemConfig,
    workloads: Vec<WorkloadKind>,
    configurations: [Configuration; 7],
    jobs_per_core: u64,
}

/// The fig9 bin's inputs: full scale, or its `--quick` scale.
fn input(scale: Scale) -> Input {
    let (base, jobs_per_core) = match scale {
        Scale::Full => (SystemConfig::default(), 400),
        Scale::Quick => (SystemConfig::default().with_cores(4).scaled_for_tests(), 80),
    };
    Input {
        sweep: Sweep::with_threads(1),
        base,
        workloads: WorkloadKind::all().to_vec(),
        configurations: Configuration::all(),
        jobs_per_core,
    }
}

/// The matrix as the fig9 bin writes `results/csv/fig9.csv`.
fn csv(cells: &[Fig9Cell]) -> String {
    let mut csv = CsvDoc::new(&[
        "workload",
        "configuration",
        "throughput_jobs_per_sec",
        "normalized",
        "miss_interval_us",
    ]);
    for c in cells {
        csv.row_owned(vec![
            c.workload.to_string(),
            c.configuration.name().to_string(),
            c.throughput.to_string(),
            c.normalized.to_string(),
            c.miss_interval_us.to_string(),
        ]);
    }
    csv.render()
}

/// Per-cell plausibility checks on the public sweep output. The quota
/// check is an inference: a cell stopped at `max_sim_time_ms` measures
/// fewer jobs than its quota over less than the cap, so a throughput
/// that would finish the quota twice within the cap rules that out.
/// The traced replay checks the quota exactly from each `RunReport`.
fn check_cells(input: &Input, cells: &[Fig9Cell], failures: &mut UnitFailures) {
    let quota = (input.jobs_per_core * input.base.cores as u64) as f64;
    let cap_s = input.base.max_sim_time_ms as f64 * 1e-3;
    for c in cells {
        let name = format!("{}/{}", c.workload, c.configuration.name());
        if !(c.throughput.is_finite() && c.throughput > 0.0) {
            failures.push((1, format!("{name}: throughput {}", c.throughput)));
        } else if c.throughput * cap_s < 2.0 * quota {
            failures.push((1, format!("{name}: may have stopped at the sim-time cap")));
        } else if c.configuration == Configuration::DramOnly && c.normalized != 1.0 {
            failures.push((
                1,
                format!("{name}: DRAM-only normalized to {}", c.normalized),
            ));
        } else if !(c.normalized > 0.0 && c.normalized.is_finite()) {
            failures.push((1, format!("{name}: normalized {}", c.normalized)));
        }
    }
}

pub(crate) fn run(opts: &RunOpts) -> Outcome {
    let input = input(opts.scale);
    let mut out = Outcome {
        workers: input.sweep.threads(),
        ..Outcome::default()
    };
    // One unit is the matrix, one public call per workload row: a row
    // is normalised to its own DRAM-only cell and its cells' seeds do
    // not depend on the row's position, so the rows concatenate to the
    // one-call matrix, and anything shared within a row (one engine
    // across its configurations) stays inside one call. Each unit keeps
    // its row times, its set-up batch time, a digest and its failed
    // checks; only the first unit's matrix is kept whole.
    let mut first = None;
    let units = repeat_units(opts.seconds, || {
        let setup_s = setup_batch_s(|| self::input(opts.scale));
        let mut cells = Vec::new();
        let mut row_s = Vec::with_capacity(input.workloads.len());
        for wl in &input.workloads {
            let t = Instant::now();
            cells.extend(fig9::run_matrix_with(
                &input.sweep,
                &input.base,
                std::slice::from_ref(wl),
                &input.configurations,
                input.jobs_per_core,
                opts.seed,
            ));
            row_s.push(t.elapsed().as_secs_f64());
        }
        let mut failures = UnitFailures::new();
        check_cells(&input, &cells, &mut failures);
        let digest = fnv1a(&csv(&cells));
        first.get_or_insert(cells);
        (row_s, setup_s, digest, failures)
    });
    let cells = &first.expect("a unit ran");
    let text = csv(cells);
    let per_unit = cells.len() as u64;
    out.attempted = per_unit * units.len() as u64;
    for (_, _, digest, failures) in &units {
        for (n, why) in failures {
            out.fail(*n, why.clone());
        }
        if *digest != fnv1a(&text) {
            out.fail(per_unit, "repeated sweep gave a different matrix".into());
        }
    }
    if let Some(why) = golden_mismatch(opts.golden, &text) {
        out.fail(out.attempted, format!("fig9 matrix: {why}"));
    }
    out.unit_wall_s = units.iter().map(|u| u.0.iter().sum()).collect();
    // The first unit is the warm-up.
    let wall_s = sum_of_fastest(units[1..].iter().map(|u| &u.0[..]));
    out.sim.push(Metric {
        name: "sim_norm_tput",
        value: fig9::geomean_normalized(cells, Configuration::AstriFlash),
        unit: "ratio",
    });

    if opts.trace {
        traced(&input, opts.seed, wall_s, &text, &mut out);
    } else {
        out.metrics.push(Metric {
            name: "wall_s",
            value: wall_s,
            unit: "s",
        });
        out.metrics.push(Metric {
            name: "setup_s",
            value: sum_of_fastest(units[1..].iter().map(|u| std::slice::from_ref(&u.1))),
            unit: "s",
        });
    }
    out
}

/// The matrix's cells in `run_matrix_with` order, with the tag it uses
/// to normalise: `None` marks a workload's DRAM-only baseline.
fn matrix_cells(input: &Input, seed: u64) -> Vec<(usize, Option<Configuration>, Cell)> {
    let mut cells = Vec::new();
    for (wi, &wl) in input.workloads.iter().enumerate() {
        let cfg = input.base.clone().with_workload(wl);
        cells.push((
            wi,
            None,
            Cell::closed(
                cfg.clone(),
                Configuration::DramOnly,
                seed,
                input.jobs_per_core,
            ),
        ));
        for &conf in &input.configurations {
            if conf != Configuration::DramOnly {
                cells.push((
                    wi,
                    Some(conf),
                    Cell::closed(cfg.clone(), conf, seed, input.jobs_per_core),
                ));
            }
        }
    }
    cells
}

/// Rebuilds the public `Fig9Cell` matrix from per-cell reports exactly
/// as `run_matrix_with` does.
fn matrix_from_reports(
    input: &Input,
    tags: &[(usize, Option<Configuration>)],
    reports: &[RunReport],
) -> Vec<Fig9Cell> {
    let mut out = Vec::new();
    for (wi, &wl) in input.workloads.iter().enumerate() {
        let report_for = |conf: Option<Configuration>| {
            let i = tags
                .iter()
                .position(|&t| t == (wi, conf))
                .expect("matrix cell was replayed");
            &reports[i]
        };
        let dram = report_for(None);
        for &conf in &input.configurations {
            let r = if conf == Configuration::DramOnly {
                dram
            } else {
                report_for(Some(conf))
            };
            out.push(Fig9Cell {
                workload: wl.name(),
                configuration: conf,
                throughput: r.throughput_jobs_per_sec,
                normalized: r.throughput_jobs_per_sec / dram.throughput_jobs_per_sec,
                miss_interval_us: r.miss_interval_us,
            });
        }
    }
    out
}

/// Per-cell traced replay of the matrix (build replica, prepare, run),
/// then a profiled pass of the cells' runs under an `astriflash_prof`
/// session. The replay must reproduce the timed matrix and the profiled
/// pass the replay's reports, bit for bit.
fn traced(input: &Input, seed: u64, wall_s: f64, timed_csv: &str, out: &mut Outcome) {
    let cells = matrix_cells(input, seed);
    let mut spans = Spans::new();
    let start = Instant::now();
    let mut reports = Vec::with_capacity(cells.len());
    for (i, (_, _, cell)) in cells.iter().enumerate() {
        let id = i as u32;
        let top = spans.open("bench.cell", None, id);
        let engine = spans.time("workloads.build", Some(top), id, || {
            cell.cfg
                .workload
                .build(&cell.cfg.workload_params, cell.seed ^ ENGINE_SEED_SALT)
        });
        drop(engine);
        let prepared = spans.time("core.prepare", Some(top), id, || cell.prepare());
        reports.push(spans.time("core.run", Some(top), id, || prepared.run()));
        spans.close(top);
    }
    let replay_s = start.elapsed().as_secs_f64();

    let quota = input.jobs_per_core * input.base.cores as u64;
    let mut failed_cells = 0;
    for r in &reports {
        if r.jobs_completed != quota {
            failed_cells += 1;
            out.fail(
                1,
                format!(
                    "{}/{}: {} of {quota} jobs (sim-time cap)",
                    r.workload,
                    r.configuration.name(),
                    r.jobs_completed
                ),
            );
        }
    }
    let tags: Vec<_> = cells.iter().map(|&(wi, conf, _)| (wi, conf)).collect();
    if csv(&matrix_from_reports(input, &tags, &reports)) != timed_csv {
        failed_cells = reports.len() as u64;
        out.fail(
            out.attempted,
            "traced replay differs from the timed sweep".into(),
        );
    }

    // Profiled pass: prepare outside the session, profile the runs only.
    let prepared: Vec<PreparedRun> = cells.iter().map(|(_, _, c)| c.prepare()).collect();
    let session = astriflash_prof::begin();
    let profiled: Vec<RunReport> = prepared.into_iter().map(PreparedRun::run).collect();
    let profile = session.finish();
    let fingerprints = |rs: &[RunReport]| rs.iter().map(fingerprint).collect::<String>();
    if fingerprints(&profiled) != fingerprints(&reports) {
        failed_cells = reports.len() as u64;
        out.fail(
            out.attempted,
            "profiled run differs from the traced replay".into(),
        );
    }

    let mut layers = Layers::default();
    layers.set_cell_spans(&spans, &reports, input.base.workload_params.num_records());
    for (scope, self_ms, calls) in PROF_SCOPES {
        let t = profile.totals(scope);
        layers.set(self_ms, t.excl_ns as f64 / 1e6);
        layers.set(calls, t.calls as f64);
    }
    layers.set_report_totals(&reports);
    let cell_work_s = spans.total_s("core.prepare") + spans.total_s("core.run");
    layers.set("core.failed_cells", failed_cells as f64);
    layers.set("core.replay_residual_s", wall_s - cell_work_s);
    let traced_s = replay_s - spans.total_s("workloads.build");
    layers.set(
        "bench.trace_overhead_pct",
        (traced_s / wall_s - 1.0) * 100.0,
    );
    out.metrics = layers.into_metrics();
    out.trace_json = Some(spans.perfetto_json());
}
