//! `fig1_lru`: the Fig. 1 sweep through `fig1::sweep_with`.
//!
//! 4 engines × 9 DRAM fractions of exact page-LRU replay. It builds
//! engines, generates jobs and replays them through `mem::PageLru`, with
//! no `SystemSim` at all: the control workload on which a simulation-
//! kernel optimisation predicts no change.

use std::time::Instant;

use astriflash_core::experiments::fig1::{self, Fig1Point, DRAM_BW_PER_CORE_GBPS};
use astriflash_core::Sweep;
use astriflash_mem::PageLru;
use astriflash_sim::SimRng;
use astriflash_stats::CsvDoc;
use astriflash_workloads::{
    JobBuf, WorkloadEngine, WorkloadKind, WorkloadParams, BLOCK_SIZE, PAGE_SIZE,
};

use crate::layers::Layers;
use crate::spans::Spans;
use crate::{
    fnv1a, golden_mismatch, repeat_units, setup_batch_s, sum_of_fastest, Metric, Outcome, RunOpts,
    Scale, UnitFailures,
};

/// Accesses generated per traced batch: spans cover batches, not single
/// accesses, so the clock is read twice per batch.
const BATCH: usize = 1 << 16;

struct Input {
    sweep: Sweep,
    params: WorkloadParams,
    workloads: [WorkloadKind; 4],
    fractions: Vec<f64>,
    accesses: usize,
}

/// The fig1 bin's inputs: full scale, or its `--quick` scale.
fn input(scale: Scale) -> Input {
    let (params, accesses) = match scale {
        Scale::Full => (WorkloadParams::scaled_down(), 2_000_000),
        Scale::Quick => (WorkloadParams::tiny_for_tests(), 60_000),
    };
    Input {
        sweep: Sweep::with_threads(1),
        params,
        workloads: [
            WorkloadKind::HashTable,
            WorkloadKind::RbTree,
            WorkloadKind::Tatp,
            WorkloadKind::ArraySwap,
        ],
        fractions: fig1::default_fractions(),
        accesses,
    }
}

/// The series as the fig1 bin writes `results/csv/fig1.csv`.
fn csv(points: &[Fig1Point]) -> String {
    let mut csv = CsvDoc::new(&[
        "dram_fraction",
        "miss_ratio",
        "flash_bw_per_core_gbps",
        "flash_bw_64core_gbps",
    ]);
    for p in points {
        csv.row_owned(vec![
            format!("{}", p.dram_fraction),
            format!("{}", p.miss_ratio),
            format!("{}", p.flash_bw_per_core_gbps),
            format!("{}", p.flash_bw_64core_gbps),
        ]);
    }
    csv.render()
}

/// Per-point checks. Every fraction replays the same access stream per
/// engine, so by LRU inclusion the miss ratio cannot rise with capacity.
fn check_points(input: &Input, points: &[Fig1Point], failures: &mut UnitFailures) {
    let per_point = input.workloads.len() as u64;
    let mut prev = f64::INFINITY;
    for p in points {
        let ok = (0.0..=1.0).contains(&p.miss_ratio) && p.miss_ratio <= prev;
        if !ok {
            failures.push((
                per_point,
                format!(
                    "fraction {}: miss ratio {} (previous {prev})",
                    p.dram_fraction, p.miss_ratio
                ),
            ));
        }
        prev = p.miss_ratio;
    }
    if points.len() != input.fractions.len() {
        failures.push((
            per_point,
            format!(
                "{} points for {} fractions",
                points.len(),
                input.fractions.len()
            ),
        ));
    }
}

pub(crate) fn run(opts: &RunOpts) -> Outcome {
    let input = input(opts.scale);
    let mut out = Outcome {
        workers: input.sweep.threads(),
        ..Outcome::default()
    };
    // Each unit keeps its time, its set-up batch time, a digest and its
    // failed checks; only the first unit's series is kept whole.
    let mut first = None;
    let units = repeat_units(opts.seconds, || {
        let setup_s = setup_batch_s(|| self::input(opts.scale));
        let t = Instant::now();
        let points = fig1::sweep_with(
            &input.sweep,
            &input.params,
            &input.workloads,
            &input.fractions,
            input.accesses,
            opts.seed,
        );
        let wall_s = t.elapsed().as_secs_f64();
        let mut failures = UnitFailures::new();
        check_points(&input, &points, &mut failures);
        let digest = fnv1a(&csv(&points));
        first.get_or_insert(points);
        (wall_s, setup_s, digest, failures)
    });
    let points = &first.expect("a unit ran");
    let text = csv(points);
    let per_unit = (input.workloads.len() * input.fractions.len()) as u64;
    out.attempted = per_unit * units.len() as u64;
    for (_, _, digest, failures) in &units {
        for (n, why) in failures {
            out.fail(*n, why.clone());
        }
        if *digest != fnv1a(&text) {
            out.fail(per_unit, "repeated sweep gave a different series".into());
        }
    }
    if let Some(why) = golden_mismatch(opts.golden, &text) {
        out.fail(out.attempted, format!("fig1 series: {why}"));
    }
    out.unit_wall_s = units.iter().map(|u| u.0).collect();
    // The first unit is the warm-up.
    let wall_s = sum_of_fastest(units[1..].iter().map(|u| std::slice::from_ref(&u.0)));
    if let Some(p3) = points
        .iter()
        .find(|p| (p.dram_fraction - 0.03).abs() < 1e-9)
    {
        out.sim.push(Metric {
            name: "sim_miss_ratio",
            value: p3.miss_ratio,
            unit: "ratio",
        });
    }

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

/// Replays one phase (warm-up or measurement) of a fig1 cell: jobs are
/// generated until `target` accesses were produced, then replayed into
/// the LRU, in batches so spans stay coarse. Batching only delays LRU
/// accesses; the access stream and the job boundary rule are those of
/// the library's replay loop.
#[allow(clippy::too_many_arguments)]
fn replay_phase(
    spans: &mut Spans,
    top: usize,
    cell: u32,
    engine: &mut dyn WorkloadEngine,
    rng: &mut SimRng,
    lru: &mut PageLru,
    target: usize,
    buf: &mut JobBuf,
    pages: &mut Vec<u64>,
) -> usize {
    let mut done = 0;
    while done < target {
        pages.clear();
        spans.time("workloads.fill_job", Some(top), cell, || {
            while done + pages.len() < target && pages.len() < BATCH {
                engine.fill_job(buf, rng);
                pages.extend(buf.accesses().iter().map(|a| a.addr / PAGE_SIZE));
            }
        });
        spans.time("mem.page_lru", Some(top), cell, || {
            for &p in pages.iter() {
                lru.access(p);
            }
        });
        done += pages.len();
    }
    done
}

/// Per-cell traced replay of the sweep from public parts: engine build,
/// job generation and `PageLru`, with the library's seeds.
fn traced(input: &Input, seed: u64, wall_s: f64, timed_csv: &str, out: &mut Outcome) {
    let num_pages = (input.params.dataset_bytes / PAGE_SIZE).max(1);
    let mut spans = Spans::new();
    let mut buf = JobBuf::new();
    let mut pages = Vec::with_capacity(BATCH);
    let mut accesses = 0usize;
    let start = Instant::now();
    let mut ratios = Vec::new();
    for (fi, &fraction) in input.fractions.iter().enumerate() {
        for (i, &kind) in input.workloads.iter().enumerate() {
            let cell = (fi * input.workloads.len() + i) as u32;
            let top = spans.open("bench.cell", None, cell);
            let capacity = ((num_pages as f64 * fraction) as usize).max(1);
            let mut engine = spans.time("workloads.build", Some(top), cell, || {
                kind.build(&input.params, seed ^ (i as u64) << 8)
            });
            let mut rng = SimRng::new(seed ^ 0xF1 ^ (i as u64));
            let mut lru = PageLru::new(capacity);
            let (e, r, l, b, p) = (engine.as_mut(), &mut rng, &mut lru, &mut buf, &mut pages);
            accesses += replay_phase(&mut spans, top, cell, e, r, l, input.accesses, b, p);
            l.reset_counters();
            accesses += replay_phase(&mut spans, top, cell, e, r, l, input.accesses / 2, b, p);
            ratios.push(lru.miss_ratio());
            drop(engine);
            spans.close(top);
        }
    }
    let replay_s = start.elapsed().as_secs_f64();

    // Merge exactly as `fig1::sweep_with` does.
    let n = input.workloads.len();
    let points: Vec<Fig1Point> = input
        .fractions
        .iter()
        .enumerate()
        .map(|(fi, &fraction)| {
            let per_wl = &ratios[fi * n..(fi + 1) * n];
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
        .collect();
    let mut failed_cells = 0;
    if csv(&points) != timed_csv {
        failed_cells = ratios.len();
        out.fail(
            out.attempted,
            "traced replay differs from the timed sweep".into(),
        );
    }

    let mut layers = Layers::default();
    layers.set_builds(&spans, input.params.num_records());
    let per_access = |name: &str| spans.total_ns(name) as f64 / accesses.max(1) as f64;
    layers.set(
        "workloads.fill_job_ns_per_access",
        per_access("workloads.fill_job"),
    );
    layers.set("mem.page_lru_ns_per_access", per_access("mem.page_lru"));
    layers.set("core.cells", ratios.len() as f64);
    layers.set("core.failed_cells", failed_cells as f64);
    layers.set(
        "core.replay_residual_s",
        wall_s - spans.total_s("bench.cell"),
    );
    layers.set(
        "bench.trace_overhead_pct",
        (replay_s / wall_s - 1.0) * 100.0,
    );
    out.metrics = layers.into_metrics();
    out.trace_json = Some(spans.perfetto_json());
}
