//! CI perf regression gate (DESIGN.md §12).
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin perf_gate \
//!     [-- --bench results/<PERF_REPORT>.json --baseline results/perf_baseline.json]
//! ```
//!
//! Loads the freshly generated perf report (by default the one
//! [`astriflash_bench::PERF_REPORT`] names) and the committed baseline
//! floors, and exits:
//!
//! * `0` — every pinned floor held;
//! * `1` — one or more floors violated (each offending ratio printed);
//! * `2` — malformed input (unreadable file, bad JSON, missing bench,
//!   non-finite value): never silently passes.
//!
//! `--write-baseline` rewrites the baseline file from the BENCH report
//! instead of gating: every measured microbench, throughput and figure
//! cell gets a fresh floor pinned below its median per the DESIGN.md
//! §12 policy.
//! Lowering an existing floor is accepting a regression, so the rewrite
//! refuses (exit 1, offenders printed) unless `--allow-lower` is also
//! passed. The §12 rule still applies: commit the rewritten baseline in
//! a dedicated commit that explains why the floors moved.

use std::process::ExitCode;

use astriflash_bench::gate::{gate, write_baseline};
use astriflash_bench::perf_report_path;

fn main() -> ExitCode {
    let mut bench_path = perf_report_path();
    let mut baseline_path = "results/perf_baseline.json".to_owned();
    let mut write = false;
    let mut allow_lower = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" if i + 1 < args.len() => {
                bench_path = args[i + 1].clone();
                i += 1;
            }
            "--baseline" if i + 1 < args.len() => {
                baseline_path = args[i + 1].clone();
                i += 1;
            }
            "--write-baseline" => write = true,
            "--allow-lower" => allow_lower = true,
            other => {
                eprintln!("perf_gate: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if allow_lower && !write {
        eprintln!("perf_gate: --allow-lower only makes sense with --write-baseline");
        return ExitCode::from(2);
    }

    let bench_json = match std::fs::read_to_string(&bench_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf_gate: reading {bench_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline_json = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf_gate: reading {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };

    if write {
        return match write_baseline(&bench_json, &baseline_json, allow_lower, &utc_today()) {
            Ok(new) => {
                if let Err(e) = std::fs::write(&baseline_path, &new) {
                    eprintln!("perf_gate: writing {baseline_path}: {e}");
                    return ExitCode::from(2);
                }
                println!("perf_gate: rewrote {baseline_path} from {bench_path}");
                print!("{new}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perf_gate: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match gate(&bench_json, &baseline_json) {
        Ok(report) => {
            for line in &report.checks {
                println!("{line}");
            }
            if report.passed() {
                println!("perf_gate: PASS ({} floors held)", report.checks.len());
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("perf_gate: {}", v.render());
                }
                eprintln!(
                    "perf_gate: FAIL ({} of {} floors violated)",
                    report.violations.len(),
                    report.checks.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf_gate: malformed input: {e}");
            ExitCode::from(2)
        }
    }
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no external
/// date crate; the civil-from-days algorithm is exact over the range we
/// care about).
fn utc_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
