//! Measured self-profile of a figure cell (DESIGN.md §16).
//!
//! `perf_report --profile` reports where a fig9 run's wall clock goes,
//! grouped into hot-path rows, from the host-side scope profiler
//! ([`astriflash_prof`]): every number is measured, none estimated.

use std::time::Instant;

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiment::RunReport;
use astriflash_core::sweep::Cell;
use astriflash_prof::{Report, Scope};

/// One profiled figure-cell run: its wall clock, the simulation's own
/// report, and the measured scope tree.
pub struct MeasuredProfile {
    /// Host wall-clock nanoseconds of the event loop (setup excluded).
    pub wall_ns: f64,
    /// The run's `RunReport` (the counts the scope calls tie to).
    pub run: RunReport,
    /// The measured scope tree.
    pub profile: Report,
}

/// Runs one closed-loop cell with a profiling session attached around
/// the event loop only: `Cell::prepare` (construction + DRAM prewarm)
/// stays outside both the clock and the session, mirroring how the
/// figure cells hoist setup out of the timed region.
///
/// Takes the process-wide profiling session for the duration — callers
/// must not already hold one (e.g. via `astriflash_prof::env_session`).
pub fn profile_cell(
    sys: SystemConfig,
    configuration: Configuration,
    jobs_per_core: u64,
) -> MeasuredProfile {
    let cell = Cell::closed(sys, configuration, 1, jobs_per_core);
    let prepared = cell.prepare();
    let session = astriflash_prof::begin();
    let start = Instant::now();
    let run = prepared.run();
    let wall_ns = start.elapsed().as_nanos() as f64;
    let profile = session.finish();
    MeasuredProfile {
        wall_ns,
        run,
        profile,
    }
}

/// One attribution row: a hot-scope group with its measured time.
pub struct ProfileRow {
    /// Row label.
    pub label: &'static str,
    /// Measured nanoseconds from the scope tree.
    pub measured_ns: f64,
}

impl ProfileRow {
    /// Measured share of the wall clock, in percent.
    pub fn measured_pct(&self, wall_ns: f64) -> f64 {
        if wall_ns > 0.0 {
            self.measured_ns / wall_ns * 100.0
        } else {
            0.0
        }
    }
}

/// Builds the attribution rows: measured scope groups plus a final
/// remainder row, so the rows sum to the wall clock.
///
/// Each row groups the scopes that do one kind of work:
///
/// * **job_gen** — `fill_job` inclusive (arena write + RNG draws).
/// * **tlb+l1 hit path** — `do_access` exclusive + `access_run`
///   exclusive: the interpreter's probe loops with nested children
///   (page-table walks, the miss path) subtracted out.
/// * **on-chip miss path** — `miss_path` inclusive (MSR admit, flash
///   issue, bookkeeping) + `pt_walk` inclusive.
/// * **event queue** — `event_loop` exclusive (pop/dispatch outside
///   any handler) + `queue_cascade` inclusive (wheel slot promotion).
pub fn profile_rows(m: &MeasuredProfile) -> Vec<ProfileRow> {
    let incl = |s: Scope| m.profile.totals(s).incl_ns as f64;
    let excl = |s: Scope| m.profile.totals(s).excl_ns as f64;

    let mut rows = vec![
        ProfileRow {
            label: "job_gen",
            measured_ns: incl(Scope::FillJob),
        },
        ProfileRow {
            label: "tlb+l1 hit path",
            measured_ns: excl(Scope::DoAccess) + excl(Scope::AccessRun),
        },
        ProfileRow {
            label: "on-chip miss path",
            measured_ns: incl(Scope::MissPath) + incl(Scope::PtWalk),
        },
        ProfileRow {
            label: "event queue",
            measured_ns: excl(Scope::EventLoop) + incl(Scope::QueueCascade),
        },
    ];
    let measured: f64 = rows.iter().map(|r| r.measured_ns).sum();
    rows.push(ProfileRow {
        label: "scheduler + other (rest)",
        measured_ns: (m.wall_ns - measured).max(0.0),
    });
    rows
}

/// Renders the attribution table.
pub fn render_rows(m: &MeasuredProfile, rows: &[ProfileRow]) -> String {
    let mut s = format!("{:<26} {:>12} {:>7}\n", "scope", "measured", "%");
    for r in rows {
        s.push_str(&format!(
            "{:<26} {:>9.1} ms {:>6.1} %\n",
            r.label,
            r.measured_ns / 1e6,
            r.measured_pct(m.wall_ns),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_share_is_a_percentage_of_wall() {
        let r = ProfileRow {
            label: "x",
            measured_ns: 25.0,
        };
        assert_eq!(r.measured_pct(100.0), 25.0);
        assert_eq!(r.measured_pct(0.0), 0.0);
    }
}
