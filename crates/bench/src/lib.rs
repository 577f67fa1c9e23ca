//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary accepts `--quick` to run a reduced-scale sweep (useful
//! in CI) and `--seed N` to change the deterministic seed.

#![warn(missing_docs)]

pub mod gate;
pub mod harness;
pub mod micro;
pub mod selfprofile;

use astriflash_core::config::SystemConfig;

/// Name of the perf report `perf_report` writes and `perf_gate` reads
/// by default (DESIGN.md §12). A change that re-measures performance
/// bumps it, so each committed report stays comparable with the last.
pub const PERF_REPORT: &str = "BENCH_14";

/// Path of the [`PERF_REPORT`] artifact, relative to the repo root.
pub fn perf_report_path() -> String {
    format!("results/{PERF_REPORT}.json")
}

/// Parsed command-line options common to all harness binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Reduced-scale run.
    pub quick: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl HarnessOpts {
    /// Parses `std::env::args`; unknown flags are ignored.
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts {
            quick: false,
            seed: 1,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.seed = v.parse().unwrap_or(1);
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }

    /// The system configuration for this run scale.
    pub fn system_config(&self) -> SystemConfig {
        if self.quick {
            SystemConfig::default().with_cores(4).scaled_for_tests()
        } else {
            SystemConfig::default()
        }
    }

    /// Jobs measured per core for closed-loop runs.
    pub fn jobs_per_core(&self) -> u64 {
        if self.quick {
            80
        } else {
            400
        }
    }

    /// Jobs per point for open-loop sweeps.
    pub fn jobs_per_point(&self) -> u64 {
        if self.quick {
            400
        } else {
            20_000
        }
    }
}

/// Formats a float with 3 decimals (table helper).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats nanoseconds as microseconds with 1 decimal.
pub fn us1(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_full_scale() {
        let o = HarnessOpts {
            quick: false,
            seed: 1,
        };
        assert_eq!(o.system_config().cores, 16);
        assert_eq!(o.jobs_per_core(), 400);
    }

    #[test]
    fn quick_mode_shrinks() {
        let o = HarnessOpts {
            quick: true,
            seed: 1,
        };
        assert_eq!(o.system_config().cores, 4);
        assert!(o.jobs_per_core() < 400);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.95449), "0.954");
        assert_eq!(us1(1500), "1.5");
    }
}
