//! Run-environment record: enough to tell a noisy run from a slow one.
//!
//! The host this benchmark was tuned on is a small VM whose noise comes
//! from other guests on the same machine, so each run records CPU steal
//! and load average before and after, the worker count and `nproc`.

use std::fmt::Write as _;

/// A point-in-time sample of host load.
#[derive(Debug, Clone, Default)]
pub struct LoadSample {
    /// Cumulative steal ticks over all CPUs (`/proc/stat`, field 8).
    pub steal_ticks: Option<u64>,
    /// The 1-minute load average (`/proc/loadavg`).
    pub loadavg_1m: Option<f64>,
}

impl LoadSample {
    /// Reads the sample now; fields that cannot be read stay `None`.
    pub fn now() -> Self {
        let steal_ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
            let cpu = s.lines().next()?;
            let mut fields = cpu.split_whitespace();
            (fields.next()? == "cpu").then_some(())?;
            fields.nth(7)?.parse().ok()
        });
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        LoadSample {
            steal_ticks,
            loadavg_1m,
        }
    }
}

/// Whether a hardware instruction counter can be opened.
pub fn hw_counters() -> &'static str {
    match probe_instruction_counter() {
        Some(true) => "available",
        Some(false) => "absent",
        None => "unprobed",
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn probe_instruction_counter() -> Option<bool> {
    use std::ffi::{c_int, c_long};
    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn close(fd: c_int) -> c_int;
    }
    #[cfg(target_arch = "x86_64")]
    const SYS_PERF_EVENT_OPEN: c_long = 298;
    #[cfg(target_arch = "aarch64")]
    const SYS_PERF_EVENT_OPEN: c_long = 241;
    // struct perf_event_attr (PERF_ATTR_SIZE_VER7 = 128 bytes):
    // type = PERF_TYPE_HARDWARE (0), size = 128,
    // config = PERF_COUNT_HW_INSTRUCTIONS (1),
    // flags = disabled | exclude_kernel | exclude_hv.
    let mut attr = [0u64; 16];
    attr[0] = 128 << 32;
    attr[1] = 1;
    attr[5] = 1 | (1 << 5) | (1 << 6);
    // SAFETY: `attr` is a live, zero-initialised 128-byte buffer laid out
    // as `perf_event_attr`, which the kernel only reads; pid 0 / cpu -1 /
    // group -1 / flags 0 are valid arguments for the calling thread.
    let fd = unsafe {
        syscall(
            SYS_PERF_EVENT_OPEN,
            attr.as_ptr(),
            0 as c_long,
            -1 as c_long,
            -1 as c_long,
            0 as c_long,
        )
    };
    if fd < 0 {
        return Some(false);
    }
    // SAFETY: `fd` was just returned by perf_event_open and is owned here.
    unsafe { close(fd as c_int) };
    Some(true)
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn probe_instruction_counter() -> Option<bool> {
    None
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn opt_json<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// The run-environment record as one JSON object.
pub fn record_json(
    workers: usize,
    unit_wall_s: &[f64],
    before: &LoadSample,
    after: &LoadSample,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let steal_delta = match (before.steal_ticks, after.steal_ticks) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    let units: Vec<String> = unit_wall_s.iter().map(f64::to_string).collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"env\":{{\"workers\":{workers},\"nproc\":{nproc},\"steal_ticks_delta\":{},\
         \"loadavg_1m_before\":{},\"loadavg_1m_after\":{},\"hw_counters\":\"{}\",\
         \"unit_wall_s\":[{}]}}}}",
        opt_json(steal_delta),
        opt_json(before.loadavg_1m),
        opt_json(after.loadavg_1m),
        hw_counters(),
        units.join(",")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_valid_json() {
        let s = LoadSample::now();
        let json = record_json(1, &[0.5, 0.25], &s, &LoadSample::default());
        astriflash_trace::json::validate(&json).expect("valid env JSON");
        assert!(json.contains("\"workers\":1"));
    }
}
