#!/usr/bin/env bash
# Offline CI gate: build, tests (including the release-only full-scale
# goldens), and lints. No network access required — the workspace has
# no registry dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
# The root Cargo.toml sets default-members to every crate, so plain
# cargo commands cover the whole workspace.
cargo build --release --all-targets

echo "==> cargo test (fast lane: memory-path crates)"
# The SoA cache/TLB differential suites live here; running them first
# gives the quickest signal on the hottest per-access structures.
cargo test -q -p astriflash-mem -p astriflash-os

echo "==> cargo test (debug, whole workspace)"
cargo test -q

echo "==> cargo test --release (full-scale goldens included)"
cargo test -q --release

echo "==> cargo clippy"
cargo clippy --all-targets -- -D warnings

echo "==> trace_run smoke (offline Perfetto/CSV export)"
cargo run --release -q -p astriflash-bench --bin trace_run -- --quick
# trace_run self-validates the JSON (hand-rolled RFC 8259 recognizer,
# no network / no JSON crate) and exits non-zero on failure; here we
# only re-check the artifacts landed and are non-empty.
test -s results/trace_run.json
test -s results/trace_run_gauges.csv
test -s results/trace_run_phases.csv

echo "==> trace_analyze (offline reconstruction cross-validation)"
# Rebuilds the per-phase breakdown from the exported trace alone and
# compares it against the in-sim histograms; any disagreement (or a
# sheared trace with dropped events) exits non-zero.
cargo run --release -q -p astriflash-analyze --bin trace_analyze

echo "==> telemetry_report smoke (windowed tail-latency/SLO + flash-health timelines)"
# Runs the three-system open-loop comparison at reduced scale with the
# windowed-telemetry layer attached (DESIGN.md §13). The binary itself
# exits non-zero if any window cap was exceeded (dropped observations
# mean a truncated timeline) or the exported counter-track JSON fails
# validation; here we re-check the artifacts landed and are non-empty.
cargo run --release -q -p astriflash-bench --bin telemetry_report -- --quick
test -s results/telemetry.csv
test -s results/telemetry_p99_timeline.csv
test -s results/telemetry_p99_timeline.txt
test -s results/telemetry_flash_health.csv
test -s results/telemetry_flash_health.txt
test -s results/telemetry_trace.json

echo "==> latency_breakdown smoke (per-phase miss anatomy)"
cargo run --release -q -p astriflash-bench --bin latency_breakdown -- --quick
test -s results/latency_breakdown.txt
test -s results/latency_breakdown.csv

echo "==> profile_report smoke (host-side scope profiles + merged trace)"
# Per-system measured scope trees, folded stacks, and Perfetto flames
# (DESIGN.md §16). The binary validates every JSON artifact in-process
# (same RFC 8259 recognizer as the trace lane) and exits non-zero on
# any failure; here we re-check the artifacts landed and are non-empty.
cargo run --release -q -p astriflash-bench --bin profile_report -- --quick
for sys in astriflash os_swap flash_sync; do
  test -s "results/profile_${sys}.txt"
  test -s "results/profile_${sys}.folded"
  test -s "results/profile_${sys}.perfetto.json"
done
test -s results/profile_trace.json

echo "==> perf lane: perf_report (full, release) + perf_gate"
# Variance-controlled measurement (DESIGN.md §12): warmup-discard,
# adaptive reps to a CV target, medians + baseline-relative ratios into
# results/BENCH_10.json. perf_gate then checks every pinned floor in
# results/perf_baseline.json (with its explicit noise margins) and the
# host-profiler overhead ceiling (DESIGN.md §16), exiting non-zero on
# any violation, printing the offenders — perf regressions are
# un-mergeable, not merely recorded.
cargo run --release -q -p astriflash-bench --bin perf_report
test -s results/BENCH_10.json
cargo run --release -q -p astriflash-bench --bin perf_gate

echo "CI green."
