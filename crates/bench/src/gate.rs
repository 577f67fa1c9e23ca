//! Perf regression gate: checks a BENCH report against the committed
//! baseline floors (`results/perf_baseline.json`).
//!
//! The baseline pins two kinds of floor, each with an **explicit noise
//! margin** so one noisy CI machine does not block a merge while a real
//! regression still does:
//!
//! * `ratio_floors` — per-microbench minimum `ratio_vs_baseline`
//!   (optimized-vs-reference speedup). Machine-speed cancels out of a
//!   ratio, so these floors are tight (`ratio_margin`, fractional).
//! * `events_per_sec_floors` — per-figure-cell minimum simulation-kernel
//!   throughput. Raw rates depend on the machine, so the margin
//!   (`throughput_margin`) is wider.
//! * `throughput_floors` — per-entry minimum absolute rate (`per_sec`)
//!   of the report's `throughputs`: hot paths with no retained
//!   reference implementation to form a ratio against, such as
//!   `job_gen` in jobs/s. Checked with `throughput_margin`. A baseline
//!   without the section pins none.
//!
//! A bench passes when `measured ≥ floor × (1 − margin)`. A bench named
//! in the baseline but missing from the report is a **hard error** (a
//! deleted bench must be removed from the baseline deliberately, not
//! silently), as is any malformed, non-finite, or non-positive value —
//! the gate never "passes by parse failure".
//!
//! The baseline may additionally pin **overhead ceilings**
//! (`overhead_ceilings_pct`): each key names a report section (e.g.
//! `host_prof`) whose `overhead_pct` must stay *at or below* the
//! pinned percentage. Ceilings are absolute — the headroom for machine
//! noise is built into the pinned value, not applied as a margin. A
//! baseline without the section pins no ceilings (older baselines stay
//! valid); a ceiling naming a section absent from the report is a hard
//! error, like a missing bench.
//!
//! Policy for *raising or lowering* floors lives in DESIGN.md §12.

use astriflash_analyze::dom::{parse, Value};

/// Which direction a pinned bound constrains the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Measured must stay at or above the (margin-adjusted) floor.
    Floor,
    /// Measured must stay at or below the pinned ceiling.
    Ceiling,
}

/// One bound violation: a measured value outside its pinned bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Bench, figure-cell, or overhead-section name.
    pub bench: String,
    /// What was measured.
    pub measured: f64,
    /// The pinned bound before margin.
    pub floor: f64,
    /// The effective bound after the noise margin (ceilings carry no
    /// margin, so this equals `floor` for them).
    pub effective_floor: f64,
    /// Whether the bound is a floor or a ceiling.
    pub kind: BoundKind,
}

impl Violation {
    /// One log line naming the offending ratio, printed by the gate bin.
    pub fn render(&self) -> String {
        match self.kind {
            BoundKind::Floor => format!(
                "FAIL {}: measured {:.3} < effective floor {:.3} (pinned {:.3}, measured/pinned = {:.3})",
                self.bench,
                self.measured,
                self.effective_floor,
                self.floor,
                self.measured / self.floor,
            ),
            BoundKind::Ceiling => format!(
                "FAIL {}: measured overhead {:.2}% > pinned ceiling {:.2}%",
                self.bench, self.measured, self.floor,
            ),
        }
    }
}

/// Gate outcome for a well-formed report: the checks performed and any
/// floors violated.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Human-readable `name: measured vs floor` lines, one per check.
    pub checks: Vec<String>,
    /// Floors that were violated (empty = pass).
    pub violations: Vec<Violation>,
}

impl GateReport {
    /// True when every floor held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Malformed input: a parse failure, a missing required field, or a
/// value that is not a finite positive number. Always a hard error.
#[derive(Debug, Clone, PartialEq)]
pub struct GateError(pub String);

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn err(msg: impl Into<String>) -> GateError {
    GateError(msg.into())
}

/// Extracts a finite, strictly positive number from `obj[key]`.
/// Anything else — missing key, non-number, NaN/inf literal tricks,
/// zero, negative — is malformed.
fn finite_positive(obj: &Value, key: &str, ctx: &str) -> Result<f64, GateError> {
    let raw = obj
        .get(key)
        .ok_or_else(|| err(format!("{ctx}: missing field {key:?}")))?;
    let text = raw
        .as_num()
        .ok_or_else(|| err(format!("{ctx}: field {key:?} is not a number")))?;
    let v: f64 = text
        .parse()
        .map_err(|_| err(format!("{ctx}: field {key:?} = {text:?} does not parse")))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(err(format!(
            "{ctx}: field {key:?} = {text:?} is not a finite positive number"
        )));
    }
    Ok(v)
}

/// Extracts any finite number from `obj[key]` — overheads may
/// legitimately measure negative (noise around zero), so this only
/// rejects missing, non-numeric, or non-finite values.
fn finite_number(obj: &Value, key: &str, ctx: &str) -> Result<f64, GateError> {
    let raw = obj
        .get(key)
        .ok_or_else(|| err(format!("{ctx}: missing field {key:?}")))?;
    let text = raw
        .as_num()
        .ok_or_else(|| err(format!("{ctx}: field {key:?} is not a number")))?;
    let v: f64 = text
        .parse()
        .map_err(|_| err(format!("{ctx}: field {key:?} = {text:?} does not parse")))?;
    if !v.is_finite() {
        return Err(err(format!(
            "{ctx}: field {key:?} = {text:?} is not a finite number"
        )));
    }
    Ok(v)
}

/// A fractional margin in [0, 1).
fn margin(obj: &Value, key: &str) -> Result<f64, GateError> {
    let v = finite_positive(obj, key, "baseline")?;
    if v >= 1.0 {
        return Err(err(format!(
            "baseline: margin {key:?} = {v} must be below 1.0"
        )));
    }
    Ok(v)
}

/// Collects `{name: floor}` pairs from a baseline section.
fn floors(baseline: &Value, section: &str) -> Result<Vec<(String, f64)>, GateError> {
    let obj = baseline
        .get(section)
        .ok_or_else(|| err(format!("baseline: missing section {section:?}")))?;
    let members = match obj {
        Value::Obj(members) => members,
        _ => return Err(err(format!("baseline: section {section:?} is not an object"))),
    };
    members
        .iter()
        .map(|(name, _)| Ok((name.clone(), finite_positive(obj, name, section)?)))
        .collect()
}

/// Like [`floors`], but an absent section pins nothing.
fn optional_floors(baseline: &Value, section: &str) -> Result<Vec<(String, f64)>, GateError> {
    if baseline.get(section).is_some() {
        floors(baseline, section)
    } else {
        Ok(Vec::new())
    }
}

/// Finds the entry of `arr` whose `"name"` equals `name`.
fn entry_named<'a>(arr: &'a [Value], name: &str) -> Option<&'a Value> {
    arr.iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
}

/// Runs the gate: parses both documents, checks every pinned floor.
///
/// * `Err(GateError)` — malformed report or baseline (hard error);
/// * `Ok(report)` with violations — well-formed but below a floor;
/// * `Ok(report)` empty violations — pass.
pub fn gate(bench_json: &str, baseline_json: &str) -> Result<GateReport, GateError> {
    let bench = parse(bench_json).map_err(|e| err(format!("bench report: {e}")))?;
    let baseline = parse(baseline_json).map_err(|e| err(format!("baseline: {e}")))?;

    let ratio_margin = margin(&baseline, "ratio_margin")?;
    let throughput_margin = margin(&baseline, "throughput_margin")?;
    let ratio_floors = floors(&baseline, "ratio_floors")?;
    let rate_floors = floors(&baseline, "events_per_sec_floors")?;

    let micro = bench
        .get("microbenches")
        .and_then(Value::as_arr)
        .ok_or_else(|| err("bench report: missing \"microbenches\" array"))?;
    let cells = bench
        .get("figure_cells")
        .and_then(Value::as_arr)
        .ok_or_else(|| err("bench report: missing \"figure_cells\" array"))?;

    let mut out = GateReport {
        checks: Vec::new(),
        violations: Vec::new(),
    };
    let throughput_floors = optional_floors(&baseline, "throughput_floors")?;
    let throughputs = if throughput_floors.is_empty() {
        &[][..]
    } else {
        bench
            .get("throughputs")
            .and_then(Value::as_arr)
            .ok_or_else(|| err("bench report: missing \"throughputs\" array"))?
    };

    for (name, floor) in &ratio_floors {
        let entry = entry_named(micro, name)
            .ok_or_else(|| err(format!("bench report: microbench {name:?} named in the baseline is missing")))?;
        let measured = finite_positive(entry, "ratio_vs_baseline", &format!("microbench {name:?}"))?;
        check(&mut out, name, measured, *floor, ratio_margin, "x");
    }
    for (name, floor) in &rate_floors {
        let entry = entry_named(cells, name)
            .ok_or_else(|| err(format!("bench report: figure cell {name:?} named in the baseline is missing")))?;
        let measured = finite_positive(entry, "events_per_sec", &format!("figure cell {name:?}"))?;
        check(&mut out, name, measured, *floor, throughput_margin, " events/s");
    }
    for (name, floor) in &throughput_floors {
        let entry = entry_named(throughputs, name)
            .ok_or_else(|| err(format!("bench report: throughput {name:?} named in the baseline is missing")))?;
        let measured = finite_positive(entry, "per_sec", &format!("throughput {name:?}"))?;
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("/s");
        check(&mut out, name, measured, *floor, throughput_margin, &format!(" {unit}"));
    }
    // Optional: overhead ceilings. Absent section = nothing pinned.
    for (name, ceiling) in optional_floors(&baseline, "overhead_ceilings_pct")? {
        let section = bench.get(&name).ok_or_else(|| {
            err(format!(
                "bench report: section {name:?} named in the baseline's overhead ceilings is missing"
            ))
        })?;
        let measured = finite_number(section, "overhead_pct", &format!("section {name:?}"))?;
        check_ceiling(&mut out, &name, measured, ceiling);
    }
    Ok(out)
}

/// How far below the measured median a freshly written floor sits.
/// Floors are deliberately below the median (DESIGN.md §12: the margin
/// is for machine noise, not headroom) — ratios are machine-independent
/// so their floors sit closer; events/s floors leave more room.
const RATIO_FLOOR_FRACTION: f64 = 0.9;
const RATE_FLOOR_FRACTION: f64 = 0.75;

/// Rounds `v` down to a multiple of `step` (keeps written floors tidy
/// and bit-stable across runs that measure within the same step).
fn round_down(v: f64, step: f64) -> f64 {
    (v / step).floor() * step
}

/// One kind of floor `write_baseline` pins from a report array.
struct FloorKind {
    /// Report array holding the entries.
    array: &'static str,
    /// What one entry is, for messages.
    what: &'static str,
    /// Field of each entry the floor bounds.
    field: &'static str,
    /// Floor as a fraction of the measurement.
    fraction: f64,
    /// Rounding step (and minimum) of a written floor.
    step: f64,
}

const RATIO: FloorKind = FloorKind {
    array: "microbenches",
    what: "microbench",
    field: "ratio_vs_baseline",
    fraction: RATIO_FLOOR_FRACTION,
    step: 0.1,
};
const EVENTS_PER_SEC: FloorKind = FloorKind {
    array: "figure_cells",
    what: "figure cell",
    field: "events_per_sec",
    fraction: RATE_FLOOR_FRACTION,
    step: 1000.0,
};
const THROUGHPUT: FloorKind = FloorKind {
    array: "throughputs",
    what: "throughput",
    field: "per_sec",
    fraction: RATE_FLOOR_FRACTION,
    step: 1000.0,
};

/// Pins a floor for every entry of `entries`, recording in `lowered`
/// each one that would land below its `old` pin.
fn pin_floors(
    kind: &FloorKind,
    entries: &[Value],
    old: &[(String, f64)],
    lowered: &mut Vec<String>,
) -> Result<Vec<(String, f64)>, GateError> {
    let digits = if kind.step < 1.0 { 1 } else { 0 };
    entries
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| err(format!("bench report: {} without a \"name\"", kind.what)))?
                .to_owned();
            let measured = finite_positive(entry, kind.field, &format!("{} {name:?}", kind.what))?;
            let new = round_down(measured * kind.fraction, kind.step).max(kind.step);
            if let Some(&(_, old_f)) = old.iter().find(|(n, _)| *n == name) {
                if new < old_f {
                    lowered.push(format!(
                        "{} floor {name:?}: {old_f:.digits$} -> {new:.digits$} (measured {measured:.3})",
                        kind.what
                    ));
                }
            }
            Ok((name, new))
        })
        .collect()
}

/// Appends `"section": {name: floor, …}` with `digits` decimals.
fn write_section(out: &mut String, section: &str, entries: &[(String, f64)], digits: usize) {
    out.push_str(&format!("  \"{section}\": {{\n"));
    for (i, (name, f)) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {f:.digits$}{sep}\n"));
    }
    out.push_str("  }");
}

/// Rewrites the baseline from a BENCH report: every microbench gets a
/// ratio floor at [`RATIO_FLOOR_FRACTION`] of its measured ratio
/// (rounded down to 0.1); every figure cell an events/s floor and every
/// throughput a rate floor, both at [`RATE_FLOOR_FRACTION`] of the
/// measured rate (rounded down to 1000). Margins, ceilings and the
/// policy line carry over from the old baseline.
///
/// Per DESIGN.md §12, lowering a floor is accepting a regression — so
/// if any newly computed floor is *below* the old baseline's pinned
/// value this refuses with a hard error naming every offender, unless
/// `allow_lower` is set. Returns the new baseline JSON text.
pub fn write_baseline(
    bench_json: &str,
    old_baseline_json: &str,
    allow_lower: bool,
    updated: &str,
) -> Result<String, GateError> {
    let bench = parse(bench_json).map_err(|e| err(format!("bench report: {e}")))?;
    let old = parse(old_baseline_json).map_err(|e| err(format!("baseline: {e}")))?;

    let ratio_margin = margin(&old, "ratio_margin")?;
    let throughput_margin = margin(&old, "throughput_margin")?;
    let old_ratio_floors = floors(&old, "ratio_floors")?;
    let old_rate_floors = floors(&old, "events_per_sec_floors")?;
    let old_throughput_floors = optional_floors(&old, "throughput_floors")?;
    // Ceilings are policy numbers, not measurements: carry them over
    // unchanged (moving one is a deliberate, explained edit).
    let ceilings = optional_floors(&old, "overhead_ceilings_pct")?;

    let bench_name = bench
        .get("bench")
        .and_then(Value::as_str)
        .ok_or_else(|| err("bench report: missing \"bench\" name"))?
        .to_owned();
    let array = |kind: &FloorKind| {
        bench
            .get(kind.array)
            .and_then(Value::as_arr)
            .ok_or_else(|| err(format!("bench report: missing {:?} array", kind.array)))
    };
    let micro = array(&RATIO)?;
    let cells = array(&EVENTS_PER_SEC)?;
    // A report without throughputs may only replace a baseline that
    // pins none: dropping a pinned floor must be a deliberate edit.
    let throughputs = match array(&THROUGHPUT) {
        Ok(a) => a,
        Err(_) if old_throughput_floors.is_empty() => &[][..],
        Err(e) => return Err(e),
    };
    if micro.is_empty() || cells.is_empty() {
        return Err(err("bench report: refusing to write a baseline with no floors"));
    }

    let mut lowered: Vec<String> = Vec::new();
    let ratio_floors = pin_floors(&RATIO, micro, &old_ratio_floors, &mut lowered)?;
    let rate_floors = pin_floors(&EVENTS_PER_SEC, cells, &old_rate_floors, &mut lowered)?;
    let throughput_floors =
        pin_floors(&THROUGHPUT, throughputs, &old_throughput_floors, &mut lowered)?;
    if !lowered.is_empty() && !allow_lower {
        return Err(err(format!(
            "refusing to lower pinned floors (pass --allow-lower to accept the regression):\n  {}",
            lowered.join("\n  ")
        )));
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"baseline\": \"{bench_name}\",\n"));
    out.push_str(&format!("  \"updated\": \"{updated}\",\n"));
    out.push_str(
        "  \"policy\": \"DESIGN.md section 12: floors move only in a dedicated commit that explains why\",\n",
    );
    out.push_str(&format!("  \"ratio_margin\": {ratio_margin:.2},\n"));
    out.push_str(&format!("  \"throughput_margin\": {throughput_margin:.2},\n"));
    write_section(&mut out, "ratio_floors", &ratio_floors, 1);
    out.push_str(",\n");
    write_section(&mut out, "events_per_sec_floors", &rate_floors, 0);
    if !throughput_floors.is_empty() {
        out.push_str(",\n");
        write_section(&mut out, "throughput_floors", &throughput_floors, 0);
    }
    if !ceilings.is_empty() {
        out.push_str(",\n");
        write_section(&mut out, "overhead_ceilings_pct", &ceilings, 1);
    }
    out.push_str("\n}\n");
    Ok(out)
}

fn check(out: &mut GateReport, name: &str, measured: f64, floor: f64, margin: f64, unit: &str) {
    let effective = floor * (1.0 - margin);
    out.checks.push(format!(
        "{} {}: measured {measured:.3}{unit} vs floor {floor:.3}{unit} (margin {margin:.2} -> effective {effective:.3})",
        if measured >= effective { "ok  " } else { "FAIL" },
        name,
    ));
    if measured < effective {
        out.violations.push(Violation {
            bench: name.to_owned(),
            measured,
            floor,
            effective_floor: effective,
            kind: BoundKind::Floor,
        });
    }
}

fn check_ceiling(out: &mut GateReport, name: &str, measured: f64, ceiling: f64) {
    out.checks.push(format!(
        "{} {}: measured overhead {measured:.2}% vs ceiling {ceiling:.2}%",
        if measured <= ceiling { "ok  " } else { "FAIL" },
        name,
    ));
    if measured > ceiling {
        out.violations.push(Violation {
            bench: name.to_owned(),
            measured,
            floor: ceiling,
            effective_floor: ceiling,
            kind: BoundKind::Ceiling,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> String {
        r#"{
            "ratio_margin": 0.15,
            "throughput_margin": 0.30,
            "ratio_floors": {"event_queue_churn": 3.0},
            "events_per_sec_floors": {"fig9_astriflash_closed": 163000}
        }"#
        .to_owned()
    }

    fn bench(ratio: &str, rate: &str) -> String {
        format!(
            r#"{{
                "bench": "BENCH_6",
                "microbenches": [
                    {{"name": "event_queue_churn", "ratio_vs_baseline": {ratio}}},
                    {{"name": "unrelated", "ratio_vs_baseline": 0.5}}
                ],
                "figure_cells": [
                    {{"name": "fig9_astriflash_closed", "events_per_sec": {rate}}}
                ]
            }}"#
        )
    }

    #[test]
    fn passing_report_passes() {
        let r = gate(&bench("4.5", "170000"), &baseline()).expect("well-formed");
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.checks.len(), 2);
    }

    #[test]
    fn margin_tolerates_noise_below_the_pinned_floor() {
        // 163000 * (1 - 0.30) = 114100: a measured 120k passes…
        let r = gate(&bench("4.5", "120000"), &baseline()).expect("well-formed");
        assert!(r.passed());
    }

    #[test]
    fn fails_below_the_effective_throughput_floor() {
        // …but 100k is under the effective floor and fails.
        let r = gate(&bench("4.5", "100000"), &baseline()).expect("well-formed");
        assert!(!r.passed());
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.bench, "fig9_astriflash_closed");
        assert!(v.render().contains("100000"));
        assert!((v.effective_floor - 114100.0).abs() < 1e-6);
    }

    #[test]
    fn fails_below_the_effective_ratio_floor() {
        // 3.0 * (1 - 0.15) = 2.55: a 2.0x speedup is a regression.
        let r = gate(&bench("2.0", "170000"), &baseline()).expect("well-formed");
        assert!(!r.passed());
        assert_eq!(r.violations[0].bench, "event_queue_churn");
    }

    #[test]
    fn missing_bench_is_a_hard_error_not_a_pass() {
        let report = r#"{
            "microbenches": [{"name": "other", "ratio_vs_baseline": 9.0}],
            "figure_cells": [{"name": "fig9_astriflash_closed", "events_per_sec": 170000}]
        }"#;
        let e = gate(report, &baseline()).expect_err("must be a hard error");
        assert!(e.0.contains("event_queue_churn"), "{e}");
    }

    #[test]
    fn missing_figure_cell_is_a_hard_error() {
        let report = r#"{
            "microbenches": [{"name": "event_queue_churn", "ratio_vs_baseline": 9.0}],
            "figure_cells": []
        }"#;
        let e = gate(report, &baseline()).expect_err("must be a hard error");
        assert!(e.0.contains("fig9_astriflash_closed"), "{e}");
    }

    #[test]
    fn malformed_json_is_a_hard_error() {
        assert!(gate("{not json", &baseline()).is_err());
        assert!(gate(&bench("4.5", "170000"), "also not json").is_err());
    }

    #[test]
    fn non_numeric_and_nonpositive_fields_are_hard_errors() {
        // JSON cannot spell NaN; the closest runtime shapes are a string
        // where a number belongs, a zero, and a negative — all rejected.
        for bad in [r#""NaN""#, "0", "-3.5"] {
            let e = gate(&bench(bad, "170000"), &baseline());
            assert!(e.is_err(), "ratio {bad} must be a hard error");
        }
        let e = gate(&bench("4.5", r#""fast""#), &baseline());
        assert!(e.is_err());
    }

    #[test]
    fn huge_exponent_infinity_is_a_hard_error() {
        // 1e999 parses as f64 infinity: not a finite measurement.
        let e = gate(&bench("1e999", "170000"), &baseline());
        assert!(e.is_err());
    }

    #[test]
    fn missing_required_field_is_a_hard_error() {
        let report = r#"{
            "microbenches": [{"name": "event_queue_churn"}],
            "figure_cells": [{"name": "fig9_astriflash_closed", "events_per_sec": 170000}]
        }"#;
        let e = gate(report, &baseline()).expect_err("missing ratio field");
        assert!(e.0.contains("ratio_vs_baseline"), "{e}");
    }

    #[test]
    fn baseline_margin_must_be_fractional() {
        let bad = baseline().replace("0.15", "1.5");
        assert!(gate(&bench("4.5", "170000"), &bad).is_err());
    }

    #[test]
    fn write_baseline_pins_floors_below_the_measurements() {
        let new = write_baseline(&bench("4.5", "250000"), &baseline(), false, "2026-01-02")
            .expect("well-formed");
        // 4.5 * 0.9 = 4.05 -> 4.0; 250000 * 0.75 = 187500 -> 187000.
        assert!(new.contains("\"event_queue_churn\": 4.0"), "{new}");
        assert!(new.contains("\"unrelated\": 0.4"), "{new}");
        assert!(new.contains("\"fig9_astriflash_closed\": 187000"), "{new}");
        assert!(new.contains("\"updated\": \"2026-01-02\""), "{new}");
        assert!(new.contains("\"baseline\": \"BENCH_6\""), "{new}");
        // Margins carry over from the old baseline.
        assert!(new.contains("\"ratio_margin\": 0.15"), "{new}");
        assert!(new.contains("\"throughput_margin\": 0.30"), "{new}");
    }

    #[test]
    fn written_baseline_round_trips_through_the_gate() {
        let report = bench("4.5", "250000");
        let new = write_baseline(&report, &baseline(), false, "2026-01-02").expect("writes");
        let r = gate(&report, &new).expect("new baseline is well-formed");
        assert!(r.passed(), "violations: {:?}", r.violations);
        // Both sections gained a floor per report entry.
        assert_eq!(r.checks.len(), 3); // 2 microbenches + 1 figure cell
    }

    #[test]
    fn write_baseline_refuses_to_lower_rate_floors() {
        // 150000 * 0.75 = 112500 -> 112000 < pinned 163000.
        let e = write_baseline(&bench("4.5", "150000"), &baseline(), false, "2026-01-02")
            .expect_err("must refuse");
        assert!(e.0.contains("fig9_astriflash_closed"), "{e}");
        assert!(e.0.contains("--allow-lower"), "{e}");
    }

    #[test]
    fn write_baseline_refuses_to_lower_ratio_floors() {
        // 3.1 * 0.9 = 2.79 -> 2.7 < pinned 3.0.
        let e = write_baseline(&bench("3.1", "250000"), &baseline(), false, "2026-01-02")
            .expect_err("must refuse");
        assert!(e.0.contains("event_queue_churn"), "{e}");
    }

    #[test]
    fn allow_lower_accepts_the_regression() {
        let new = write_baseline(&bench("4.5", "150000"), &baseline(), true, "2026-01-02")
            .expect("allowed");
        assert!(new.contains("\"fig9_astriflash_closed\": 112000"), "{new}");
    }

    #[test]
    fn write_baseline_rejects_empty_reports_and_bad_values() {
        let empty = r#"{"bench": "B", "microbenches": [], "figure_cells": []}"#;
        assert!(write_baseline(empty, &baseline(), false, "d").is_err());
        assert!(write_baseline(&bench(r#""NaN""#, "170000"), &baseline(), false, "d").is_err());
        assert!(write_baseline("{not json", &baseline(), false, "d").is_err());
    }

    fn baseline_with_ceiling(ceiling: &str) -> String {
        baseline().replacen(
            "\"ratio_margin\"",
            &format!("\"overhead_ceilings_pct\": {{\"host_prof\": {ceiling}}},\n            \"ratio_margin\""),
            1,
        )
    }

    fn bench_with_overhead(pct: &str) -> String {
        let b = bench("4.5", "170000");
        format!(
            "{},\n \"host_prof\": {{\"overhead_pct\": {pct}}}}}",
            b.trim_end().trim_end_matches('}')
        )
    }

    #[test]
    fn overhead_under_the_ceiling_passes() {
        let r = gate(&bench_with_overhead("12.5"), &baseline_with_ceiling("25.0"))
            .expect("well-formed");
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.checks.len(), 3);
        assert!(r.checks.iter().any(|c| c.contains("host_prof")));
    }

    #[test]
    fn negative_overhead_is_noise_not_an_error() {
        let r = gate(&bench_with_overhead("-0.8"), &baseline_with_ceiling("25.0"))
            .expect("well-formed");
        assert!(r.passed());
    }

    #[test]
    fn overhead_over_the_ceiling_fails() {
        let r = gate(&bench_with_overhead("31.2"), &baseline_with_ceiling("25.0"))
            .expect("well-formed");
        assert!(!r.passed());
        let v = &r.violations[0];
        assert_eq!(v.bench, "host_prof");
        assert_eq!(v.kind, BoundKind::Ceiling);
        assert!(v.render().contains("ceiling"), "{}", v.render());
    }

    #[test]
    fn ceiling_naming_a_missing_section_is_a_hard_error() {
        let e = gate(&bench("4.5", "170000"), &baseline_with_ceiling("25.0"))
            .expect_err("section absent from report");
        assert!(e.0.contains("host_prof"), "{e}");
    }

    #[test]
    fn baseline_without_ceilings_pins_none() {
        // The pre-ceiling baseline shape still gates exactly as before.
        let r = gate(&bench_with_overhead("99.0"), &baseline()).expect("well-formed");
        assert!(r.passed());
        assert_eq!(r.checks.len(), 2);
    }

    #[test]
    fn write_baseline_carries_ceilings_over_unchanged() {
        let new = write_baseline(
            &bench("4.5", "250000"),
            &baseline_with_ceiling("25.0"),
            false,
            "2026-01-02",
        )
        .expect("well-formed");
        assert!(new.contains("\"overhead_ceilings_pct\""), "{new}");
        assert!(new.contains("\"host_prof\": 25.0"), "{new}");
        // And the written baseline still parses through the gate.
        let r = gate(&bench_with_overhead("10.0"), &new).expect("round-trips");
        assert!(r.passed(), "violations: {:?}", r.violations);
    }

    fn baseline_with_job_floor(floor: &str) -> String {
        baseline().replacen(
            "\"ratio_margin\"",
            &format!("\"throughput_floors\": {{\"job_gen\": {floor}}},\n            \"ratio_margin\""),
            1,
        )
    }

    fn bench_with_job_rate(per_sec: &str) -> String {
        let b = bench("4.5", "250000");
        format!(
            "{},\n \"throughputs\": [{{\"name\": \"job_gen\", \"unit\": \"jobs/s\", \"per_sec\": {per_sec}}}]}}",
            b.trim_end().trim_end_matches('}')
        )
    }

    #[test]
    fn throughput_floor_is_checked_with_the_throughput_margin() {
        // 20M * (1 - 0.30) = 14M: 15M passes, 13M fails.
        let r = gate(&bench_with_job_rate("15000000"), &baseline_with_job_floor("20000000"))
            .expect("well-formed");
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.checks.len(), 3);
        assert!(r.checks.iter().any(|c| c.contains("job_gen") && c.contains("jobs/s")));
        let r = gate(&bench_with_job_rate("13000000"), &baseline_with_job_floor("20000000"))
            .expect("well-formed");
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].bench, "job_gen");
        assert!((r.violations[0].effective_floor - 14_000_000.0).abs() < 1e-3);
    }

    #[test]
    fn throughput_floor_missing_from_the_report_is_a_hard_error() {
        // No `throughputs` array at all…
        let e = gate(&bench("4.5", "170000"), &baseline_with_job_floor("20000000"))
            .expect_err("array absent from report");
        assert!(e.0.contains("throughputs"), "{e}");
        // …or the array without the pinned entry.
        let other = bench_with_job_rate("15000000").replace("\"job_gen\"", "\"other\"");
        let e = gate(&other, &baseline_with_job_floor("20000000"))
            .expect_err("entry absent from report");
        assert!(e.0.contains("job_gen"), "{e}");
    }

    #[test]
    fn non_finite_or_nonpositive_throughput_is_a_hard_error() {
        for bad in ["1e999", r#""NaN""#, "0", "-5"] {
            let e = gate(&bench_with_job_rate(bad), &baseline_with_job_floor("20000000"));
            assert!(e.is_err(), "per_sec {bad} must be a hard error");
        }
        // A non-finite pinned floor is as malformed as a measured one.
        let e = gate(&bench_with_job_rate("15000000"), &baseline_with_job_floor("1e999"));
        assert!(e.is_err());
    }

    #[test]
    fn write_baseline_pins_throughput_floors() {
        let report = bench_with_job_rate("30000000");
        let new = write_baseline(&report, &baseline_with_job_floor("20000000"), false, "d")
            .expect("raises the floor");
        // 30M * 0.75 = 22.5M.
        assert!(new.contains("\"job_gen\": 22500000"), "{new}");
        let r = gate(&report, &new).expect("round-trips");
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.checks.len(), 4); // 2 microbenches + 1 cell + 1 throughput
    }

    #[test]
    fn write_baseline_refuses_to_lower_throughput_floors() {
        // 20M * 0.75 = 15M < pinned 20M.
        let report = bench_with_job_rate("20000000");
        let e = write_baseline(&report, &baseline_with_job_floor("20000000"), false, "d")
            .expect_err("must refuse");
        assert!(e.0.contains("job_gen"), "{e}");
        assert!(e.0.contains("--allow-lower"), "{e}");
        let new = write_baseline(&report, &baseline_with_job_floor("20000000"), true, "d")
            .expect("allowed");
        assert!(new.contains("\"job_gen\": 15000000"), "{new}");
    }

    #[test]
    fn write_baseline_keeps_a_pinned_throughput_floor_from_vanishing() {
        let e = write_baseline(&bench("4.5", "250000"), &baseline_with_job_floor("20000000"), false, "d")
            .expect_err("report without throughputs");
        assert!(e.0.contains("throughputs"), "{e}");
    }

    #[test]
    fn check_lines_name_every_comparison() {
        let r = gate(&bench("4.5", "170000"), &baseline()).expect("well-formed");
        assert!(r.checks.iter().any(|c| c.contains("event_queue_churn")));
        assert!(r
            .checks
            .iter()
            .any(|c| c.contains("fig9_astriflash_closed")));
    }
}
