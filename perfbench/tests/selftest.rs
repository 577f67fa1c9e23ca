//! Self-test of the benchmark: quick-scale runs print exactly the metrics
//! `BENCHMARK.json` names, with their units; a corrupted golden digest
//! fails a run; the full-scale goldens are the committed figure CSVs; and
//! running the benchmark writes nothing under `results/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

use astriflash_analyze::{parse, Value};
use astriflash_perfbench::{fnv1a, golden, run, RunOpts, Scale, Workload, END_TO_END, PER_LAYER};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn text(v: &Value) -> &str {
    v.as_str().expect("a JSON string")
}

/// `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let raw = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&raw).expect("BENCHMARK.json parses");
    get(&doc, section)
        .as_arr()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                text(get(m, "name")).to_string(),
                text(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_what_the_benchmark_prints() {
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let raw = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&raw).expect("BENCHMARK.json parses");
    let names: Vec<&str> = get(&doc, "workloads")
        .as_arr()
        .expect("a workload list")
        .iter()
        .map(|w| text(get(w, "name")))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
}

/// Size and modification time of every file under `dir`.
fn snapshot(dir: &Path, out: &mut BTreeMap<PathBuf, (u64, SystemTime)>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let entry = entry.expect("directory entry");
        let meta = entry.metadata().expect("metadata");
        if meta.is_dir() {
            snapshot(&entry.path(), out);
        } else {
            let modified = meta.modified().expect("modification time");
            out.insert(entry.path(), (meta.len(), modified));
        }
    }
}

#[test]
fn quick_runs_print_every_metric_and_leave_results_untouched() {
    let root = repo_root();
    let mut before = BTreeMap::new();
    snapshot(&root.join("results"), &mut before);
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let output = Command::new(env!("CARGO_BIN_EXE_astriflash-perfbench"))
                .current_dir(&root)
                // A malformed worker override would print a warning if
                // anything read it; the sweeps must pin one worker instead.
                .env("ASTRIFLASH_THREADS", "not-a-number")
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--scale", "quick"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            let what = format!("{} --trace {trace}", workload.name());
            assert!(
                output.status.success(),
                "{what} failed:\n{stdout}\n{stderr}"
            );
            assert!(
                !stderr.contains("ASTRIFLASH_THREADS"),
                "{what} read the env: {stderr}"
            );

            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("result line parses");
            assert_eq!(get(&result, "correct"), &Value::Bool(true), "{what}");
            assert_eq!(get(&result, "failed").as_u64(), Some(0), "{what}");
            assert!(
                get(&result, "attempted").as_u64().expect("count") >= 1,
                "{what}"
            );
            let Value::Obj(metrics) = get(&result, "metrics") else {
                panic!("{what}: metrics is not an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = get(m, "value").as_num().expect("a number");
                    assert!(value.parse::<f64>().is_ok(), "{what}: {name} = {value}");
                    (name.clone(), text(get(m, "unit")).to_string())
                })
                .collect();
            let section = if trace == "1" {
                "per_layer"
            } else {
                "end_to_end"
            };
            assert_eq!(printed, listed(section), "{what}");

            let env = stdout
                .lines()
                .find(|l| l.starts_with("{\"env\""))
                .expect("an environment record");
            let env = parse(env).expect("environment record parses");
            assert_eq!(get(get(&env, "env"), "workers").as_u64(), Some(1), "{what}");
        }
    }
    let mut after = BTreeMap::new();
    snapshot(&root.join("results"), &mut after);
    assert_eq!(before, after, "the benchmark wrote under results/");
}

#[test]
fn a_corrupted_golden_digest_fails_the_run() {
    for workload in Workload::ALL {
        let pinned = golden(workload, Scale::Quick, 1).expect("quick seed-1 digest is pinned");
        let opts = RunOpts {
            workload,
            seed: 1,
            seconds: 0.001,
            trace: false,
            scale: Scale::Quick,
            golden: Some(pinned ^ 1),
        };
        let out = run(&opts);
        assert!(!out.correct(), "{}", workload.name());
        assert_eq!(out.failed, out.attempted, "{}", workload.name());
        assert!(out.result_json().starts_with("{\"correct\":false"));
    }
}

#[test]
fn full_scale_goldens_are_the_committed_figure_csvs() {
    for (workload, csv) in [
        (Workload::Fig9Sweep, "results/csv/fig9.csv"),
        (Workload::Fig1Lru, "results/csv/fig1.csv"),
    ] {
        let committed = std::fs::read_to_string(repo_root().join(csv)).expect("committed CSV");
        assert_eq!(
            golden(workload, Scale::Full, 1),
            Some(fnv1a(&committed)),
            "{csv}"
        );
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "fig1_lru", "--trace", "2"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_astriflash-perfbench"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
