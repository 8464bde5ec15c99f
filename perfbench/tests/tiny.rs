//! The benchmark's own tests, at Tiny scale: every workload prints
//! every catalogued metric with its unit and passes its correctness
//! gate; the gate rejects a corrupted report; the catalogue matches
//! `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;
use wmtree::{Experiment, ExperimentConfig, Report, Scale};
use wmtree_perfbench::gate::{Gate, Rendered};
use wmtree_perfbench::metrics::{END_TO_END, PER_LAYER};

use serde_json::Value;

/// `v[key]`, or `Null` when absent.
fn at<'a>(v: &'a Value, key: &str) -> &'a Value {
    const NULL: &Value = &Value::Null;
    v.get(key).unwrap_or(NULL)
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run the benchmark binary at Tiny scale; return its parsed result.
fn run(workload: &str, trace: bool) -> Value {
    let tag = format!("{workload}-{}", u8::from(trace));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .args(["--scale", "tiny"])
        .arg("--work-dir")
        .arg(scratch(&format!("work-{tag}")))
        .arg("--trace-dir")
        .arg(scratch(&format!("trace-{tag}")))
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

fn check(workload: &str, trace: bool) -> Value {
    let result = run(workload, trace);
    assert_eq!(
        at(&result, "correct"),
        &Value::Bool(true),
        "{workload}: {result:?}"
    );
    assert_eq!(at(&result, "failed").as_int(), Some(0));
    assert!(at(&result, "attempted").as_int().unwrap_or(0) >= 1);
    let metrics = at(&result, "metrics");
    let expected: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let Value::Map(entries) = metrics else {
        panic!("{workload}: metrics is not an object")
    };
    assert_eq!(entries.len(), expected.len());
    for (name, unit) in expected {
        let m = at(metrics, name);
        assert_eq!(at(m, "unit").as_str(), Some(unit), "{workload}: {name}");
        let value = at(m, "value")
            .as_f64()
            .unwrap_or_else(|| panic!("{workload}: {name} has no value"));
        if !trace {
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
    result
}

#[test]
fn fresh_emits_every_metric() {
    check("fresh", false);
    let traced = check("fresh", true);
    let value = |name: &str| at(at(at(&traced, "metrics"), name), "value").as_f64();
    assert!(value("crawler.crawl_ms").unwrap_or(0.0) > 0.0);
    // The control workload never reaches the archive layers.
    assert_eq!(value("bundle.read_ms"), Some(0.0));
    assert_eq!(value("bundle.write_ms"), Some(0.0));
}

#[test]
fn archive_emits_every_metric() {
    check("archive", false);
    check("archive", true);
}

#[test]
fn serve_emits_every_metric() {
    check("serve", false);
    let traced = check("serve", true);
    let value = |name: &str| at(at(at(&traced, "metrics"), name), "value").as_f64();
    assert!(value("loadgen.sent").unwrap_or(0.0) >= 50.0);
    assert!(value("step.serve_job_s").unwrap_or(0.0) > 0.0);
}

#[test]
fn traced_archive_breaks_down_every_step() {
    let result = run("archive", true);
    let value = |name: &str| at(at(at(&result, "metrics"), name), "value").as_f64();
    for name in [
        "step.record_s",
        "step.replay_cold_s",
        "step.replay_warm_s",
        "step.merge_s",
        "bundle.read_ms",
    ] {
        assert!(value(name).unwrap_or(0.0) > 0.0, "{name}");
    }
    // The breakdown accounts for (nearly) all of every step.
    assert!(value("trace.unattributed_share").unwrap_or(1.0) < 0.2);
}

#[test]
fn gate_fails_on_a_corrupted_report() {
    let results = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
    let rendered = Rendered::of(&Report::generate(&results));
    let mut gate = Gate::default();
    gate.check("record", rendered.digest());
    gate.check("replay", rendered.digest());
    assert!(gate.correct());

    let mut corrupted = rendered.clone();
    corrupted.csvs[3].push('\n');
    gate.check("merge", corrupted.digest());
    assert!(!gate.correct());
    assert_eq!((gate.attempted, gate.failed), (3, 1));
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<[String; 3]> {
        let Value::Seq(items) = at(&bench, key) else {
            panic!("{key} is not a list")
        };
        let field = |m: &Value, f: &str| at(m, f).as_str().unwrap_or("").to_string();
        items
            .iter()
            .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
            .collect()
    };
    let row = |name: &str, unit: &str, better: &str| {
        [name.to_string(), unit.to_string(), better.to_string()]
    };
    let e2e: Vec<[String; 3]> = END_TO_END
        .iter()
        .map(|m| row(m.name, m.unit, "lower"))
        .collect();
    let layers: Vec<[String; 3]> = PER_LAYER
        .iter()
        .map(|m| row(m.name, m.unit, m.better))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    assert_eq!(listed("per_layer"), layers);
}
