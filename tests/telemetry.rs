//! Telemetry integration: the run manifest must capture the pipeline's
//! stages and metrics, and the deterministic part of the instrumentation
//! must be identical across identical-seed runs.
//!
//! Everything lives in one `#[test]`: the metrics registry is process
//! global, and snapshot-diff attribution is only exact while no other
//! run records concurrently. Integration tests are separate binaries,
//! so this file owns its process.

use wmtree::telemetry::MetricValue;
use wmtree::{Experiment, ExperimentConfig, ExperimentResults, Report, Scale};

#[test]
fn manifest_covers_the_pipeline_and_counters_are_deterministic() {
    let config = || ExperimentConfig::at_scale(Scale::Tiny).with_seed(0x7e1e);
    let first = Experiment::new(config()).run();
    let second = Experiment::new(config()).run();

    // --- Stage spans: every pipeline stage is timed, in order. ---
    let stages: Vec<&str> = first
        .manifest
        .stages
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        stages,
        ["generate", "crawl", "build_trees", "analyze", "fold_sites"]
    );
    // The repro binary appends `render`; here Report::generate feeds the
    // span store instead, which the manifest also records.
    let _ = Report::generate(&first);
    let timings = wmtree::telemetry::global().timings().snapshot();
    for span in [
        "experiment.generate",
        "crawl.site",
        "report.table2",
        "report.fig1",
    ] {
        assert!(timings.contains_key(span), "missing span {span}");
    }

    // --- Metric coverage: every instrumented layer reported in. ---
    let metric_names: Vec<&str> = first
        .manifest
        .metrics
        .metrics
        .keys()
        .map(String::as_str)
        .collect();
    for prefix in ["net.fetch.", "browser.visit.", "crawler.", "analysis."] {
        assert!(
            metric_names.iter().any(|n| n.starts_with(prefix)),
            "no metric from {prefix}* in {metric_names:?}"
        );
    }

    // --- Progress: the crawl accounting is populated and consistent. ---
    let progress = first
        .manifest
        .progress
        .as_ref()
        .expect("crawl progress recorded");
    assert_eq!(progress.sites_total, progress.sites_done);
    assert!(progress.visits_ok > 0);
    assert_eq!(
        counter(&first, "browser.visit.started"),
        progress.visits_ok + progress.visits_failed
    );

    // --- Determinism: identical seeds → identical metric snapshots
    // (counters, gauges, histograms — wall-clock timings excluded by
    // construction, they live outside the metrics registry). ---
    assert_eq!(
        first.manifest.metrics, second.manifest.metrics,
        "metric snapshots of identical-seed runs must be identical"
    );

    // --- Visit outcomes: the engine's own counters agree with the
    // crawl's accounting. The default Tiny run (the one `repro --scale
    // tiny` makes) has main-document fetch failures among its failed
    // visits; the seeded run above has none. ---
    let default_run = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
    for results in [&first, &default_run] {
        let progress = results.manifest.progress.as_ref().expect("progress");
        assert_eq!(counter(results, "browser.visit.ok"), progress.visits_ok);
        assert_eq!(
            counter(results, "browser.visit.failed"),
            progress.visits_failed
        );
    }

    // --- The manifest serializes and summarizes. ---
    let json = first.manifest.to_json();
    assert!(json.contains("\"schema_version\""));
    assert!(json.contains("net.fetch.arrived"));
    let summary = Report::render_telemetry(&first.manifest);
    assert!(summary.contains("== Telemetry"));
    assert!(summary.contains("crawl"));
}

/// The value of counter `name` in a run's metric snapshot.
fn counter(results: &ExperimentResults, name: &str) -> u64 {
    match results.manifest.metrics.metrics.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        other => panic!("{name} missing: {other:?}"),
    }
}
