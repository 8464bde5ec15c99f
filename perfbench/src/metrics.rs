//! The benchmark's metric catalogue and result line.
//!
//! Every workload reports every end-to-end metric (untraced run) and
//! every per-layer metric (traced run). A per-layer metric whose layer
//! a workload never calls reads 0: that is the prediction for that
//! workload, not a missing value.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the workload waits on.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// What it measures on each workload.
    pub what: &'static str,
}

/// End-to-end metrics, all lower-is-better.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        what: "workload start to first timed operation (median of the run's set-ups)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        what: "peak resident memory of the workload process",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        what: "median operation latency: fresh crawl->report; archive round record+cold+warm+merge; serve request from its due time",
    },
    EndToEnd {
        name: "op_p99_ms",
        unit: "ms",
        what: "p99 operation latency, nearest rank (the slowest operation when a run has fewer than 100)",
    },
];

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; nominal for work-size counts and
    /// settings, which are context rather than something to optimise.
    pub better: &'static str,
    /// Which end-to-end metric on which workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Per-layer metrics (traced run). Time metrics are per operation:
/// the median traced fresh run, the traced archive round, or the serve
/// window.
pub const PER_LAYER: [PerLayer; 60] = [
    // Untraced step walls of the traced run, under the step names.
    layer("step.fresh_s", "s", "lower", "op_p50_ms on fresh"),
    layer("step.record_s", "s", "lower", "op_p50_ms on archive"),
    layer("step.replay_cold_s", "s", "lower", "op_p50_ms on archive"),
    layer("step.replay_warm_s", "s", "lower", "op_p50_ms on archive"),
    layer("step.merge_s", "s", "lower", "op_p50_ms on archive"),
    layer(
        "step.serve_job_s",
        "s",
        "lower",
        "op_p99_ms on serve (the job's crawl competes with replays)",
    ),
    layer(
        "archive.bundle_mb",
        "MB",
        "lower",
        "op_p50_ms on archive (record, replays, merge); op_p99_ms on serve",
    ),
    layer(
        "archive.cache_mb",
        "MB",
        "lower",
        "op_p50_ms on archive (warm replay); peak_rss_mb on archive",
    ),
    // webgen
    layer(
        "webgen.generate_ms",
        "ms",
        "lower",
        "setup_s on every workload",
    ),
    // crawler (drives browser and net)
    layer(
        "crawler.crawl_ms",
        "ms",
        "lower",
        "op_p50_ms on fresh; op_p50_ms on archive via record, not via replays",
    ),
    layer(
        "crawler.visits",
        "count",
        "lower",
        "op_p50_ms on fresh and archive (work size)",
    ),
    layer(
        "crawler.visits_failed",
        "count",
        "lower",
        "none: simulated failures are workload content and repeat per seed",
    ),
    layer(
        "crawler.pages",
        "count",
        "lower",
        "op_p50_ms on fresh and archive (work size)",
    ),
    layer(
        "crawler.visits_per_s",
        "1/s",
        "higher",
        "op_p50_ms on fresh; record within op_p50_ms on archive",
    ),
    // bundle
    layer(
        "bundle.write_ms",
        "ms",
        "lower",
        "op_p50_ms on archive (record); op_p99_ms on serve; nothing on fresh",
    ),
    layer(
        "bundle.bytes_written",
        "bytes",
        "lower",
        "archive.bundle_mb and op_p50_ms on archive; nothing on fresh",
    ),
    layer(
        "bundle.objects",
        "count",
        "lower",
        "archive.bundle_mb on archive; nothing on fresh",
    ),
    layer(
        "bundle.dedup_ratio",
        "ratio",
        "higher",
        "archive.bundle_mb on archive; nothing on fresh",
    ),
    layer(
        "bundle.read_ms",
        "ms",
        "lower",
        "op_p50_ms on archive (replays, merge); op_p99_ms on serve; nothing on fresh",
    ),
    layer(
        "bundle.bytes_read",
        "bytes",
        "lower",
        "op_p50_ms on archive; op_p99_ms on serve; nothing on fresh",
    ),
    layer(
        "bundle.read_mb_per_s",
        "MB/s",
        "higher",
        "op_p50_ms on archive; op_p99_ms on serve",
    ),
    // tree
    layer(
        "tree.build_ms",
        "ms",
        "lower",
        "op_p50_ms on fresh; cold vs warm replay within op_p50_ms on archive",
    ),
    layer(
        "tree.count",
        "count",
        "lower",
        "op_p50_ms on fresh and archive (work size)",
    ),
    layer(
        "tree.cache.hit",
        "count",
        "higher",
        "warm replay within op_p50_ms on archive; op_p99_ms on serve",
    ),
    layer(
        "tree.cache.miss",
        "count",
        "lower",
        "cold replay within op_p50_ms on archive",
    ),
    // core.incremental
    layer(
        "core.cache_open_ms",
        "ms",
        "lower",
        "warm replay within op_p50_ms on archive; op_p99_ms on serve",
    ),
    layer(
        "core.accumulate_cold_ms",
        "ms",
        "lower",
        "cold replay within op_p50_ms on archive",
    ),
    layer(
        "core.accumulate_warm_ms",
        "ms",
        "lower",
        "warm replay within op_p50_ms on archive",
    ),
    layer(
        "core.cache_commit_ms",
        "ms",
        "lower",
        "cold replay within op_p50_ms on archive; archive.cache_mb",
    ),
    layer(
        "core.sites_reused",
        "count",
        "higher",
        "warm replay within op_p50_ms on archive",
    ),
    layer(
        "core.sites_total",
        "count",
        "lower",
        "op_p50_ms on archive (work size)",
    ),
    layer(
        "core.sites_reused_share",
        "share",
        "higher",
        "warm replay within op_p50_ms on archive",
    ),
    // analysis
    layer(
        "analysis.analyze_ms",
        "ms",
        "lower",
        "op_p50_ms on fresh; replays and merge within op_p50_ms on archive",
    ),
    layer(
        "analysis.fold_ms",
        "ms",
        "lower",
        "warm replay and merge within op_p50_ms on archive",
    ),
    layer(
        "analysis.pages",
        "count",
        "lower",
        "op_p50_ms on fresh and archive (work size)",
    ),
    // core.report
    layer(
        "report.generate_ms",
        "ms",
        "lower",
        "op_p50_ms on fresh and archive; op_p50_ms on serve (misses)",
    ),
    layer(
        "report.render_ms",
        "ms",
        "lower",
        "op_p50_ms on fresh and archive; op_p50_ms on serve",
    ),
    layer(
        "report.bytes",
        "bytes",
        "lower",
        "op_p50_ms on serve (response size)",
    ),
    // shard
    layer(
        "shard.merge_ms",
        "ms",
        "lower",
        "op_p50_ms on archive (merge step)",
    ),
    layer(
        "shard.peak_pages",
        "count",
        "lower",
        "peak_rss_mb on archive",
    ),
    // server (client-side latency per route; cache counts from /metrics)
    layer("server.report_ms.p50", "ms", "lower", "op_p50_ms on serve"),
    layer("server.report_ms.p99", "ms", "lower", "op_p99_ms on serve"),
    layer("server.json_ms.p50", "ms", "lower", "op_p50_ms on serve"),
    layer("server.csv_ms.p50", "ms", "lower", "op_p50_ms on serve"),
    layer(
        "server.revalidate_ms.p50",
        "ms",
        "lower",
        "op_p50_ms on serve",
    ),
    layer(
        "server.revalidate_ms.p99",
        "ms",
        "lower",
        "op_p99_ms on serve (queueing behind misses)",
    ),
    layer(
        "server.replay_cache.hit",
        "count",
        "higher",
        "op_p50_ms on serve",
    ),
    layer(
        "server.replay_cache.miss",
        "count",
        "lower",
        "op_p99_ms on serve",
    ),
    layer(
        "server.replay_cache.hit_share",
        "share",
        "higher",
        "op_p50_ms and op_p99_ms on serve",
    ),
    layer(
        "server.response_bytes",
        "bytes",
        "lower",
        "op_p50_ms on serve",
    ),
    // load generator validity
    layer(
        "loadgen.sent",
        "count",
        "higher",
        "validity of op_p99_ms on serve (samples behind the p99)",
    ),
    layer(
        "loadgen.late_ms.p99",
        "ms",
        "lower",
        "validity of every serve number (generator or backlog lag)",
    ),
    layer(
        "loadgen.backlog_max",
        "count",
        "lower",
        "validity of every serve number (a growing backlog means saturation)",
    ),
    // trace validity
    layer(
        "trace.overhead_share",
        "share",
        "lower",
        "validity of the breakdown (traced vs untraced wall)",
    ),
    layer(
        "trace.unattributed_share",
        "share",
        "lower",
        "validity of the breakdown (largest residual share of a timed step)",
    ),
    // host and settings
    layer(
        "host.available_parallelism",
        "count",
        "higher",
        "every time metric (record with any claim)",
    ),
    layer(
        "host.workers",
        "count",
        "higher",
        "every time metric (pipeline fan-out actually used)",
    ),
    layer(
        "serve.rate_per_s",
        "1/s",
        "higher",
        "op_p50_ms and op_p99_ms on serve (fixed offered load)",
    ),
    layer(
        "serve.connections",
        "count",
        "higher",
        "op_p99_ms on serve (fixed connection pool)",
    ),
    layer(
        "workload.seed",
        "count",
        "lower",
        "none: identifies the generated inputs",
    ),
];

/// Metric values collected by a run.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name` (must be in the catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Current value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Benchmark operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values.
    pub values: Values,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

impl Outcome {
    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric (traced), each with its unit.
    pub fn json_line(&self, traced: bool) -> String {
        let rows: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(self.values.get(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut values = Values::default();
        values.set("op_p50_ms", 12.5);
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values,
        };
        let line = out.json_line(false);
        assert!(line.contains("\"op_p50_ms\": {\"value\": 12.5, \"unit\": \"ms\"}"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\"", m.name)));
        }
        let traced = out.json_line(true);
        for m in PER_LAYER {
            assert!(traced.contains(&format!("\"{}\": {{\"value\": ", m.name)));
        }
    }
}
