//! What every workload shares: options, the pipeline pieces the traced
//! runs call layer by layer, and telemetry reads.

use crate::gate::{Gate, Rendered};
use crate::metrics::Values;
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wmtree::analysis::node_similarity::PageNodeSimilarities;
use wmtree::analysis::ExperimentData;
use wmtree::crawler::{Commander, CrawlDb, CrawlOptions, ProfileStats};
use wmtree::filterlist::embedded::tracking_list;
use wmtree::filterlist::FilterList;
use wmtree::telemetry::{MetricValue, RunManifest, Snapshot, TimingStats};
use wmtree::{Experiment, ExperimentConfig, ExperimentResults, Report, Scale};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Crawl → report in memory.
    Fresh,
    /// Record, cold and warm replay, shard merge.
    Archive,
    /// The measurement service under open-loop load.
    Serve,
}

impl Workload {
    /// Every workload name.
    pub const NAMES: [&'static str; 3] = ["fresh", "archive", "serve"];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fresh" => Some(Workload::Fresh),
            "archive" => Some(Workload::Archive),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        Workload::NAMES[self as usize]
    }
}

/// Checked command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Scale of the fresh and archive experiments (serve jobs are Tiny).
    pub scale: Scale,
    /// Scratch directory for bundles, shards and the job store.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

impl Options {
    /// The experiment configuration the seed generates: the scale's
    /// standard universe, with the seed as the experiment seed (visit
    /// randomness: failures, interaction, timing). Seeding the universe
    /// instead changes the amount of work by 10–15 % at Small, which
    /// would swamp the run-to-run spread.
    pub fn config(&self) -> ExperimentConfig {
        let mut config = ExperimentConfig::at_scale(self.scale);
        config.experiment_seed = crate::stats::derived_seed(self.seed, 0);
        config
    }

    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Everything one run accumulates.
pub struct Run<'a> {
    /// Options.
    pub opts: &'a Options,
    /// Span recorder.
    pub tracer: Tracer,
    /// The workload span.
    pub root: SpanId,
    /// Correctness gate.
    pub gate: Gate,
    /// Metric values.
    pub values: Values,
    /// Set-up wall times, seconds.
    pub setups: Vec<f64>,
    /// Operation latencies, milliseconds.
    pub ops_ms: Vec<f64>,
    /// Crawl failure counts that must repeat exactly for the seed.
    failures: Option<(usize, usize)>,
}

impl<'a> Run<'a> {
    /// A run for `opts`.
    pub fn new(opts: &'a Options) -> Run<'a> {
        let tracer = Tracer::new(opts.trace);
        let root = tracer.open(opts.workload.name(), None);
        Run {
            opts,
            tracer,
            root,
            gate: Gate::default(),
            values: Values::default(),
            setups: Vec::new(),
            ops_ms: Vec::new(),
            failures: None,
        }
    }

    /// Record a crawl's accounting: visits and simulated failures are
    /// workload content and must be identical in every repetition.
    pub fn crawl_accounting(&mut self, step: &str, stats: &[ProfileStats], pages: usize) {
        let visits: usize = stats.iter().map(|s| s.attempted).sum();
        let failed: usize = stats.iter().map(|s| s.attempted - s.succeeded).sum();
        self.values.set("crawler.visits", visits as f64);
        self.values.set("crawler.visits_failed", failed as f64);
        self.values.set("crawler.pages", pages as f64);
        match self.failures {
            None => self.failures = Some((visits, failed)),
            Some(seen) if seen == (visits, failed) => {}
            Some(seen) => self.gate.fail(format!(
                "{step}: crawl accounting {visits} visits / {failed} failed differs from {} / {}",
                seen.0, seen.1
            )),
        }
    }
}

/// Time `f`, returning its result and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The commander `Experiment` builds for its configuration.
pub fn commander(exp: &Experiment) -> Commander<'_> {
    let cfg = exp.config();
    Commander::new(
        exp.universe(),
        cfg.profiles.clone(),
        CrawlOptions {
            max_pages_per_site: cfg.max_pages_per_site,
            workers: cfg.workers,
            experiment_seed: cfg.experiment_seed,
            reliable: cfg.reliable,
            stateful: false,
        },
    )
}

/// Rank and bucket of every site, as the pipeline keys them.
pub fn site_meta(exp: &Experiment) -> BTreeMap<String, (u32, String)> {
    exp.universe()
        .sites()
        .iter()
        .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
        .collect()
}

/// Profile names in slot order.
pub fn profile_names(cfg: &ExperimentConfig) -> Vec<String> {
    cfg.profiles.iter().map(|p| p.name.clone()).collect()
}

/// The tracking filter list, when the configuration uses it.
pub fn filter(cfg: &ExperimentConfig) -> Option<&'static FilterList> {
    cfg.use_filter_list.then(tracking_list)
}

/// Assemble results from a crawl database and its analyses, as the
/// monolithic pipeline does.
pub fn results_from_db(
    db: &CrawlDb,
    data: ExperimentData,
    sims: Vec<PageNodeSimilarities>,
    seed: u64,
) -> ExperimentResults {
    ExperimentResults {
        profile_stats: db.profile_stats(),
        pages_discovered: db.page_count(),
        successful_visits: db.total_successful_visits(),
        vetted_sites: db.vetted_sites().len(),
        sims,
        data,
        manifest: RunManifest::new(seed, "perfbench"),
    }
}

/// Report generation and rendering of a step, each a traced layer call.
pub fn report(tracer: &Tracer, step: SpanId, results: &ExperimentResults) -> Rendered {
    let report = tracer.call(step, "report.generate", |_| Report::generate(results));
    tracer.call(step, "report.render", |_| Rendered::of(&report))
}

/// A snapshot of the program's telemetry: metrics and span timings.
pub struct Telemetry {
    metrics: Snapshot,
    timings: BTreeMap<String, TimingStats>,
}

impl Telemetry {
    /// Take a snapshot now.
    pub fn now() -> Telemetry {
        let t = wmtree::telemetry::global();
        Telemetry {
            metrics: t.snapshot(),
            timings: t.timings().snapshot(),
        }
    }

    /// Time spent in spans named `name` since `earlier`.
    pub fn span_since(&self, earlier: &Telemetry, name: &str) -> Duration {
        let total = |t: &Telemetry| t.timings.get(name).map_or(0.0, |s| s.total_ms);
        Duration::from_secs_f64(((total(self) - total(earlier)) / 1e3).max(0.0))
    }

    /// Counter increments of `name` since `earlier`.
    pub fn counter_since(&self, earlier: &Telemetry, name: &str) -> u64 {
        let get = |t: &Telemetry| match t.metrics.metrics.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        };
        get(self).saturating_sub(get(earlier))
    }
}
