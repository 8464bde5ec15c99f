//! The experiment runner: universe → crawl → vetting → trees → node
//! similarities.

use crate::config::ExperimentConfig;
use crate::incremental::{accumulate_cached, AnalysisCache, CachedAccumulation, IncrementalReplay};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use wmtree_analysis::node_similarity::PageNodeSimilarities;
use wmtree_analysis::{ExperimentData, MergedAnalysis, PartialMergeError};
use wmtree_bundle::{BundleError, Manifest};
use wmtree_crawler::{Commander, CrawlDb, CrawlOptions, ProfileStats, ResumableOutcome};
use wmtree_filterlist::embedded::tracking_list;
use wmtree_filterlist::FilterList;
use wmtree_telemetry::{
    ManifestProfile, MetricValue, ProgressTracker, RunManifest, Snapshot, Stopwatch,
};
use wmtree_webgen::WebUniverse;

/// Everything a run produces, ready for [`crate::Report::generate`].
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    /// Vetted pages with trees and cookies.
    pub data: ExperimentData,
    /// Per-node similarity records (horizontal + vertical analyses).
    pub sims: Vec<PageNodeSimilarities>,
    /// Per-profile crawl success accounting.
    pub profile_stats: Vec<ProfileStats>,
    /// Total pages discovered (before vetting).
    pub pages_discovered: usize,
    /// Total successful page visits across profiles.
    pub successful_visits: usize,
    /// Sites surviving vetting.
    pub vetted_sites: usize,
    /// Observability record of the run: stage wall times, crawl
    /// progress, and the metrics recorded between run start and end
    /// (snapshot diff, so concurrent history does not leak in).
    pub manifest: RunManifest,
}

/// A configured experiment.
#[derive(Debug)]
pub struct Experiment {
    config: ExperimentConfig,
    universe: WebUniverse,
    /// Wall time of universe generation (the `generate` stage happens
    /// in [`Experiment::new`], before `run`).
    gen_wall: Duration,
}

impl Experiment {
    /// Generate the universe for a configuration.
    pub fn new(config: ExperimentConfig) -> Experiment {
        let _span = wmtree_telemetry::span("experiment.generate");
        let mut sw = Stopwatch::start();
        let universe = WebUniverse::generate(config.universe);
        let gen_wall = sw.lap("generate");
        Experiment {
            config,
            universe,
            gen_wall,
        }
    }

    /// The generated universe.
    pub fn universe(&self) -> &WebUniverse {
        &self.universe
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Run the crawl and all per-node analyses, assembling the run
    /// manifest (stage wall times, crawl progress, metric diff) along
    /// the way.
    pub fn run(&self) -> ExperimentResults {
        let _run_span = wmtree_telemetry::span("experiment.run");
        let metrics_before = wmtree_telemetry::global().snapshot();
        let mut sw = Stopwatch::start();
        let mut manifest = self.base_manifest();

        let progress =
            ProgressTracker::new(self.universe.sites().len(), self.config.workers.max(1));
        let db = self.commander().run_with_progress(&progress);
        manifest.push_stage("crawl", sw.lap("crawl"));

        self.analyze(db, None, manifest, Some(&progress), &metrics_before)
            .expect("an uncached fold of one crawl database cannot fail") // wmtree-lint: allow(WM0105)
            .results
    }

    /// [`run`](Experiment::run), but crawling *resumably* into the
    /// bundle at `dir` — created if absent, resumed (skipping
    /// checkpointed sites) if present. `max_sites` caps how many sites
    /// this invocation crawls; when the cap stops the crawl early the
    /// analyses are skipped and [`BundleRun::Partial`] reports how far
    /// the archive got. A crawl interrupted this way and resumed leaves
    /// a bundle byte-identical to an uninterrupted run.
    pub fn run_to_bundle(
        &self,
        dir: &Path,
        max_sites: Option<usize>,
    ) -> Result<BundleRun, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.run_to_bundle");
        let metrics_before = wmtree_telemetry::global().snapshot();
        let mut sw = Stopwatch::start();
        let mut manifest = self.base_manifest();

        let progress =
            ProgressTracker::new(self.universe.sites().len(), self.config.workers.max(1));
        let outcome = self
            .commander()
            .run_resumable_with_progress(dir, max_sites, &progress)?;
        manifest.push_stage("crawl", sw.lap("crawl"));

        match outcome {
            ResumableOutcome::Complete {
                db,
                manifest: bundle,
            } => Ok(BundleRun::Complete {
                results: Box::new(
                    self.analyze(db, None, manifest, Some(&progress), &metrics_before)?
                        .results,
                ),
                bundle,
            }),
            ResumableOutcome::Partial {
                sites_done,
                sites_total,
                manifest: bundle,
            } => Ok(BundleRun::Partial {
                sites_done,
                sites_total,
                bundle,
            }),
        }
    }

    /// Crawl only the contiguous site window `[lo, hi)` — one shard of
    /// a sharded run — resumably into the bundle at `dir`. Unlike
    /// [`run_to_bundle`](Experiment::run_to_bundle), no analyses run
    /// here: sharded runs analyze by streaming merge (`wmtree-shard`)
    /// once every shard bundle is complete, so peak memory stays one
    /// shard. `max_sites` caps how many sites this invocation crawls
    /// (interrupt + resume works exactly as for whole-universe
    /// bundles).
    pub fn crawl_window_to_bundle(
        &self,
        lo: usize,
        hi: usize,
        dir: &Path,
        max_sites: Option<usize>,
    ) -> Result<ResumableOutcome, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.crawl_window");
        let commander = self.commander().with_site_range(lo, hi);
        let progress = ProgressTracker::new(hi - lo, self.config.workers.max(1));
        commander.run_resumable_with_progress(dir, max_sites, &progress)
    }

    /// Skip crawling entirely: rebuild the database from a (complete)
    /// bundle recorded under the *same* configuration and run the
    /// analyses on it. The results — and any report/CSV rendered from
    /// them — are identical to a crawl-then-analyze run.
    pub fn replay_from_bundle(&self, dir: &Path) -> Result<ExperimentResults, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.replay");
        Ok(self.replay(dir, None)?.results)
    }

    /// [`replay_from_bundle`](Experiment::replay_from_bundle) through
    /// an [`AnalysisCache`]. Unchanged sites fold their cached partial
    /// accumulators without rebuilding a single tree, changed sites
    /// rebuild with their trees memoized per visit. The results are
    /// byte-identical to the uncached replay; the [`IncrementalReplay`]
    /// wrapper additionally reports how much work the cache absorbed.
    pub fn replay_from_bundle_cached(
        &self,
        dir: &Path,
        cache: &AnalysisCache,
    ) -> Result<IncrementalReplay, BundleError> {
        let _run_span = wmtree_telemetry::span("experiment.replay_cached");
        self.replay(dir, Some(cache))
    }

    /// Both replays: [`open_bundle`](Experiment::open_bundle) as the
    /// `read_bundle` stage, then [`analyze`](Experiment::analyze).
    fn replay(
        &self,
        dir: &Path,
        cache: Option<&AnalysisCache>,
    ) -> Result<IncrementalReplay, BundleError> {
        let metrics_before = wmtree_telemetry::global().snapshot();
        let mut sw = Stopwatch::start();
        let mut manifest = self.base_manifest();

        let db = self.open_bundle(dir)?;
        manifest.push_stage("read_bundle", sw.lap("read_bundle"));
        self.analyze(db, cache, manifest, None, &metrics_before)
    }

    /// The one analysis pipeline behind every run and replay, after
    /// its input stage (`crawl` or `read_bundle`):
    /// [`accumulate`](Experiment::accumulate) `db` through `cache`,
    /// finish the per-site accumulators into canonical order, and
    /// assemble the results with the `build_trees`, `analyze` and
    /// `fold_sites` stages. `progress` is absent when no crawl happened
    /// (bundle replay).
    fn analyze(
        &self,
        db: CrawlDb,
        cache: Option<&AnalysisCache>,
        mut manifest: RunManifest,
        progress: Option<&ProgressTracker>,
        metrics_before: &Snapshot,
    ) -> Result<IncrementalReplay, BundleError> {
        let acc = self.accumulate(&db, cache)?;
        drop(db);

        let mut finish = Stopwatch::start();
        let merged = acc.acc.finish(self.config.workers).map_err(cache_fault)?;
        let fold_wall = acc.fold_wall + finish.lap("finish_fold");
        manifest.push_stage("build_trees", acc.build_wall);
        manifest.push_stage("analyze", acc.analyze_wall);
        manifest.push_stage("fold_sites", fold_wall);

        let mut results = ExperimentResults::from_merged(merged, manifest, metrics_before);
        if let Some(progress) = progress {
            let mut progress_snap = progress.snapshot();
            // Stalls are sampled deep inside the network model where the
            // tracker is out of reach; recover the count from the metric
            // diff so the progress record is complete.
            if let Some(MetricValue::Counter(n)) =
                results.manifest.metrics.metrics.get("net.fetch.stalled")
            {
                progress_snap.stalls = *n;
            }
            results.manifest.progress = Some(progress_snap);
        }
        Ok(IncrementalReplay {
            results,
            sites_total: acc.sites_total,
            sites_rebuilt: acc.sites_rebuilt,
            sites_reused: acc.sites_reused,
        })
    }

    /// Load the complete crawl database of the bundle at `dir`, after
    /// checking that it was recorded under this configuration.
    pub fn open_bundle(&self, dir: &Path) -> Result<CrawlDb, BundleError> {
        let bundle = Manifest::load(dir)?;
        bundle.check_meta(&self.commander().bundle_meta())?;
        wmtree_crawler::read_bundle(dir)
    }

    /// Fold one database into mergeable per-site accumulators through
    /// `cache` ([`accumulate_cached`]), then commit the cache (a failed
    /// commit only costs the next run time, and is counted in
    /// `tree.cache.disk.error`). A database read from one bundle cannot
    /// hold duplicate pages or a foreign roster, so a merge failure
    /// means the cache fed back inconsistent state: it is discarded and
    /// the database is rebuilt cold. Without a cache nothing can fail.
    pub fn accumulate(
        &self,
        db: &CrawlDb,
        cache: Option<&AnalysisCache>,
    ) -> Result<CachedAccumulation, BundleError> {
        let inputs = self.pipeline_inputs();
        let attempt = || {
            accumulate_cached(
                db,
                &inputs.names,
                inputs.filter,
                &self.config.tree,
                &inputs.site_meta,
                self.config.workers,
                cache,
            )
        };
        let Some(cache) = cache else {
            return attempt().map_err(cache_fault);
        };
        let acc = match attempt() {
            Ok(acc) => acc,
            Err(_) => {
                cache.discard();
                attempt().map_err(cache_fault)?
            }
        };
        if cache.commit().is_err() {
            wmtree_telemetry::counter!("tree.cache.disk.error").inc();
        }
        Ok(acc)
    }

    /// The commander this configuration describes.
    pub(crate) fn commander(&self) -> Commander<'_> {
        Commander::new(
            &self.universe,
            self.config.profiles.clone(),
            CrawlOptions {
                max_pages_per_site: self.config.max_pages_per_site,
                workers: self.config.workers,
                experiment_seed: self.config.experiment_seed,
                reliable: self.config.reliable,
                stateful: false,
            },
        )
    }

    /// A run manifest primed with the experiment identity, profile
    /// roster, and the `generate` stage — the one layout every mode
    /// reports.
    pub fn base_manifest(&self) -> RunManifest {
        let mut manifest = RunManifest::new(
            self.config.experiment_seed,
            format!(
                "{} sites × ≤{} pages × {} profiles",
                self.universe.sites().len(),
                self.config.max_pages_per_site,
                self.config.profiles.len(),
            ),
        );
        manifest.profiles = self
            .config
            .profiles
            .iter()
            .map(|p| ManifestProfile {
                name: p.name.clone(),
                version: p.version,
                user_interaction: p.user_interaction,
                gui: p.gui,
                country: p.country.clone(),
            })
            .collect();
        manifest.push_stage("generate", self.gen_wall);
        manifest
    }

    /// What tree building and the analyses take from the
    /// configuration, built in this one place for every mode.
    pub(crate) fn pipeline_inputs(&self) -> PipelineInputs {
        PipelineInputs {
            names: self
                .config
                .profiles
                .iter()
                .map(|p| p.name.clone())
                .collect(),
            filter: self.config.use_filter_list.then(tracking_list),
            site_meta: self
                .universe
                .sites()
                .iter()
                .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
                .collect(),
        }
    }
}

impl ExperimentResults {
    /// Results from a finished fold of per-site accumulators — the end
    /// of every run, replay and shard merge. `manifest` gains the
    /// metrics recorded since `metrics_before` and the span timings.
    pub fn from_merged(
        merged: MergedAnalysis,
        mut manifest: RunManifest,
        metrics_before: &Snapshot,
    ) -> ExperimentResults {
        manifest.metrics = wmtree_telemetry::global().snapshot().since(metrics_before);
        manifest.timings = wmtree_telemetry::global().timings().snapshot();
        ExperimentResults {
            data: merged.data,
            sims: merged.sims,
            profile_stats: merged.profile_stats,
            pages_discovered: merged.digest.pages_discovered,
            successful_visits: merged.digest.successful_visits,
            vetted_sites: merged.digest.vetted_sites,
            manifest,
        }
    }
}

/// See [`Experiment::pipeline_inputs`].
pub(crate) struct PipelineInputs {
    /// Profile names, in Table 1 order.
    pub(crate) names: Vec<String>,
    /// The tracking filter list, when the configuration uses one.
    pub(crate) filter: Option<&'static FilterList>,
    /// Each site's `(rank, bucket label)`, for the popularity analysis.
    pub(crate) site_meta: BTreeMap<String, (u32, String)>,
}

/// A fold failure the cache caused, located at the cache directory.
fn cache_fault(e: PartialMergeError) -> BundleError {
    BundleError::ManifestMismatch {
        segment: wmtree_tree::cache::CACHE_DIR_NAME.to_string(),
        detail: e.to_string(),
    }
}

/// Outcome of [`Experiment::run_to_bundle`].
#[derive(Debug)]
pub enum BundleRun {
    /// The crawl covered every site: full results plus the completed
    /// bundle's manifest (for dedup/size accounting).
    Complete {
        /// The analysis results, as from [`Experiment::run`].
        results: Box<ExperimentResults>,
        /// The bundle's final manifest.
        bundle: Manifest,
    },
    /// The site cap stopped the crawl early; analyses were skipped.
    Partial {
        /// Sites checkpointed so far (including previously recovered).
        sites_done: usize,
        /// Sites in the universe.
        sites_total: usize,
        /// The bundle's manifest as of the last checkpoint.
        bundle: Manifest,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn tiny_experiment_end_to_end() {
        let results = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny)).run();
        assert_eq!(results.data.n_profiles(), 5);
        assert!(results.pages_discovered > 20);
        // Unreliable crawl: vetting drops some pages, none catastrophic.
        assert!(results.data.pages.len() > 5);
        assert!(results.data.pages.len() <= results.pages_discovered);
        assert_eq!(results.sims.len(), results.data.pages.len());
        for stats in &results.profile_stats {
            assert!(stats.success_rate() > 0.75, "{}", stats.success_rate());
        }
        assert!(results.vetted_sites > 0);
    }

    #[test]
    fn replay_from_bundle_matches_crawl_then_analyze() {
        let dir = std::env::temp_dir().join("wmtree-core-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let exp = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny));
        let crawled = match exp.run_to_bundle(&dir, None).unwrap() {
            super::BundleRun::Complete { results, bundle } => {
                assert!(bundle.complete);
                *results
            }
            super::BundleRun::Partial { .. } => panic!("uncapped run must complete"),
        };
        let replayed = exp.replay_from_bundle(&dir).unwrap();
        assert_eq!(crawled.data.pages.len(), replayed.data.pages.len());
        assert_eq!(crawled.sims, replayed.sims);
        // Rendered reports (and their CSVs) must match byte for byte.
        let a = crate::Report::generate(&crawled);
        let b = crate::Report::generate(&replayed);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn cached_replay_matches_plain_replay_and_goes_warm() {
        let dir = std::env::temp_dir().join("wmtree-core-cached-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let exp = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny));
        match exp.run_to_bundle(&dir, None).unwrap() {
            super::BundleRun::Complete { .. } => {}
            super::BundleRun::Partial { .. } => panic!("uncapped run must complete"),
        }
        let plain = exp.replay_from_bundle(&dir).unwrap();
        let plain_report = crate::Report::generate(&plain);

        let cache = crate::AnalysisCache::in_memory(exp.config());
        let cold = exp.replay_from_bundle_cached(&dir, &cache).unwrap();
        assert_eq!(cold.sites_reused, 0, "empty cache reuses nothing");
        assert_eq!(cold.sites_rebuilt, cold.sites_total);
        let cold_report = crate::Report::generate(&cold.results);
        assert_eq!(
            cold_report.render(),
            plain_report.render(),
            "cold cached replay must match the uncached replay byte for byte"
        );
        assert_eq!(cold_report.to_json(), plain_report.to_json());

        let warm = exp.replay_from_bundle_cached(&dir, &cache).unwrap();
        assert_eq!(
            warm.sites_reused, warm.sites_total,
            "unchanged bundle must fold every site from cache"
        );
        assert_eq!(warm.sites_rebuilt, 0);
        let warm_report = crate::Report::generate(&warm.results);
        assert_eq!(warm_report.render(), plain_report.render());
        assert_eq!(warm_report.to_json(), plain_report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_bundle_run_reports_partial_then_resumes() {
        let dir = std::env::temp_dir().join("wmtree-core-partial");
        let _ = std::fs::remove_dir_all(&dir);
        let exp = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny));
        let first = exp.run_to_bundle(&dir, Some(2)).unwrap();
        let (done, total) = match first {
            super::BundleRun::Partial {
                sites_done,
                sites_total,
                ref bundle,
            } => {
                assert!(!bundle.complete);
                (sites_done, sites_total)
            }
            super::BundleRun::Complete { .. } => panic!("cap of 2 must interrupt"),
        };
        assert!(done < total);
        // Resume without a cap: now it completes.
        match exp.run_to_bundle(&dir, None).unwrap() {
            super::BundleRun::Complete { bundle, .. } => assert!(bundle.complete),
            super::BundleRun::Partial { .. } => panic!("uncapped resume must complete"),
        }
    }

    #[test]
    fn replay_from_missing_or_non_bundle_path_is_located() {
        // The `repro --from-bundle` error paths: both mistakes must
        // surface as one clear, located message, not an io error chain.
        let exp = Experiment::new(crate::ExperimentConfig::at_scale(Scale::Tiny));

        let missing = std::env::temp_dir().join("wmtree-core-no-such-bundle");
        let _ = std::fs::remove_dir_all(&missing);
        let err = exp.replay_from_bundle(&missing).expect_err("missing dir");
        assert!(matches!(err, BundleError::NotFound { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("no bundle manifest found") && msg.contains("wmtree-core-no-such-bundle"),
            "locates the missing bundle: {msg}"
        );

        let file = std::env::temp_dir().join("wmtree-core-bundle-as-file.json");
        std::fs::write(&file, "{}").unwrap();
        let err = exp.replay_from_bundle(&file).expect_err("file path");
        assert!(matches!(err, BundleError::NotADirectory { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("not a directory") && msg.contains("wmtree-core-bundle-as-file.json"),
            "locates the non-bundle path: {msg}"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = crate::ExperimentConfig::at_scale(Scale::Tiny);
        let a = Experiment::new(cfg.clone()).run();
        let b = Experiment::new(cfg).run();
        assert_eq!(a.data.pages.len(), b.data.pages.len());
        assert_eq!(a.successful_visits, b.successful_visits);
        for (pa, pb) in a.data.pages.iter().zip(&b.data.pages) {
            assert_eq!(pa.url, pb.url);
            assert_eq!(pa.trees, pb.trees);
        }
    }
}
