//! Streaming merge analysis: fold one shard-bundle at a time into
//! mergeable partial accumulators, then finish into exactly the
//! results a monolithic single-process run produces.
//!
//! Each shard takes the cached replay's path —
//! [`Experiment::open_bundle`] then [`Experiment::accumulate`] through
//! the shard's own `TREECACHE` — so a re-merge over unchanged shards
//! folds cached per-site accumulators without rebuilding a tree, and a
//! cache that feeds back inconsistent state is discarded and the shard
//! rebuilt cold, as in a replay. The accumulators then merge across
//! shards and finish once; a duplicate page at that finish can only
//! mean overlapping shards ([`ShardError::Merge`]).
//!
//! The memory argument: the expensive residency of a run is the raw
//! crawl database (every visit of every page). The merge holds at most
//! **one shard's** database at a time — load shard k, fold it into
//! (much smaller) per-page analysis records, and drop the database
//! before touching shard k+1. The `shard.pages.in_memory` gauge tracks
//! the live database's page count and `shard.pages.in_memory.peak` its
//! maximum, so a run can *prove* its residency never exceeded one
//! shard.

use crate::error::ShardError;
use crate::plan::ShardPlan;
use std::path::Path;
use wmtree::tree::cache::CACHE_DIR_NAME;
use wmtree::{AnalysisCache, Experiment, ExperimentResults};
use wmtree_analysis::{MergeDigest, PartialAccumulators};
use wmtree_bundle::{bundle_content_hash, Manifest};
use wmtree_telemetry::Stopwatch;

/// A finished streaming merge.
#[derive(Debug)]
pub struct MergedRun {
    /// The merged results — byte-identical (report, CSVs, totals) to a
    /// monolithic run of the same experiment.
    pub results: ExperimentResults,
    /// The totals digest both pipelines must agree on.
    pub digest: MergeDigest,
    /// Maximum pages any one shard's database held in memory — the
    /// bounded-memory witness (equals the largest shard, not the
    /// corpus).
    pub peak_shard_pages: usize,
    /// Sites rebuilt (tree build + analysis) across all shards — on a
    /// warm re-merge over unchanged bundles this is 0.
    pub sites_rebuilt: usize,
    /// Sites folded from each shard's `TREECACHE` without rebuilding.
    pub sites_reused: usize,
}

/// Verify one shard's recorded bundle hash against the archive on
/// disk. Fails if the shard was never crawled to completion or the
/// archive changed since its hash was recorded.
fn check_hash(plan_dir: &Path, spec: &crate::plan::ShardSpec) -> Result<(), ShardError> {
    let dir = plan_dir.join(&spec.dir);
    let recorded = spec
        .bundle_hash
        .as_deref()
        .ok_or(ShardError::NotCrawled { id: spec.id })?;
    let actual = bundle_content_hash(&dir).map_err(|source| ShardError::Shard {
        id: spec.id,
        dir: dir.clone(),
        source,
    })?;
    if actual != recorded {
        return Err(ShardError::HashMismatch {
            id: spec.id,
            dir,
            recorded: recorded.to_string(),
            actual,
        });
    }
    Ok(())
}

/// Merge every shard of the plan in `plan_dir` into full experiment
/// results by streaming: one shard-bundle in memory at a time, folded
/// in rank (= id) order. Every shard must have been crawled to
/// completion ([`crate::runner::crawl_shard`]); each bundle's content
/// hash and per-record checksums are verified as it is read, and any
/// corruption surfaces as an error naming the shard and the exact
/// location inside its archive. The run manifest has the cached
/// replay's layout, with each stage summed over the shards.
pub fn merge_shards(exp: &Experiment, plan_dir: &Path) -> Result<MergedRun, ShardError> {
    let _span = wmtree_telemetry::span("shard.merge");
    let metrics_before = wmtree_telemetry::global().snapshot();
    let mut sw = Stopwatch::start();

    let plan = ShardPlan::load(plan_dir)?;
    plan.check_experiment(exp)?;
    let mut manifest = exp.base_manifest();
    manifest.label += &format!(", merged from {} shards", plan.shards.len());

    let gauge = wmtree_telemetry::gauge!("shard.pages.in_memory");
    let peak_gauge = wmtree_telemetry::gauge!("shard.pages.in_memory.peak");
    let mut peak: usize = 0;
    let mut sites_rebuilt: usize = 0;
    let mut sites_reused: usize = 0;
    let (mut read_wall, mut build_wall, mut analyze_wall, mut fold_wall) = Default::default();
    let mut acc = PartialAccumulators::empty(plan.profiles.clone());

    for spec in &plan.shards {
        let _shard_span = wmtree_telemetry::span("shard.merge.fold");
        check_hash(plan_dir, spec)?;
        let dir = plan_dir.join(&spec.dir);
        let located = |source| ShardError::Shard {
            id: spec.id,
            dir: dir.clone(),
            source,
        };
        if !Manifest::load(&dir).map_err(located)?.complete {
            return Err(ShardError::NotCrawled { id: spec.id });
        }

        // The one-shard residency window: the raw database lives only
        // inside this block.
        let part = {
            let db = exp.open_bundle(&dir).map_err(located)?;
            read_wall += sw.lap("read_bundle");
            gauge.set(db.page_count() as i64);
            peak = peak.max(db.page_count());
            peak_gauge.set(peak as i64);
            let cache = AnalysisCache::open(&dir.join(CACHE_DIR_NAME), exp.config());
            exp.accumulate(&db, Some(&cache)).map_err(located)?
        };
        gauge.set(0);
        sites_rebuilt += part.sites_rebuilt;
        sites_reused += part.sites_reused;
        build_wall += part.build_wall;
        analyze_wall += part.analyze_wall;
        fold_wall += part.fold_wall;
        sw.lap("accumulate");
        acc.merge(part.acc)
            .map_err(|source| ShardError::Merge { source })?;
        fold_wall += sw.lap("merge");
        wmtree_telemetry::counter!("shard.merges.folded").inc();
    }

    let merged = acc
        .finish(exp.config().workers)
        .map_err(|source| ShardError::Merge { source })?;
    fold_wall += sw.lap("finish_merge");
    manifest.push_stage("read_bundle", read_wall);
    manifest.push_stage("build_trees", build_wall);
    manifest.push_stage("analyze", analyze_wall);
    manifest.push_stage("fold_sites", fold_wall);

    let digest = merged.digest.clone();
    Ok(MergedRun {
        results: ExperimentResults::from_merged(merged, manifest, &metrics_before),
        digest,
        peak_shard_pages: peak,
        sites_rebuilt,
        sites_reused,
    })
}
