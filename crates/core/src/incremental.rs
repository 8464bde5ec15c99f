//! Incremental re-analysis over bundle deltas.
//!
//! [`AnalysisCache`] extends the tree-level memoization of
//! [`wmtree_tree::TreeCache`] with per-**site** partial accumulators
//! ([`wmtree_analysis::PartialAccumulators`]): a site whose visit
//! content hashes (and metadata) are unchanged between two bundles is
//! never re-built or re-analyzed — its cached accumulator folds
//! straight into the merge, exactly as an unchanged shard would in the
//! out-of-core pipeline. Only sites whose *delta key* changed are
//! rebuilt, and their trees still dedup through the tree cache. With
//! no cache, [`accumulate_cached`] is the plain post-crawl pipeline
//! every live run and uncached replay takes.
//!
//! Everything is keyed by content, so invalidation is by construction:
//!
//! * a tree's key is the visit payload's content hash (the bundle
//!   object store's address);
//! * a site's key hashes the site's full visit roster — every page
//!   URL, every per-profile slot (present/absent), every present
//!   visit's content hash, plus the site's rank/bucket metadata;
//! * the cache *fingerprint* ([`cache_fingerprint`]) covers everything
//!   trees and analyses depend on besides the visits: tree config,
//!   filter-list use, and the profile roster. A cache opened under a
//!   different fingerprint starts empty.
//!
//! The cached path must be indistinguishable from the cold path. The
//! per-site accumulators are exact — crawl accounting sums over sites,
//! and [`PartialAccumulators::finish`] restores the canonical
//! `(site, url)` order — so cached, incremental, and cold runs render
//! byte-identical reports (proven by `tests/treecache_identity.rs`).

use crate::config::ExperimentConfig;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use wmtree_analysis::node_similarity::analyze_all;
use wmtree_analysis::{ExperimentData, PartialAccumulators, PartialMergeError};
use wmtree_bundle::hash::{object_hash, to_hex};
use wmtree_bundle::BundleError;
use wmtree_crawler::{CrawlDb, PageKey, ProfileStats};
use wmtree_filterlist::FilterList;
use wmtree_telemetry::Stopwatch;
use wmtree_tree::{CallStackMode, TreeCache, TreeConfig};

/// The cache fingerprint of a configuration: a content hash over
/// everything a cached tree or site accumulator depends on *besides*
/// the visit payloads — tree construction options, filter-list use,
/// and the profile roster (slot order matters). Two configurations
/// with the same fingerprint may share a cache; anything else opens it
/// empty.
pub fn cache_fingerprint(config: &ExperimentConfig) -> u64 {
    let mut canon = String::from("wmtree-cache-fp-v1");
    canon.push_str(if config.tree.normalize_urls {
        "|norm:1"
    } else {
        "|norm:0"
    });
    canon.push_str(match config.tree.call_stack_mode {
        CallStackMode::LatestEntry => "|stack:latest",
        CallStackMode::FullWalk => "|stack:full",
    });
    canon.push_str(if config.use_filter_list {
        "|filter:1"
    } else {
        "|filter:0"
    });
    for p in &config.profiles {
        canon.push('|');
        canon.push_str(&p.name);
    }
    object_hash(canon.as_bytes())
}

/// Two-level analysis cache: memoized trees (via [`TreeCache`], memory
/// and disk) plus per-site partial accumulators (a typed in-memory
/// tier over the tree cache's opaque disk records). Open one next to a
/// bundle and every replay through
/// [`Experiment::replay_from_bundle_cached`][crate::Experiment::replay_from_bundle_cached]
/// gets faster: first run populates, later runs of unchanged sites fold
/// cached accumulators without building a single tree.
#[derive(Debug)]
pub struct AnalysisCache {
    trees: TreeCache,
    /// Typed tier of the site records: parsed accumulators, shared
    /// within the process so warm in-process replays skip even the
    /// JSON parse (and keep their pre-built page indexes).
    sites: Mutex<BTreeMap<u64, PartialAccumulators>>,
}

impl AnalysisCache {
    /// Open (or create) a disk-backed cache at `dir` for `config`'s
    /// fingerprint. Never fails — corruption or a fingerprint mismatch
    /// discards the cache (it holds derived data only).
    pub fn open(dir: &Path, config: &ExperimentConfig) -> AnalysisCache {
        AnalysisCache {
            trees: TreeCache::open(dir, cache_fingerprint(config)),
            sites: Mutex::new(BTreeMap::new()),
        }
    }

    /// A memory-only cache (within-process reuse, nothing persisted).
    pub fn in_memory(config: &ExperimentConfig) -> AnalysisCache {
        AnalysisCache {
            trees: TreeCache::in_memory(cache_fingerprint(config)),
            sites: Mutex::new(BTreeMap::new()),
        }
    }

    /// The underlying tree cache.
    pub fn tree_cache(&self) -> &TreeCache {
        &self.trees
    }

    /// Commit appended records durably (atomic manifest rewrite).
    pub fn commit(&self) -> Result<(), BundleError> {
        self.trees.commit()
    }

    /// Drop everything cached — site accumulators and trees, in memory
    /// and on disk (counted by `tree.cache.discard`).
    pub fn discard(&self) {
        self.sites_tier().clear();
        self.trees.discard();
    }

    fn sites_tier(&self) -> MutexGuard<'_, BTreeMap<u64, PartialAccumulators>> {
        match self.sites.lock() {
            Ok(guard) => guard,
            // The tier is a plain map; a panic mid-access cannot leave
            // it half-written in a way later reads would misread.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up a site accumulator by delta key: typed tier first, then
    /// the disk records (lean form — trees stored as content-hash
    /// references, rehydrated through the tree cache and promoted into
    /// the typed tier). A record whose references no longer resolve is
    /// simply a miss: the site rebuilds from its visits.
    fn get_site_acc(&self, key: u64, profile_names: &[String]) -> Option<PartialAccumulators> {
        if let Some(acc) = self.sites_tier().get(&key) {
            if acc.profile_names() == profile_names {
                wmtree_telemetry::counter!("tree.cache.site.hit").inc();
                return Some(acc.clone());
            }
        }
        let payload = self.trees.get_site(key)?;
        let acc = PartialAccumulators::from_cache_record(&payload, profile_names, |h| {
            self.trees.get_tree(h)
        })?;
        self.sites_tier().insert(key, acc.clone());
        Some(acc)
    }

    /// Cache a freshly built site accumulator. `tree_keys` holds each
    /// page's visit content hashes, aligned with the accumulator's
    /// pages and their trees. The disk record stores only these
    /// references, so it is written just when every key is known *and*
    /// its tree is durably in the tree log (a reference to a
    /// memory-only tree would dangle after reopen); the typed tier
    /// keeps the full accumulator either way for in-process reuse.
    fn insert_site_acc(&self, key: u64, acc: &PartialAccumulators, tree_keys: &[Vec<Option<u64>>]) {
        let persisted = tree_keys
            .iter()
            .flatten()
            .all(|k| k.is_some_and(|h| self.trees.is_tree_persisted(h)));
        if persisted {
            if let Some(payload) = acc.to_cache_record(tree_keys) {
                self.trees.insert_site(key, &payload);
            }
        }
        self.sites_tier().insert(key, acc.clone());
    }
}

/// The delta key of one site: a content hash over the site's complete
/// visit roster and metadata. `None` when any present visit lacks a
/// content hash (live-crawl data) — such a site is simply rebuilt.
fn site_delta_key(
    db: &CrawlDb,
    site: &str,
    pages: &[&PageKey],
    meta: Option<&(u32, String)>,
) -> Option<u64> {
    let mut canon = String::from("wmtree-site-acc-v1|");
    canon.push_str(site);
    if let Some((rank, bucket)) = meta {
        canon.push_str("|meta:");
        canon.push_str(&rank.to_string());
        canon.push(':');
        canon.push_str(bucket);
    }
    for page in pages {
        canon.push_str("|p:");
        canon.push_str(&page.url);
        for profile in 0..db.n_profiles() {
            canon.push(',');
            match db.visit_any(page, profile) {
                None => canon.push('-'),
                Some(_) => match db.visit_hash(page, profile) {
                    Some(h) => canon.push_str(&to_hex(h)),
                    None => return None,
                },
            }
        }
    }
    Some(object_hash(canon.as_bytes()))
}

/// Per-site crawl accounting: profile stats and successful visits over
/// exactly this site's pages. Summing these over all sites reproduces
/// the whole-database figures — the exactness the byte-identity
/// guarantee rests on.
fn site_stats(db: &CrawlDb, pages: &[&PageKey]) -> (Vec<ProfileStats>, usize) {
    let mut stats = vec![ProfileStats::default(); db.n_profiles()];
    let mut successful = 0usize;
    for page in pages {
        for (profile, stat) in stats.iter_mut().enumerate() {
            if let Some(v) = db.visit_any(page, profile) {
                stat.attempted += 1;
                if v.success {
                    stat.succeeded += 1;
                    successful += 1;
                }
            }
        }
    }
    (stats, successful)
}

/// Outcome of [`accumulate_cached`]: every site's accumulator — cached
/// or freshly rebuilt — merged but **not yet finished**, plus the
/// incremental accounting and per-phase wall times the run manifest
/// reports. Every mode calls [`PartialAccumulators::finish`] on one of
/// these; the shard merge folds one per bundle first and finishes once.
pub struct CachedAccumulation {
    /// The merged (un-finished) accumulators over every site.
    pub acc: PartialAccumulators,
    /// Sites in the database.
    pub sites_total: usize,
    /// Sites whose delta key missed the cache and were rebuilt.
    pub sites_rebuilt: usize,
    /// Sites folded from cached accumulators.
    pub sites_reused: usize,
    /// Wall time of the build stage: delta-key hashing over every
    /// site, plus tree building for the rebuilt ones.
    pub build_wall: Duration,
    /// Wall time of the per-page analyses over rebuilt sites.
    pub analyze_wall: Duration,
    /// Wall time of the fold: cached-accumulator reconstruction plus
    /// the per-site fold and merge of rebuilt sites.
    pub fold_wall: Duration,
}

/// The post-crawl pipeline of every mode: resolve each site against
/// the cache, rebuild only the changed ones (their trees still
/// memoized per visit), and fold every site's accumulator — cached or
/// fresh — into one mergeable [`PartialAccumulators`]. A cached
/// accumulator holding another site's pages fails with
/// [`PartialMergeError::ForeignPage`].
///
/// Without a cache (a live crawl, an uncached replay) no delta key is
/// hashed and nothing is looked up or stored: every site rebuilds from
/// `db` with the in-run tree memo, and the fold cannot fail.
///
/// [`Experiment::accumulate`][crate::Experiment::accumulate] wraps this
/// with the configuration's inputs, cache-fault recovery and the cache
/// commit; every run, replay and shard merge folds through it.
pub fn accumulate_cached<'c>(
    db: &CrawlDb,
    profile_names: &[String],
    filter_list: Option<&FilterList>,
    tree_config: &TreeConfig,
    site_meta: &BTreeMap<String, (u32, String)>,
    workers: usize,
    cache: impl Into<Option<&'c AnalysisCache>>,
) -> Result<CachedAccumulation, PartialMergeError> {
    let cache = cache.into();
    let mut sw = Stopwatch::start();

    // Group the database's pages by site (pages iterate in canonical
    // (site, url) order, so sites come out sorted and contiguous).
    let mut by_site: BTreeMap<&str, Vec<&PageKey>> = BTreeMap::new();
    for page in db.pages() {
        by_site.entry(page.site.as_str()).or_default().push(page);
    }
    let sites_total = by_site.len();

    // Hash every site's delta key, in canonical site order. This is
    // the cache-resolved analogue of tree building (it decides which
    // trees exist this run), so it counts toward the build stage.
    let keyed: Vec<(&str, Option<u64>)> = {
        let _span = wmtree_telemetry::span("experiment.build_trees");
        by_site
            .iter()
            .map(|(site, pages)| {
                let key = cache.and_then(|_| site_delta_key(db, site, pages, site_meta.get(*site)));
                (*site, key)
            })
            .collect()
    };
    let mut build_wall = sw.lap("build.keys");

    // Resolve the keys against the cache (deterministic hit/miss
    // counters and disk append order). Materializing a cached
    // accumulator — parse, tree rehydration — is fold work, symmetric
    // to the cold fold's serialize, so it counts toward the fold stage.
    // A cached accumulator holding another site's pages is a cache
    // fault, reported here so the caller can retry this database cold.
    let mut reused: Vec<PartialAccumulators> = Vec::new();
    let mut rebuild: Vec<(&str, Option<u64>)> = Vec::new();
    for (site, key) in keyed {
        match key
            .zip(cache)
            .and_then(|(k, c)| c.get_site_acc(k, profile_names))
        {
            Some(acc) => {
                acc.check_site(site)?;
                reused.push(acc);
            }
            None => rebuild.push((site, key)),
        }
    }
    let mut fold_wall = sw.lap("fold.resolve");

    // Rebuild phase 1: build the changed sites' trees in one fan-out.
    // When the cache supplied some sites, the rest are copied into one
    // sub-database first; otherwise every site rebuilds from `db`.
    let build_span = wmtree_telemetry::span("experiment.build_trees");
    let mut sub = CrawlDb::new(db.n_profiles());
    if !reused.is_empty() {
        for (site, _) in &rebuild {
            for page in &by_site[site] {
                for profile in 0..db.n_profiles() {
                    if let Some(v) = db.visit_any(page, profile) {
                        match db.visit_hash(page, profile) {
                            Some(h) => sub.insert_hashed((*page).clone(), profile, v.clone(), h),
                            None => sub.insert((*page).clone(), profile, v.clone()),
                        }
                    }
                }
            }
        }
    }
    let rebuilt = if reused.is_empty() { db } else { &sub };
    let data = ExperimentData::from_db_cached(
        rebuilt,
        profile_names.to_vec(),
        filter_list,
        tree_config,
        site_meta,
        workers,
        cache.map(AnalysisCache::tree_cache),
    );
    drop(build_span);
    build_wall += sw.lap("build.trees");

    // Rebuild phase 2: the per-page analyses (each page independent).
    let sims = analyze_all(&data);
    let analyze_wall = sw.lap("analyze");

    // Fold: split the rebuilt pages back per site, wrap each site in
    // its own accumulator (cached for next time), then merge cached +
    // fresh accumulators. Each rebuilt page's visit content hashes
    // (aligned with its trees) become the lean disk record's tree
    // references; without a cache nothing is stored, so none are read.
    let tree_keys: Vec<Vec<Option<u64>>> = match cache {
        Some(_) => rebuilt
            .vetted_pages_hashed()
            .into_iter()
            .map(|(_, visits)| visits.into_iter().map(|(_, h)| h).collect())
            .collect(),
        None => vec![Vec::new(); data.pages.len()],
    };
    debug_assert_eq!(tree_keys.len(), data.pages.len());
    let mut acc = PartialAccumulators::empty(profile_names.to_vec());
    for cached in reused {
        acc.merge(cached)?;
    }
    let mut pairs = data
        .pages
        .into_iter()
        .zip(sims)
        .zip(tree_keys)
        .map(|((page, sim), keys)| (page, sim, keys))
        .peekable();
    for (site, key) in &rebuild {
        let mut site_pages = Vec::new();
        let mut site_sims = Vec::new();
        let mut site_keys = Vec::new();
        while let Some((page, sim, keys)) = pairs.next_if(|(page, _, _)| &*page.site == *site) {
            site_pages.push(page);
            site_sims.push(sim);
            site_keys.push(keys);
        }
        let vetted = usize::from(!site_pages.is_empty());
        let (stats, successful) = site_stats(db, &by_site[site]);
        let site_data = ExperimentData {
            profile_names: profile_names.to_vec(),
            pages: site_pages,
            workers: 0,
        };
        let site_acc = PartialAccumulators::from_shard(
            site_data,
            site_sims,
            stats,
            by_site[site].len(),
            successful,
            vetted,
        );
        if let Some((k, cache)) = key.zip(cache) {
            cache.insert_site_acc(k, &site_acc, &site_keys);
        }
        acc.merge(site_acc)?;
    }
    fold_wall += sw.lap("fold");

    Ok(CachedAccumulation {
        acc,
        sites_total,
        sites_rebuilt: rebuild.len(),
        sites_reused: sites_total - rebuild.len(),
        build_wall,
        analyze_wall,
        fold_wall,
    })
}

/// What a cached bundle replay reports beyond the results themselves:
/// how much of the work the cache absorbed.
#[derive(Debug)]
pub struct IncrementalReplay {
    /// The full analysis results — byte-identical to an uncached
    /// replay (or a crawl-then-analyze run) of the same bundle.
    pub results: crate::ExperimentResults,
    /// Sites in the bundle.
    pub sites_total: usize,
    /// Sites whose delta key missed the cache and were rebuilt.
    pub sites_rebuilt: usize,
    /// Sites folded from cached accumulators.
    pub sites_reused: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn fingerprint_separates_configurations() {
        let base = crate::ExperimentConfig::at_scale(Scale::Tiny);
        let fp = cache_fingerprint(&base);
        assert_eq!(fp, cache_fingerprint(&base.clone()), "deterministic");

        let mut no_filter = base.clone();
        no_filter.use_filter_list = false;
        assert_ne!(fp, cache_fingerprint(&no_filter));

        let mut raw_urls = base.clone();
        raw_urls.tree.normalize_urls = false;
        assert_ne!(fp, cache_fingerprint(&raw_urls));

        let mut fewer = base.clone();
        fewer.profiles.pop();
        assert_ne!(fp, cache_fingerprint(&fewer));

        // Worker count and seed must NOT change the fingerprint — they
        // never influence tree or analysis content.
        let mut other_workers = base.clone();
        other_workers.workers = 7;
        other_workers.experiment_seed ^= 0xF00;
        assert_eq!(fp, cache_fingerprint(&other_workers));
    }

    #[test]
    fn inconsistent_cached_site_discards_the_cache_and_rebuilds_cold() {
        use crate::{BundleRun, Experiment, Report};
        let cfg = crate::ExperimentConfig::at_scale(Scale::Tiny).with_seed(0xD15C);
        let exp = Experiment::new(cfg.clone());
        let dir = std::env::temp_dir().join("wmtree-incremental-inconsistent-site");
        let _ = std::fs::remove_dir_all(&dir);
        match exp.run_to_bundle(&dir, None).unwrap() {
            BundleRun::Complete { .. } => {}
            BundleRun::Partial { .. } => panic!("uncapped crawl must complete"),
        }
        let uncached = Report::generate(&exp.replay_from_bundle(&dir).unwrap());

        // Populate the cache, then file a site's accumulator under
        // another site's delta key as well: replaying now merges the
        // first site's pages twice.
        let cache = AnalysisCache::open(&dir.join(wmtree_tree::cache::CACHE_DIR_NAME), &cfg);
        exp.replay_from_bundle_cached(&dir, &cache).unwrap();
        let db = wmtree_crawler::read_bundle(&dir).unwrap();
        let meta: BTreeMap<String, (u32, String)> = exp
            .universe()
            .sites()
            .iter()
            .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
            .collect();
        let mut by_site: BTreeMap<&str, Vec<&PageKey>> = BTreeMap::new();
        for page in db.pages() {
            by_site.entry(page.site.as_str()).or_default().push(page);
        }
        let keys: Vec<u64> = by_site
            .iter()
            .map(|(site, pages)| site_delta_key(&db, site, pages, meta.get(*site)).unwrap())
            .collect();
        let tier = |k: &u64| cache.sites_tier().get(k).cloned().unwrap();
        let (vetted, other) = match keys.iter().position(|k| tier(k).page_count() > 0) {
            Some(i) => (keys[i], keys[(i + 1) % keys.len()]),
            None => panic!("some site has vetted pages"),
        };
        let injected = tier(&vetted);
        cache.sites_tier().insert(other, injected);

        let discards = wmtree_telemetry::counter!("tree.cache.discard");
        let before = discards.get();
        let replay = exp.replay_from_bundle_cached(&dir, &cache).unwrap();
        assert!(
            discards.get() > before,
            "the inconsistent cache is discarded"
        );
        assert_eq!(replay.sites_reused, 0, "the retry rebuilds every site cold");
        let cached = Report::generate(&replay.results);
        assert_eq!(uncached.to_json(), cached.to_json());
        assert_eq!(uncached.render(), cached.render());

        // The rebuilt cache is consistent again, also across a reopen.
        let reopened = AnalysisCache::open(&dir.join(wmtree_tree::cache::CACHE_DIR_NAME), &cfg);
        let warm = exp.replay_from_bundle_cached(&dir, &reopened).unwrap();
        assert_eq!(warm.sites_reused, warm.sites_total);
        assert_eq!(uncached.render(), Report::generate(&warm.results).render());
    }
}
