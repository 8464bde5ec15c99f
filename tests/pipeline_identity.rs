//! One analysis pipeline behind every mode: a live run, a recorded
//! run, and the uncached and cached replays report the same stages
//! after their input stage, and the live run's report equals an
//! independent reference built over the whole crawl database at once
//! (`ExperimentData::from_db_parallel` + `analyze_all`), with no
//! per-site fold in between.

use std::collections::BTreeMap;
use wmtree::analysis::node_similarity::analyze_all;
use wmtree::analysis::ExperimentData;
use wmtree::crawler::{Commander, CrawlOptions};
use wmtree::filterlist::embedded::tracking_list;
use wmtree::telemetry::RunManifest;
use wmtree::{
    AnalysisCache, BundleRun, Experiment, ExperimentConfig, ExperimentResults, Report, Scale,
};

fn stages(results: &ExperimentResults) -> Vec<&str> {
    results
        .manifest
        .stages
        .iter()
        .map(|s| s.name.as_str())
        .collect()
}

#[test]
fn every_mode_reports_the_same_stages_after_its_input() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny).with_seed(0x57A6));
    let dir = std::env::temp_dir().join("wmtree-root-pipeline-stages");
    let _ = std::fs::remove_dir_all(&dir);

    let run = exp.run();
    let recorded = match exp.run_to_bundle(&dir, None).expect("record") {
        BundleRun::Complete { results, .. } => *results,
        BundleRun::Partial { .. } => panic!("uncapped crawl must complete"),
    };
    let replayed = exp.replay_from_bundle(&dir).expect("uncached replay");
    let cache = AnalysisCache::in_memory(exp.config());
    let cached = exp
        .replay_from_bundle_cached(&dir, &cache)
        .expect("cached replay")
        .results;

    let post_input = ["build_trees", "analyze", "fold_sites"];
    for (label, results, input) in [
        ("run", &run, "crawl"),
        ("run_to_bundle", &recorded, "crawl"),
        ("replay_from_bundle", &replayed, "read_bundle"),
        ("replay_from_bundle_cached", &cached, "read_bundle"),
    ] {
        let names = stages(results);
        assert_eq!(names[..2], ["generate", input], "{label}: input stages");
        assert_eq!(names[2..], post_input, "{label}: post-input stages");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_equals_the_whole_database_reference() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny).with_seed(0x2EF));
    let cfg = exp.config();
    let db = Commander::new(
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
    .run();
    let site_meta: BTreeMap<String, (u32, String)> = exp
        .universe()
        .sites()
        .iter()
        .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
        .collect();
    let data = ExperimentData::from_db_parallel(
        &db,
        cfg.profiles.iter().map(|p| p.name.clone()).collect(),
        cfg.use_filter_list.then(tracking_list),
        &cfg.tree,
        &site_meta,
        cfg.workers,
    );
    let sims = analyze_all(&data);
    let reference = ExperimentResults {
        profile_stats: db.profile_stats(),
        pages_discovered: db.page_count(),
        successful_visits: db.total_successful_visits(),
        vetted_sites: db.vetted_sites().len(),
        sims,
        data,
        manifest: RunManifest::new(cfg.experiment_seed, "reference"),
    };

    let reference = Report::generate(&reference);
    let run = Report::generate(&exp.run());
    assert_eq!(run.render(), reference.render(), "report text");
    assert_eq!(run.to_json(), reference.to_json(), "report JSON");
}
