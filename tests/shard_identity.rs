//! Shard identity, fast: a 2-shard Tiny run merged cold and then warm
//! renders the same report, text and JSON, byte for byte, as one
//! monolithic `Experiment::run`. The full matrix (Small, more shard
//! counts, interrupt + resume, CSVs, tampering) lives in the
//! `wmtree-shard` crate's own tests.

use wmtree::{Experiment, ExperimentConfig, Report, Scale};
use wmtree_shard::{crawl_remaining_shards, merge_shards, ShardPlan};

#[test]
fn two_shard_merge_cold_and_warm_equals_monolithic_run() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
    let mono = Report::generate(&exp.run());

    let dir = std::env::temp_dir().join("wmtree-root-shard-identity");
    let _ = std::fs::remove_dir_all(&dir);
    ShardPlan::new(&exp, 2)
        .expect("plan")
        .store(&dir)
        .expect("store plan");
    crawl_remaining_shards(&exp, &dir).expect("crawl both shards");

    let cold = merge_shards(&exp, &dir).expect("cold merge");
    assert!(cold.sites_rebuilt > 0, "the cold merge builds every site");
    let warm = merge_shards(&exp, &dir).expect("warm merge");
    assert_eq!(
        warm.sites_rebuilt, 0,
        "the warm merge folds every site from cache"
    );
    assert_eq!(warm.sites_reused, cold.sites_rebuilt);

    for (label, merged) in [("cold", &cold), ("warm", &warm)] {
        let report = Report::generate(&merged.results);
        assert_eq!(report.render(), mono.render(), "{label} merge: report text");
        assert_eq!(
            report.to_json(),
            mono.to_json(),
            "{label} merge: report JSON"
        );
        let stages: Vec<&str> = merged
            .results
            .manifest
            .stages
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            stages,
            [
                "generate",
                "read_bundle",
                "build_trees",
                "analyze",
                "fold_sites"
            ],
            "{label} merge: the cached replay's manifest layout"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
