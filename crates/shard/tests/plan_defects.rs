//! `SHARDS.json` is outside input. A plan that leaves sites out, holds
//! an inverted window, or names a bundle directory outside the plan
//! directory is refused by both `crawl_shard` and `merge_shards` with a
//! `ShardError`, before either writes anything.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wmtree::{Experiment, ExperimentConfig, Scale};
use wmtree_shard::{crawl_remaining_shards, crawl_shard, merge_shards, ShardError, ShardPlan};

/// Every file and directory under `root`, relative to it.
fn tree(root: &Path) -> BTreeSet<PathBuf> {
    let mut out = BTreeSet::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path.clone());
            }
            out.insert(path.strip_prefix(root).expect("under root").to_path_buf());
        }
    }
    out
}

#[test]
fn malformed_plans_are_refused_before_any_write() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
    let root = std::env::temp_dir().join("wmtree-shard-plan-defects");
    let _ = std::fs::remove_dir_all(&root);
    let plan_dir = root.join("plan");

    // A good plan, crawled to completion and merged once (so every
    // shard's cache exists): a refused call must leave this tree as is.
    let good = ShardPlan::new(&exp, 3).expect("plan");
    good.store(&plan_dir).expect("store");
    crawl_remaining_shards(&exp, &plan_dir).expect("crawl shards");
    merge_shards(&exp, &plan_dir).expect("merge the good plan");
    let crawled = ShardPlan::load(&plan_dir).expect("reload");
    let before = tree(&root);
    let abs_dir = root.join("escaped-abs");

    let tampered = |tamper: &dyn Fn(&mut ShardPlan)| {
        let mut plan = crawled.clone();
        tamper(&mut plan);
        plan
    };
    let cases = [
        (
            "gap between shards 0 and 1",
            1,
            tampered(&|p| p.shards[1].site_lo += 1),
        ),
        (
            "last shard dropped",
            0,
            tampered(&|p| {
                p.shards.pop();
            }),
        ),
        (
            "inverted window",
            1,
            tampered(&|p| {
                let s = &mut p.shards[1];
                std::mem::swap(&mut s.site_lo, &mut s.site_hi);
            }),
        ),
        (
            "absolute dir",
            0,
            tampered(&|p| p.shards[0].dir = abs_dir.to_string_lossy().into_owned()),
        ),
        (
            "parent dir",
            0,
            tampered(&|p| p.shards[0].dir = "../escaped-rel".into()),
        ),
    ];
    for (label, id, bad) in &cases {
        bad.store(&plan_dir).expect("store tampered plan");

        let err = crawl_shard(&exp, &plan_dir, *id, None).expect_err(label);
        assert!(matches!(err, ShardError::Plan { .. }), "{label}: {err}");
        let err = merge_shards(&exp, &plan_dir).expect_err(label);
        assert!(matches!(err, ShardError::Plan { .. }), "{label}: {err}");

        assert_eq!(tree(&root), before, "{label}: nothing written");
        assert!(!abs_dir.exists() && !root.join("escaped-rel").exists());
    }

    assert!(crawled.defects().is_empty(), "the good plan has no defects");
    let _ = std::fs::remove_dir_all(&root);
}
