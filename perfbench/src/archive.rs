//! `archive`: the record-once, re-analyse-many workflow. Set-up plans
//! and crawls a 2-shard experiment; each timed round then
//!
//! 1. records a fresh bundle (`run_to_bundle`),
//! 2. replays it cold (`replay_from_bundle_cached`, no `TREECACHE/`),
//! 3. replays it warm (a fresh `AnalysisCache::open` handle, as a
//!    restarted process would have),
//! 4. merges the shards cold (`merge_shards`, shard caches removed),
//!
//! each step ending with the report generated and rendered. The
//! operation latency is the round's wall time.

use crate::common::{commander, filter, profile_names, report, site_meta, timed, Run, Telemetry};
use crate::gate::Rendered;
use crate::stats::{dir_bytes, mb};
use crate::trace::{breakdown, total_ms, SpanId};
use std::path::Path;
use std::time::Instant;
use wmtree::crawler::read_bundle;
use wmtree::tree::cache::CACHE_DIR_NAME;
use wmtree::{accumulate_cached, AnalysisCache, BundleRun, Experiment, ExperimentResults, Report};
use wmtree_shard::{crawl_remaining_shards, merge_shards, ShardPlan};

/// Shards in the set-up plan.
const SHARDS: usize = 2;

/// The four timed steps of a round.
const STEPS: [&str; 4] = ["record", "replay_cold", "replay_warm", "merge"];

fn remove(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}

/// Run the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let cfg = run.opts.config();
    let plan_dir = run.opts.work_dir.join("shards");

    // Set-up: generate the universe, plan and crawl the shards.
    let setup = run.tracer.open("setup", Some(run.root));
    let (exp, wall) = timed(|| -> Result<Experiment, String> {
        let exp = run
            .tracer
            .call(setup, "webgen.generate", |_| Experiment::new(cfg.clone()));
        let plan = ShardPlan::new(&exp, SHARDS).map_err(|e| format!("shard plan: {e}"))?;
        plan.store(&plan_dir)
            .map_err(|e| format!("storing shard plan: {e}"))?;
        run.tracer
            .call(setup, "shard.crawl", |_| {
                crawl_remaining_shards(&exp, &plan_dir)
            })
            .map_err(|e| format!("shard crawl: {e}"))?;
        Ok(exp)
    });
    run.tracer.close(setup);
    let exp = exp?;
    run.setups.push(wall.as_secs_f64());
    if run.opts.trace {
        let spans = run.tracer.snapshot();
        run.values.set(
            "webgen.generate_ms",
            total_ms(&spans, "webgen.generate", None),
        );
    }

    // Timed rounds, started while the previous one's length still fits
    // the window (at least one). Traced runs alternate an untraced round
    // (the step walls) with a traced one (the breakdown).
    let start = Instant::now();
    let mut round = 0usize;
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut last = std::time::Duration::ZERO;
    while round == 0 || start.elapsed() + last <= run.opts.window() || (run.opts.trace && round < 2)
    {
        let round_start = Instant::now();
        let traced = run.opts.trace && round % 2 == 1;
        let dir = run.opts.work_dir.join(format!("round-{round}"));
        round += 1;
        let walls = if traced {
            traced_round(run, &exp, &plan_dir, &dir)?
        } else {
            plain_round(run, &exp, &plan_dir, &dir)?
        };
        remove(&dir)?;
        last = round_start.elapsed();
        let total: f64 = walls.iter().sum();
        eprintln!("[perfbench] round (traced: {traced}) {total:.1} ms = {walls:.1?}");
        if traced {
            traced_ms.push(total);
        } else {
            run.ops_ms.push(total);
            plain_ms.push(total);
            if run.opts.trace {
                for (name, ms) in [
                    "step.record_s",
                    "step.replay_cold_s",
                    "step.replay_warm_s",
                    "step.merge_s",
                ]
                .into_iter()
                .zip(walls)
                {
                    run.values.set(name, ms / 1e3);
                }
            }
        }
    }
    if run.opts.trace {
        let m = crate::stats::median;
        run.values
            .set("trace.overhead_share", m(&traced_ms) / m(&plain_ms) - 1.0);
    }
    Ok(())
}

/// One untraced round through the program's public entry points.
/// Returns the four step walls in milliseconds.
fn plain_round(
    run: &mut Run,
    exp: &Experiment,
    plan_dir: &Path,
    dir: &Path,
) -> Result<[f64; 4], String> {
    let cfg = exp.config();
    let cache_dir = dir.join(CACHE_DIR_NAME);
    let mut walls = [0.0; 4];
    let finish = |run: &mut Run,
                  step: usize,
                  results: &ExperimentResults,
                  t: Instant,
                  walls: &mut [f64; 4]| {
        let rendered = Rendered::of(&Report::generate(results));
        walls[step] = t.elapsed().as_secs_f64() * 1e3;
        run.gate.check(STEPS[step], rendered.digest());
    };

    let t = Instant::now();
    match exp.run_to_bundle(dir, None) {
        Ok(BundleRun::Complete { results, .. }) => {
            finish(run, 0, &results, t, &mut walls);
            run.crawl_accounting("record", &results.profile_stats, results.pages_discovered);
        }
        Ok(BundleRun::Partial { .. }) => return Err("record: uncapped crawl stopped early".into()),
        Err(e) => return Err(format!("record: {e}")),
    }
    run.values.set(
        "archive.bundle_mb",
        mb(dir_bytes(dir, Some(CACHE_DIR_NAME))),
    );

    for (step, label) in [(1, "replay_cold"), (2, "replay_warm")] {
        let t = Instant::now();
        let cache = AnalysisCache::open(&cache_dir, cfg);
        let replay = exp
            .replay_from_bundle_cached(dir, &cache)
            .map_err(|e| format!("{label}: {e}"))?;
        finish(run, step, &replay.results, t, &mut walls);
        if step == 1 {
            run.values
                .set("archive.cache_mb", mb(dir_bytes(&cache_dir, None)));
        }
    }

    remove_shard_caches(plan_dir)?;
    let t = Instant::now();
    let merged = merge_shards(exp, plan_dir).map_err(|e| format!("merge: {e}"))?;
    finish(run, 3, &merged.results, t, &mut walls);
    Ok(walls)
}

fn remove_shard_caches(plan_dir: &Path) -> Result<(), String> {
    let plan = ShardPlan::load(plan_dir).map_err(|e| format!("loading shard plan: {e}"))?;
    for spec in &plan.shards {
        remove(&plan_dir.join(&spec.dir).join(CACHE_DIR_NAME))?;
    }
    Ok(())
}

/// One traced round: each step's layers called (or, behind a single
/// public call, read from the program's telemetry) under the step's
/// span. Returns the four step walls in milliseconds.
fn traced_round(
    run: &mut Run,
    exp: &Experiment,
    plan_dir: &Path,
    dir: &Path,
) -> Result<[f64; 4], String> {
    let cfg = exp.config();
    let tracer = &run.tracer;
    let before_round = Telemetry::now();
    let mut steps: [SpanId; 4] = [0; 4];
    let mut outputs: Vec<Rendered> = Vec::new();

    // 1. record: one public call; its layers come from telemetry.
    steps[0] = tracer.open("record", Some(run.root));
    let before = Telemetry::now();
    let recorded = tracer.call(steps[0], "core.run_to_bundle", |id| {
        let out = exp.run_to_bundle(dir, None);
        let after = Telemetry::now();
        let checkpoint = after.span_since(&before, "bundle.checkpoint");
        let crawl = after.span_since(&before, "crawl.run_resumable");
        tracer.derived(id, "crawler.crawl", crawl.saturating_sub(checkpoint));
        tracer.derived(id, "bundle.write", checkpoint);
        tracer.derived(
            id,
            "tree.build",
            after.span_since(&before, "experiment.build_trees"),
        );
        tracer.derived(
            id,
            "analysis.analyze",
            after.span_since(&before, "analysis.node_similarity"),
        );
        out
    });
    let after_record = Telemetry::now();
    let (results, manifest) = match recorded {
        Ok(BundleRun::Complete { results, bundle }) => (results, bundle),
        Ok(BundleRun::Partial { .. }) => return Err("record: uncapped crawl stopped early".into()),
        Err(e) => return Err(format!("record: {e}")),
    };
    outputs.push(report(tracer, steps[0], &results));
    tracer.close(steps[0]);
    run.values.set(
        "bundle.bytes_written",
        after_record.counter_since(&before, "bundle.bytes.written") as f64,
    );
    run.values.set("bundle.objects", manifest.objects as f64);
    run.values.set("bundle.dedup_ratio", manifest.dedup_ratio());
    run.values
        .set("tree.count", results.data.tree_count() as f64);
    run.values
        .set("analysis.pages", results.data.pages.len() as f64);
    let (stats, pages) = (results.profile_stats.clone(), results.pages_discovered);
    drop(results);

    // 2–3. cold and warm replays, layer by layer.
    let cache_dir = dir.join(CACHE_DIR_NAME);
    let names = profile_names(cfg);
    let meta = site_meta(exp);
    for (k, label) in [(1usize, "replay_cold"), (2, "replay_warm")] {
        let step = tracer.open(label, Some(run.root));
        steps[k] = step;
        let db = tracer.call(step, "bundle.read", |_| {
            let manifest = wmtree::bundle::Manifest::load(dir)?;
            manifest.check_meta(&commander(exp).bundle_meta())?;
            read_bundle(dir)
        });
        let db = db.map_err(|e| format!("{label}: {e}"))?;
        let cache = tracer.call(step, "core.cache_open", |_| {
            AnalysisCache::open(&cache_dir, cfg)
        });
        let acc = tracer.call(step, "core.accumulate", |id| {
            let out = accumulate_cached(
                &db,
                &names,
                filter(cfg),
                &cfg.tree,
                &meta,
                cfg.workers,
                &cache,
            );
            if let Ok(acc) = &out {
                tracer.derived(id, "tree.build", acc.build_wall);
                tracer.derived(id, "analysis.analyze", acc.analyze_wall);
            }
            out
        });
        let acc = acc.map_err(|e| format!("{label}: {e}"))?;
        tracer
            .call(step, "core.cache_commit", |_| cache.commit())
            .map_err(|e| format!("{label}: {e}"))?;
        if k == 2 {
            run.values.set("core.sites_reused", acc.sites_reused as f64);
            run.values.set("core.sites_total", acc.sites_total as f64);
            run.values.set(
                "core.sites_reused_share",
                acc.sites_reused as f64 / acc.sites_total.max(1) as f64,
            );
        }
        let merged = tracer.call(step, "analysis.fold", |_| acc.acc.finish(cfg.workers));
        let merged = merged.map_err(|e| format!("{label}: {e}"))?;
        drop(db);
        let results = ExperimentResults {
            pages_discovered: merged.digest.pages_discovered,
            successful_visits: merged.digest.successful_visits,
            vetted_sites: merged.digest.vetted_sites,
            data: merged.data,
            sims: merged.sims,
            profile_stats: merged.profile_stats,
            manifest: wmtree::telemetry::RunManifest::new(cfg.experiment_seed, "perfbench"),
        };
        outputs.push(report(tracer, step, &results));
        tracer.close(step);
        if k == 1 {
            run.values
                .set("archive.cache_mb", mb(dir_bytes(&cache_dir, None)));
        }
    }

    // 4. cold merge: one public call; its layers come from telemetry.
    remove_shard_caches(plan_dir)?;
    steps[3] = tracer.open("merge", Some(run.root));
    let before = Telemetry::now();
    let merged = tracer.call(steps[3], "shard.merge", |id| {
        let out = merge_shards(exp, plan_dir);
        let after = Telemetry::now();
        tracer.derived(
            id,
            "bundle.read",
            after.span_since(&before, "bundle.read_db"),
        );
        tracer.derived(
            id,
            "analysis.analyze",
            after.span_since(&before, "analysis.node_similarity"),
        );
        tracer.derived(
            id,
            "analysis.fold",
            after.span_since(&before, "analysis.partial.finish"),
        );
        out
    });
    let merged = merged.map_err(|e| format!("merge: {e}"))?;
    outputs.push(report(tracer, steps[3], &merged.results));
    tracer.close(steps[3]);
    run.values
        .set("shard.peak_pages", merged.peak_shard_pages as f64);
    drop(merged);

    // Correctness, then the per-layer figures of the round.
    for (k, rendered) in outputs.iter().enumerate() {
        run.gate
            .check(&format!("{} (traced)", STEPS[k]), rendered.digest());
    }
    run.crawl_accounting("record (traced)", &stats, pages);
    run.values.set("report.bytes", outputs[0].bytes() as f64);

    let after_round = Telemetry::now();
    let spans = run.tracer.snapshot();
    let mut walls = [0.0; 4];
    let mut unattributed: f64 = 0.0;
    for (k, step) in steps.iter().enumerate() {
        let b = breakdown(&spans, *step);
        walls[k] = b.wall_ns as f64 / 1e6;
        unattributed = unattributed.max(b.unattributed_share());
        crate::print_breakdown(&b);
    }
    let sum = |name: &str| -> f64 { steps.iter().map(|s| total_ms(&spans, name, Some(*s))).sum() };
    let v = &mut run.values;
    v.set("trace.unattributed_share", unattributed);
    v.set("crawler.crawl_ms", sum("crawler.crawl"));
    v.set(
        "crawler.visits_per_s",
        v.get("crawler.visits") / (sum("crawler.crawl") / 1e3),
    );
    v.set("bundle.write_ms", sum("bundle.write"));
    v.set("bundle.read_ms", sum("bundle.read"));
    let bytes_read = after_round.counter_since(&before_round, "bundle.bytes.read");
    v.set("bundle.bytes_read", bytes_read as f64);
    v.set(
        "bundle.read_mb_per_s",
        mb(bytes_read) / (sum("bundle.read") / 1e3),
    );
    v.set("tree.build_ms", sum("tree.build"));
    v.set(
        "tree.cache.hit",
        after_round.counter_since(&before_round, "tree.cache.hit") as f64,
    );
    v.set(
        "tree.cache.miss",
        after_round.counter_since(&before_round, "tree.cache.miss") as f64,
    );
    v.set("core.cache_open_ms", sum("core.cache_open"));
    v.set(
        "core.accumulate_cold_ms",
        total_ms(&spans, "core.accumulate", Some(steps[1])),
    );
    v.set(
        "core.accumulate_warm_ms",
        total_ms(&spans, "core.accumulate", Some(steps[2])),
    );
    v.set("core.cache_commit_ms", sum("core.cache_commit"));
    v.set("analysis.analyze_ms", sum("analysis.analyze"));
    v.set("analysis.fold_ms", sum("analysis.fold"));
    v.set("report.generate_ms", sum("report.generate"));
    v.set("report.render_ms", sum("report.render"));
    v.set("shard.merge_ms", sum("shard.merge"));
    Ok(walls)
}
