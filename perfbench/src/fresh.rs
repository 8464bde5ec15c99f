//! `fresh`: the default `repro` command. `Experiment::run`, then the
//! report generated and rendered (text, JSON, every CSV) in memory.
//! Nothing touches disk; bundles, caches, shards and the server are
//! bypassed.

use crate::common::{
    commander, filter, profile_names, report, results_from_db, site_meta, timed, Run,
};
use crate::gate::Rendered;
use crate::stats::median;
use crate::trace::breakdown;
use std::time::Instant;
use wmtree::analysis::node_similarity::analyze_all;
use wmtree::analysis::ExperimentData;
use wmtree::{Experiment, Report};

/// Run the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let cfg = run.opts.config();

    // Set-up: generate the universe (webgen), then one untimed warm-up
    // run, so one-time lazy costs (filter-list parse, allocator growth)
    // land in `setup_s` rather than in the first timed operation.
    let setup = run.tracer.open("setup", Some(run.root));
    let ((exp, generate), wall) = timed(|| {
        let (exp, generate) = timed(|| {
            run.tracer
                .call(setup, "webgen.generate", |_| Experiment::new(cfg.clone()))
        });
        let warm = run.tracer.call(setup, "warm_up", |_| {
            Rendered::of(&Report::generate(&exp.run()))
        });
        run.gate.check("warm-up", warm.digest());
        (exp, generate)
    });
    run.tracer.close(setup);
    run.setups.push(wall.as_secs_f64());
    run.values
        .set("webgen.generate_ms", generate.as_secs_f64() * 1e3);

    // Timed window: operations start while the previous one's length
    // still fits. Untraced runs repeat `Experiment::run`; traced runs
    // alternate it with the same pipeline called layer by layer.
    let start = Instant::now();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut layer_ms: Vec<[f64; 5]> = Vec::new();
    let mut unattributed: f64 = 0.0;
    let mut i = 0usize;
    let mut last = std::time::Duration::ZERO;
    while i == 0 || start.elapsed() + last <= run.opts.window() || (run.opts.trace && i < 2) {
        let op_start = Instant::now();
        let traced = run.opts.trace && i % 2 == 1;
        i += 1;
        if !traced {
            let ((results, rendered), wall) = timed(|| {
                let results = exp.run();
                let rendered = Rendered::of(&Report::generate(&results));
                (results, rendered)
            });
            run.gate.check("fresh", rendered.digest());
            run.crawl_accounting("fresh", &results.profile_stats, results.pages_discovered);
            let ms = wall.as_secs_f64() * 1e3;
            eprintln!("[perfbench] fresh {ms:.1} ms");
            run.ops_ms.push(ms);
            plain_ms.push(ms);
            last = op_start.elapsed();
            continue;
        }

        let tracer = &run.tracer;
        let step = tracer.open("fresh", Some(run.root));
        let db = tracer.call(step, "crawler.crawl", |_| commander(&exp).run());
        let data = tracer.call(step, "tree.build", |_| {
            ExperimentData::from_db_parallel(
                &db,
                profile_names(&cfg),
                filter(&cfg),
                &cfg.tree,
                &site_meta(&exp),
                cfg.workers,
            )
        });
        let sims = tracer.call(step, "analysis.analyze", |_| analyze_all(&data));
        let results = results_from_db(&db, data, sims, cfg.experiment_seed);
        let rendered = report(tracer, step, &results);
        tracer.close(step);

        let spans = tracer.snapshot();
        let b = breakdown(&spans, step);
        unattributed = unattributed.max(b.unattributed_share());
        crate::print_breakdown(&b);
        let ms = |name: &str| b.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
        layer_ms.push([
            ms("crawler.crawl"),
            ms("tree.build"),
            ms("analysis.analyze"),
            ms("report.generate"),
            ms("report.render"),
        ]);
        traced_ms.push(b.wall_ns as f64 / 1e6);
        run.gate.check("fresh (traced)", rendered.digest());
        run.crawl_accounting(
            "fresh (traced)",
            &results.profile_stats,
            results.pages_discovered,
        );
        run.values
            .set("tree.count", results.data.tree_count() as f64);
        run.values
            .set("analysis.pages", results.data.pages.len() as f64);
        run.values.set("report.bytes", rendered.bytes() as f64);
        last = op_start.elapsed();
    }

    if run.opts.trace {
        let col = |k: usize| median(&layer_ms.iter().map(|r| r[k]).collect::<Vec<_>>());
        let crawl_ms = col(0);
        run.values.set("step.fresh_s", median(&plain_ms) / 1e3);
        run.values.set("crawler.crawl_ms", crawl_ms);
        run.values.set(
            "crawler.visits_per_s",
            run.values.get("crawler.visits") / (crawl_ms / 1e3),
        );
        run.values.set("tree.build_ms", col(1));
        run.values.set("analysis.analyze_ms", col(2));
        run.values.set("report.generate_ms", col(3));
        run.values.set("report.render_ms", col(4));
        run.values.set(
            "trace.overhead_share",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        );
        run.values.set("trace.unattributed_share", unattributed);
    }
    Ok(())
}
