//! `perfbench` — the end-to-end benchmark of the wmtree pipeline.
//!
//! Three workloads (`fresh`, `archive`, `serve`) each report the same
//! end-to-end metrics from an untraced run, and the per-layer metrics
//! from a separate traced run whose spans are recorded here, around
//! calls into the program's layers. See `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod archive;
pub mod common;
pub mod fresh;
pub mod gate;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;

use common::{Options, Run, Workload};
use metrics::Outcome;
use stats::{median, peak_rss_mb, quantile};

/// Build profile of this binary.
fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Host threads available to the pipeline.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Print a step's breakdown (layer self-times plus residual) to stderr.
pub(crate) fn print_breakdown(b: &trace::Breakdown) {
    let ms = |ns: i64| ns as f64 / 1e6;
    eprintln!(
        "[perfbench] step {:<12} wall {:>10.1} ms",
        b.step,
        ms(b.wall_ns as i64)
    );
    for (layer, ns) in &b.self_ns {
        eprintln!("[perfbench]   {layer:<22} {:>10.1} ms", ms(*ns));
    }
    eprintln!(
        "[perfbench]   {:<22} {:>10.1} ms",
        "(unattributed)",
        ms(b.unattributed_ns)
    );
}

/// The settings a result was measured under, as one JSON object.
pub fn settings_json(opts: &Options, ops: usize) -> String {
    format!(
        "{{\"settings\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"scale\": \"{}\", \"available_parallelism\": {}, \"workers\": {}, \"build_profile\": \"{}\", \
         \"operations\": {ops}, \"serve\": {{\"rate_per_s\": {}, \"connections\": {}, \"jobs\": {}, \
         \"hot_jobs\": {}, \"job_scale\": \"tiny\", \"zipf_s\": {}, \"revalidate_share\": {}, \
         \"rotation_s\": {}, \"lru_capacity\": {}}}}}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.scale.name(),
        available_parallelism(),
        opts.config().workers,
        build_profile(),
        serve::RATE,
        serve::CONNECTIONS,
        serve::JOBS,
        serve::HOT,
        serve::ZIPF_S,
        serve::REVALIDATE_SHARE,
        serve::ROTATION_S,
        wmtree_server::ServerConfig::new(".").cache_capacity,
    )
}

/// Run one workload and collect its outcome. `Err` means the run could
/// not be carried out at all (no result is printed for it).
pub fn execute(opts: &Options) -> Result<(Outcome, usize), String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let mut run = Run::new(opts);
    let result = match opts.workload {
        Workload::Fresh => fresh::run(&mut run),
        Workload::Archive => archive::run(&mut run),
        Workload::Serve => serve::run(&mut run),
    };
    let cleanup = std::fs::remove_dir_all(&opts.work_dir);
    if let Err(e) = result {
        // A step that could not complete is a failed operation; the run
        // still reports what it measured.
        run.gate.fail(e);
    }
    if let Err(e) = cleanup {
        eprintln!(
            "[perfbench] could not remove {}: {e}",
            opts.work_dir.display()
        );
    }
    run.tracer.close(run.root);

    let v = &mut run.values;
    v.set("setup_s", median(&run.setups));
    v.set("peak_rss_mb", peak_rss_mb());
    v.set("op_p50_ms", quantile(&run.ops_ms, 0.5).unwrap_or(0.0));
    v.set("op_p99_ms", quantile(&run.ops_ms, 0.99).unwrap_or(0.0));
    v.set("host.available_parallelism", available_parallelism() as f64);
    v.set("host.workers", opts.config().workers as f64);
    v.set("workload.seed", opts.seed as f64);

    if opts.trace {
        let path = opts
            .trace_dir
            .join(format!("{}-seed{}.json", opts.workload.name(), opts.seed));
        let written = std::fs::create_dir_all(&opts.trace_dir)
            .and_then(|()| std::fs::write(&path, trace::spans_json(&run.tracer.snapshot())));
        match written {
            Ok(()) => eprintln!("[perfbench] wrote spans to {}", path.display()),
            Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
        }
    }
    let ops = run.ops_ms.len();
    Ok((
        Outcome {
            correct: run.gate.correct() && (ops > 0 || opts.trace),
            attempted: run.gate.attempted,
            failed: run.gate.failed,
            values: run.values,
        },
        ops,
    ))
}
