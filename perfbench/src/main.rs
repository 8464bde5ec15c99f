//! `perfbench --workload fresh|archive|serve --seed N --seconds S --trace 0|1`
//!
//! `perfbench --catalogue` prints every metric with its unit and what it
//! measures (end-to-end) or which end-to-end metric it should move on
//! which workload (per-layer), as JSON.
//!
//! Optional: `--scale tiny|small` (fresh/archive experiment scale,
//! default small), `--work-dir DIR` (scratch space, default `.bench_work/`),
//! `--trace-dir DIR` (span files, default `.bench_trace/`).
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::path::PathBuf;
use wmtree::Scale;
use wmtree_perfbench::common::{Options, Workload};
use wmtree_perfbench::metrics::{END_TO_END, PER_LAYER};
use wmtree_perfbench::{execute, settings_json};

fn parse(args: &[String]) -> Result<Options, String> {
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?} (valid: {})",
            Workload::NAMES.join(", ")
        )
    })?;
    let seed: u64 = need("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let scale = match get("--scale") {
        None => Scale::Small,
        Some(name) => Scale::parse(name).map_err(|e| e.to_string())?,
    };
    let work_root = PathBuf::from(get("--work-dir").unwrap_or(".bench_work"));
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
        work_dir: work_root.join(format!("{}-{}", workload.name(), std::process::id())),
        trace_dir: PathBuf::from(get("--trace-dir").unwrap_or(".bench_trace")),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--catalogue") {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {:?}, \"unit\": {:?}, \"what\": {:?}}}",
                    m.name, m.unit, m.what
                )
            })
            .collect();
        let layers: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {:?}, \"unit\": {:?}, \"better\": {:?}, \"moves\": {:?}}}",
                    m.name, m.unit, m.better, m.moves
                )
            })
            .collect();
        println!(
            "{{\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
            e2e.join(",\n"),
            layers.join(",\n")
        );
        return;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            eprintln!(
                "usage: perfbench --workload fresh|archive|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match execute(&opts) {
        Ok((outcome, ops)) => {
            println!("{}", settings_json(&opts, ops));
            println!("{}", outcome.json_line(opts.trace));
        }
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(1);
        }
    }
}
