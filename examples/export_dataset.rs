//! Export a complete dataset the way the paper releases its artifacts
//! (Appendix A): the raw per-visit records as JSONL, one example visit
//! as a HAR file, the aggregated report as JSON, and every figure as
//! CSV ready for plotting.
//!
//! ```sh
//! cargo run --release --example export_dataset -- /tmp/wmtree-dataset
//! ```

use std::collections::BTreeMap;
use wmtree::analysis::ExperimentData;
use wmtree::browser::har::to_har_json;
use wmtree::crawler::{export, standard_profiles, Commander, CrawlOptions};
use wmtree::filterlist::embedded::tracking_list;
use wmtree::tree::TreeConfig;
use wmtree::webgen::{UniverseConfig, WebUniverse};
use wmtree::{Report, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "/tmp/wmtree-dataset".to_string()),
    );
    std::fs::create_dir_all(&out_dir)?;

    // Crawl.
    let scale = Scale::Tiny;
    let universe = WebUniverse::generate(UniverseConfig {
        seed: 0x2023_11ac,
        sites_per_bucket: scale.sites_per_bucket(),
        max_subpages: scale.max_pages(),
    });
    let profiles = standard_profiles();
    let names: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
    let db = Commander::new(
        &universe,
        profiles,
        CrawlOptions {
            max_pages_per_site: scale.max_pages(),
            workers: 4,
            experiment_seed: 0x1317,
            reliable: false,
            stateful: false,
        },
    )
    .run();

    // 1. Raw data: JSONL of every (page, profile) visit.
    let raw_path = out_dir.join("raw_visits.jsonl");
    let file = std::fs::File::create(&raw_path)?;
    let written = export::write_jsonl(&db, std::io::BufWriter::new(file))?;
    println!("wrote {written} visit records to {}", raw_path.display());

    // 2. One example HAR (the first vetted page, Sim1's visit).
    if let Some((page, visits)) = db.vetted_pages().into_iter().next() {
        let har_path = out_dir.join("example_visit.har");
        std::fs::write(&har_path, to_har_json(visits[1]))?;
        println!("wrote HAR of {} to {}", page.url, har_path.display());
    }

    // 3. Aggregated report (JSON) + figure CSVs.
    let site_meta: BTreeMap<String, (u32, String)> = universe
        .sites()
        .iter()
        .map(|s| (s.domain.clone(), (s.rank, s.bucket.label().to_string())))
        .collect();
    let data = ExperimentData::from_db_parallel(
        &db,
        names,
        Some(tracking_list()),
        &TreeConfig::default(),
        &site_meta,
        1,
    );
    let sims = wmtree::analysis::node_similarity::analyze_all(&data);
    let results = wmtree::ExperimentResults {
        profile_stats: db.profile_stats(),
        pages_discovered: db.page_count(),
        successful_visits: db.total_successful_visits(),
        vetted_sites: db.vetted_sites().len(),
        sims,
        data,
        manifest: wmtree::telemetry::RunManifest::new(0x1317, "export_dataset"),
    };
    let report = Report::generate(&results);
    std::fs::write(out_dir.join("report.json"), report.to_json())?;
    let csvs = report.write_csv_dir(&out_dir.join("csv"))?;
    println!("wrote report.json and {} CSV files", csvs.len());

    // 4. Round-trip check: the raw data re-imports losslessly.
    let file = std::fs::File::open(&raw_path)?;
    let back = export::read_jsonl(std::io::BufReader::new(file), db.n_profiles())?;
    assert_eq!(back.page_count(), db.page_count());
    assert_eq!(back.total_successful_visits(), db.total_successful_visits());
    println!(
        "round-trip verified: {} pages, {} successful visits",
        back.page_count(),
        back.total_successful_visits()
    );
    Ok(())
}
