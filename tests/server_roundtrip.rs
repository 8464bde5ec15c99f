//! Server round trip in Tier-1: a Tiny job submitted over HTTP runs to
//! `Done`; its served report is the offline render, its ETag the job
//! bundle's content hash, and a revalidation with that ETag is a 304.

#[path = "../crates/server/tests/common/mod.rs"]
mod common;

use common::{get, request, scratch};
use wmtree::bundle::bundle_content_hash;
use wmtree::{Experiment, ExperimentConfig, Report, Scale};
use wmtree_server::{JobRecord, JobState, Server, ServerConfig};

fn job_record(addr: std::net::SocketAddr, id: usize) -> JobRecord {
    let resp = get(addr, &format!("/jobs/{id}"));
    assert_eq!(resp.status, 200, "{}", resp.text());
    serde_json::from_str(&resp.text()).expect("job record json")
}

#[test]
fn tiny_job_serves_the_offline_report_under_its_bundle_etag() {
    let root = scratch("root-roundtrip");
    let handle = Server::start(ServerConfig::new(&root)).expect("start server");
    let addr = handle.addr();

    let resp = request(addr, "POST", "/jobs", &[], br#"{"scale": "tiny"}"#);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let job: JobRecord = serde_json::from_str(&resp.text()).expect("job json");

    // Poll to `Done`: at most 4800 × 25 ms, counted in iterations.
    let mut done = None;
    for _ in 0..4800 {
        let record = job_record(addr, job.id);
        assert_ne!(record.state, JobState::Failed, "{record:?}");
        if record.state == JobState::Done {
            done = Some(record);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let done = done.expect("job reaches Done");

    let path = format!("/jobs/{}/report", job.id);
    let resp = get(addr, &path);
    assert_eq!(resp.status, 200, "{}", resp.text());
    let offline = Report::generate(&Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run());
    assert_eq!(resp.text(), offline.render(), "served report drifted");

    let hash = bundle_content_hash(&root.join(&done.dir)).expect("bundle hash");
    let etag = format!("\"{hash}\"");
    assert_eq!(resp.header("etag"), Some(etag.as_str()));

    let resp = request(addr, "GET", &path, &[("If-None-Match", &etag)], b"");
    assert_eq!(resp.status, 304);
    assert!(resp.body.is_empty());

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
