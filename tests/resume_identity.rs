//! Crawl resume in Tier-1: a Tiny bundle recorded in one go and the
//! same crawl interrupted after two sites and then resumed leave
//! byte-identical directories and render the same report.

use std::collections::BTreeMap;
use std::path::Path;
use wmtree::{BundleRun, Experiment, ExperimentConfig, Report, Scale};

/// Every file of a bundle directory, name → bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("bundle dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("bundle file"))
        })
        .collect()
}

fn complete(run: BundleRun) -> Report {
    match run {
        BundleRun::Complete { results, .. } => Report::generate(&results),
        BundleRun::Partial { .. } => panic!("an uncapped crawl completes"),
    }
}

#[test]
fn interrupted_and_resumed_bundle_is_byte_identical() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
    let root = std::env::temp_dir().join("wmtree-resume-identity");
    let _ = std::fs::remove_dir_all(&root);
    let (straight, resumed) = (root.join("straight"), root.join("resumed"));

    let reference = complete(exp.run_to_bundle(&straight, None).expect("record"));
    match exp
        .run_to_bundle(&resumed, Some(2))
        .expect("interrupted record")
    {
        BundleRun::Partial { sites_done, .. } => assert_eq!(sites_done, 2),
        BundleRun::Complete { .. } => panic!("a two-site cap stops the Tiny crawl early"),
    }
    let report = complete(exp.run_to_bundle(&resumed, None).expect("resume"));

    let (a, b) = (dir_bytes(&straight), dir_bytes(&resumed));
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "same files"
    );
    for (name, bytes) in &a {
        assert!(bytes == &b[name], "{name} differs after resume");
    }
    assert_eq!(reference.to_json(), report.to_json());
    assert_eq!(reference.render(), report.render());
    let _ = std::fs::remove_dir_all(&root);
}
