//! Format pin: the bundle bytes a Tiny run records are fixed.
//!
//! Existing archives, shard plans (which record each shard's bundle
//! content hash) and server ETags all stay valid only while the
//! recorder writes exactly the same bytes. The constants below were
//! captured from the recorder as of format version 1; a change to any
//! of them is a format change and needs a version bump.

use wmtree::bundle::{bundle_content_hash, Manifest};
use wmtree::webgen::stable_hash;
use wmtree::{BundleRun, Experiment, ExperimentConfig, Report, Scale};

/// `bundle_content_hash` of the Tiny bundle.
const BUNDLE_CONTENT_HASH: &str = "93f36e0b9dbdacc5";

/// Every segment file of the Tiny bundle with `stable_hash(0, bytes)`.
const SEGMENTS: &[(&str, &str)] = &[
    ("objects-000.seg", "a7b0717328d9e0ff"),
    ("visits-000.seg", "e8f50fd0d4a7fd72"),
];

#[test]
fn tiny_bundle_bytes_are_pinned_and_replay_equals_fresh() {
    let exp = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny));
    let dir = std::env::temp_dir().join("wmtree-format-pin");
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = match exp.run_to_bundle(&dir, None).expect("record") {
        BundleRun::Complete { results, .. } => results,
        BundleRun::Partial { .. } => panic!("an uncapped crawl completes"),
    };

    assert_eq!(Manifest::load(&dir).expect("manifest").version, 1);
    assert_eq!(
        bundle_content_hash(&dir).expect("content hash"),
        BUNDLE_CONTENT_HASH
    );
    let mut segments: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("bundle dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "seg"))
        .map(|path| {
            let bytes = std::fs::read(&path).expect("segment");
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, format!("{:016x}", stable_hash(0, &bytes)))
        })
        .collect();
    segments.sort();
    let pinned: Vec<(String, String)> = SEGMENTS
        .iter()
        .map(|(name, hash)| (name.to_string(), hash.to_string()))
        .collect();
    assert_eq!(segments, pinned);

    let replayed = exp.replay_from_bundle(&dir).expect("replay");
    let (fresh, replayed) = (Report::generate(&fresh), Report::generate(&replayed));
    assert_eq!(fresh.to_json(), replayed.to_json());
    assert_eq!(fresh.render(), replayed.render());
}
