//! Property tests of the bundle archive: any database — failed visits,
//! idle profiles, empty databases — round-trips through
//! write-bundle → read-bundle unchanged, and a single flipped byte in a
//! segment surfaces as a checksum or framing error naming the exact
//! location.

use proptest::prelude::*;
use wmtree_bundle::segment::HEADER_LEN;
use wmtree_bundle::{BundleError, BundleMeta};
use wmtree_crawler::{read_bundle, write_bundle, CrawlDb, PageKey, VisitResult};
use wmtree_url::Url;
use wmtree_webgen::stable_hash;

/// Deterministic pseudo-random database: sites × pages × profiles with
/// per-slot presence (idle profiles), success/failure, and payload
/// variation all derived from `seed`.
fn synth_db(seed: u64, n_profiles: usize, n_sites: usize, pages_per_site: usize) -> CrawlDb {
    let mut db = CrawlDb::new(n_profiles);
    for s in 0..n_sites {
        let site = format!("site-{s}.com");
        for p in 0..pages_per_site {
            let url = format!("https://www.{site}/page/{p}");
            for profile in 0..n_profiles {
                let bits = stable_hash(seed, format!("{site}:{p}:{profile}").as_bytes());
                // Idle profile slot: one slot in eight is never visited.
                if bits.is_multiple_of(8) {
                    continue;
                }
                let mut visit = VisitResult::failed(
                    Url::parse(&url)
                        .unwrap_or_else(|e| panic!("synthetic url must parse: {url}: {e:?}")),
                );
                visit.success = bits % 4 != 1;
                visit.timed_out = bits % 16 == 2;
                // Low variation so identical payloads occur and the
                // dedup path is exercised; duration 0 keeps failures
                // byte-identical across pages.
                visit.duration_ms = if visit.success { (bits >> 8) % 3 } else { 0 };
                db.insert(
                    PageKey {
                        site: site.clone(),
                        url: url.clone(),
                    },
                    profile,
                    visit,
                );
            }
        }
    }
    db
}

fn meta_for(db: &CrawlDb, seed: u64) -> BundleMeta {
    BundleMeta {
        n_profiles: db.n_profiles(),
        profiles: (0..db.n_profiles()).map(|i| format!("P{i}")).collect(),
        experiment_seed: seed,
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wmtree-bundle-prop-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    /// write-bundle → read-bundle is the identity for arbitrary
    /// databases, including failed visits, idle profiles, and the
    /// empty database.
    #[test]
    fn bundle_roundtrip_is_identity(
        seed in 0u64..100_000,
        n_profiles in 1usize..6,
        n_sites in 0usize..4,
        pages_per_site in 1usize..4,
    ) {
        let db = synth_db(seed, n_profiles, n_sites, pages_per_site);
        let dir = tmp(&format!("rt-{seed}-{n_profiles}-{n_sites}-{pages_per_site}"));
        let manifest = write_bundle(&db, &dir, meta_for(&db, seed))
            .unwrap_or_else(|e| panic!("write_bundle failed: {e}"));
        prop_assert!(manifest.complete);
        // One checkpoint per site that actually has visits: a site whose
        // every slot came up idle never enters the database.
        let sites_present: std::collections::BTreeSet<_> =
            db.pages().map(|p| p.site.clone()).collect();
        prop_assert_eq!(manifest.checkpoints as usize, sites_present.len());
        let back = read_bundle(&dir).unwrap_or_else(|e| panic!("read_bundle failed: {e}"));
        let a = serde_json::to_string(&db).unwrap_or_else(|e| panic!("serialize: {e}"));
        let b = serde_json::to_string(&back).unwrap_or_else(|e| panic!("serialize: {e}"));
        prop_assert_eq!(a, b, "round-trip must preserve the database byte-for-byte");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping a single bit anywhere in the visit log surfaces as a
    /// checksum or framing error naming the segment and the corrupted
    /// record's number and byte offset — a flipped length prefix
    /// included, since the shifted payload fails its checksum or the
    /// length overruns the file.
    #[test]
    fn flipped_byte_names_segment_line_and_offset(
        seed in 0u64..10_000,
        victim in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let db = synth_db(seed, 3, 2, 2);
        let dir = tmp(&format!("flip-{seed}-{victim}-{bit}"));
        write_bundle(&db, &dir, meta_for(&db, seed))
            .unwrap_or_else(|e| panic!("write_bundle failed: {e}"));
        let seg = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap_or_else(|e| panic!("read segment: {e}"));
        let victim = victim % bytes.len();
        // The record the victim byte belongs to, walking the frames'
        // length prefixes.
        let (mut line_no, mut line_start) = (1, 0usize);
        loop {
            let mut len = [0u8; 4];
            len.copy_from_slice(&bytes[line_start..line_start + 4]);
            let next = line_start + HEADER_LEN + u32::from_le_bytes(len) as usize;
            if victim < next {
                break;
            }
            line_no += 1;
            line_start = next;
        }
        bytes[victim] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap_or_else(|e| panic!("write segment: {e}"));

        let err = match read_bundle(&dir) {
            Err(e) => e,
            Ok(_) => panic!("corruption must not read back cleanly"),
        };
        match err {
            BundleError::Corrupt { segment, line, offset, .. } => {
                prop_assert_eq!(segment, "visits-000.seg".to_string());
                prop_assert_eq!(line, line_no);
                prop_assert_eq!(offset, line_start as u64);
            }
            other => panic!("expected Corrupt naming the location, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
