//! [`CrawlDb`] ⇄ bundle conversions.
//!
//! A finished database can be archived as a complete bundle
//! ([`write_bundle`]) and a bundle — complete or partial — can be
//! rebuilt into a database ([`read_bundle`]). Both directions preserve
//! every `(page, profile)` visit exactly: the round-trip is the
//! identity (proven by property tests in `tests/`).

use crate::db::{CrawlDb, PageKey};
use std::path::Path;
use wmtree_bundle::{BundleError, BundleMeta, BundleReader, BundleWriter, EncodedObject, Manifest};

/// A database's visits encoded for the bundle, in canonical append
/// order: pages in `(site, url)` order, profiles in index order — the
/// same order [`crate::export::write_jsonl`] uses, so archives are
/// deterministic. The crawl workers call this on their own shard, so
/// the coordinating writer only dedups and appends.
pub(crate) fn encode_visits(db: &CrawlDb) -> Vec<(String, usize, EncodedObject)> {
    let mut out = Vec::new();
    for page in db.pages() {
        for profile in 0..db.n_profiles() {
            if let Some(visit) = db.visit_any(page, profile) {
                out.push((page.url.clone(), profile, EncodedObject::encode(visit)));
            }
        }
    }
    out
}

/// Archive a database as a complete bundle at `dir` (one checkpoint per
/// site, sites in lexicographic order). Fails if `dir` already holds a
/// bundle.
pub fn write_bundle(db: &CrawlDb, dir: &Path, meta: BundleMeta) -> Result<Manifest, BundleError> {
    let _span = wmtree_telemetry::span("bundle.write_db");
    let mut writer = BundleWriter::create(dir, meta)?;
    let pages: Vec<PageKey> = db.pages().cloned().collect();
    let mut i = 0;
    while i < pages.len() {
        // Pages of one site are contiguous in (site, url) order.
        let site = pages[i].site.clone();
        let mut j = i;
        while j < pages.len() && pages[j].site == site {
            j += 1;
        }
        let mut visits = Vec::new();
        for page in &pages[i..j] {
            for profile in 0..db.n_profiles() {
                if let Some(visit) = db.visit_any(page, profile) {
                    visits.push((page.url.clone(), profile, visit));
                }
            }
        }
        writer.append_site(&site, visits)?;
        i = j;
    }
    writer.finish()
}

/// Rebuild a database from a bundle, decoding on every available core.
/// Each payload is moved into the database on its last reference, so
/// the archive is never held twice. Works on partial bundles too —
/// they rebuild the checkpointed prefix.
pub fn read_bundle(dir: &Path) -> Result<CrawlDb, BundleError> {
    read_bundle_with(dir, wmtree_telemetry::par::available_workers())
}

/// [`read_bundle`] on an explicit number of decode workers.
pub(crate) fn read_bundle_with(dir: &Path, workers: usize) -> Result<CrawlDb, BundleError> {
    let _span = wmtree_telemetry::span("bundle.read_db");
    let reader = BundleReader::open(dir)?;
    let mut db = CrawlDb::new(reader.manifest().meta.n_profiles);
    for bv in reader.read_visits(workers)? {
        // The reader verified the content address against the stored
        // bytes, so the hash is vouched-for: downstream tree caching
        // keys off it without re-hashing.
        db.insert_hashed(
            PageKey {
                site: bv.site,
                url: bv.url,
            },
            bv.profile,
            bv.visit,
            bv.object,
        );
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::standard_profiles;
    use crate::{Commander, CrawlOptions};
    use wmtree_bundle::segment::{frame_header, HEADER_LEN};
    use wmtree_bundle::{verify_bundle, VerifyIssue};
    use wmtree_webgen::{UniverseConfig, WebUniverse};

    fn small_db() -> CrawlDb {
        let u = WebUniverse::generate(UniverseConfig {
            seed: 81,
            sites_per_bucket: [2, 1, 1, 1, 1],
            max_subpages: 3,
        });
        Commander::new(
            &u,
            standard_profiles(),
            CrawlOptions {
                max_pages_per_site: 3,
                workers: 1,
                experiment_seed: 5,
                reliable: false,
                stateful: false,
            },
        )
        .run()
    }

    fn meta() -> BundleMeta {
        BundleMeta {
            n_profiles: 5,
            profiles: standard_profiles().iter().map(|p| p.name.clone()).collect(),
            experiment_seed: 5,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-crawler-bundle-io-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn db_roundtrips_through_bundle() {
        let db = small_db();
        let dir = tmp("roundtrip");
        let manifest = write_bundle(&db, &dir, meta()).unwrap();
        assert!(manifest.complete);
        assert!(manifest.dedup_hits > 0, "failure records should dedup");
        let a = serde_json::to_string(&db).unwrap();
        for workers in [1, 2, 8] {
            let back = read_bundle_with(&dir, workers).unwrap();
            let b = serde_json::to_string(&back).unwrap();
            assert_eq!(
                a, b,
                "bundle round-trip must be the identity (workers={workers})"
            );
        }
    }

    #[test]
    fn bundle_matches_jsonl_record_count() {
        let db = small_db();
        let dir = tmp("counts");
        let manifest = write_bundle(&db, &dir, meta()).unwrap();
        let mut buf = Vec::new();
        let jsonl_records = crate::export::write_jsonl(&db, &mut buf).unwrap();
        assert_eq!(manifest.visit_records as usize, jsonl_records);
    }

    /// `(segment, line, offset)` of a located defect.
    type Loc = (String, usize, u64);

    fn error_loc(e: &BundleError) -> Loc {
        match e {
            BundleError::Corrupt {
                segment,
                line,
                offset,
                ..
            }
            | BundleError::DanglingObject {
                segment,
                line,
                offset,
                ..
            } => (segment.clone(), *line, *offset),
            other => panic!("expected a located error, got {other}"),
        }
    }

    fn issue_loc(issue: &VerifyIssue) -> Option<Loc> {
        match issue {
            VerifyIssue::Corrupt {
                segment,
                line,
                offset,
                ..
            }
            | VerifyIssue::DanglingObject {
                segment,
                line,
                offset,
                ..
            } => Some((segment.clone(), *line, *offset)),
            _ => None,
        }
    }

    /// The defect each entry point reports first: `read_bundle` on 1,
    /// 2 and 8 workers, `BundleWriter::resume`, and the first located
    /// issue of `verify_bundle`.
    fn reported(dir: &Path) -> Vec<Loc> {
        let mut out = Vec::new();
        for workers in [1, 2, 8] {
            out.push(error_loc(&read_bundle_with(dir, workers).unwrap_err()));
        }
        out.push(error_loc(&BundleWriter::resume(dir, meta()).unwrap_err()));
        let report = verify_bundle(dir).unwrap();
        out.push(
            report
                .issues
                .iter()
                .find_map(issue_loc)
                .expect("verify locates it"),
        );
        out
    }

    /// `(offset, length)` of every record frame in a segment's bytes,
    /// walking the length prefixes.
    fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let mut len = [0u8; 4];
            len.copy_from_slice(&bytes[at..at + 4]);
            let frame = HEADER_LEN + u32::from_le_bytes(len) as usize;
            out.push((at, frame));
            at += frame;
        }
        out
    }

    fn loc(dir: &Path, segment: &str, line: usize) -> Loc {
        let bytes = std::fs::read(dir.join(segment)).unwrap();
        let offset = frames(&bytes)[line - 1].0 as u64;
        (segment.to_string(), line, offset)
    }

    fn flip_byte(dir: &Path, segment: &str, line: usize) {
        let (_, _, offset) = loc(dir, segment, line);
        let path = dir.join(segment);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset as usize + 20] ^= 1;
        std::fs::write(&path, bytes).unwrap();
    }

    /// Rewrite one record's payload, then re-frame the record and
    /// re-chain the segment in the manifest: only the content is wrong.
    fn rewrite_payload(
        dir: &Path,
        segment: &str,
        line: usize,
        edit: impl FnOnce(&[u8]) -> Vec<u8>,
    ) {
        use wmtree_bundle::hash::{chain_fold, chain_start, to_hex};
        let path = dir.join(segment);
        let bytes = std::fs::read(&path).unwrap();
        let (at, len) = frames(&bytes)[line - 1];
        let payload = edit(&bytes[at + HEADER_LEN..at + len]);
        let mut body = bytes[..at].to_vec();
        body.extend_from_slice(&frame_header(&payload).unwrap());
        body.extend_from_slice(&payload);
        body.extend_from_slice(&bytes[at + len..]);
        let chain = frames(&body).iter().fold(chain_start(), |c, &(at, _)| {
            chain_fold(c, &body[at..at + HEADER_LEN])
        });
        std::fs::write(&path, body).unwrap();
        let mut manifest = Manifest::load(dir).unwrap();
        for m in manifest
            .visit_segments
            .iter_mut()
            .chain(manifest.object_segments.iter_mut())
        {
            if m.name == segment {
                m.chain = to_hex(chain);
            }
        }
        manifest.store(dir).unwrap();
    }

    fn readdress(dir: &Path, segment: &str, line: usize) {
        rewrite_payload(dir, segment, line, |p| {
            let mut p = p.to_vec();
            let last = p.len() - 1;
            p[last] ^= 1;
            p
        });
    }

    const OBJECTS: &str = "objects-000.seg";
    const VISITS: &str = "visits-000.seg";

    #[test]
    fn corruption_matrix_reports_one_location_everywhere() {
        let db = small_db();
        type Corrupt = fn(&Path) -> Loc;
        let cases: [(&str, Corrupt); 4] = [
            ("flipped-byte", |dir| {
                flip_byte(dir, OBJECTS, 3);
                loc(dir, OBJECTS, 3)
            }),
            ("readdressed", |dir| {
                readdress(dir, OBJECTS, 3);
                loc(dir, OBJECTS, 3)
            }),
            ("malformed-framing", |dir| {
                rewrite_payload(dir, OBJECTS, 3, |p| p[..4].to_vec());
                loc(dir, OBJECTS, 3)
            }),
            ("dangling", |dir| {
                rewrite_payload(dir, VISITS, 2, |p| {
                    let object = p.len() - 8;
                    let mut p = p[..object].to_vec();
                    p.extend_from_slice(&0x0123_4567_89ab_cdef_u64.to_le_bytes());
                    p
                });
                loc(dir, VISITS, 2)
            }),
        ];
        for (name, corrupt) in cases {
            let dir = tmp(&format!("matrix-{name}"));
            write_bundle(&db, &dir, meta()).unwrap();
            let expected = corrupt(&dir);
            for got in reported(&dir) {
                assert_eq!(got, expected, "{name}");
            }
        }
    }

    #[test]
    fn first_of_two_corruptions_wins_for_any_worker_count() {
        let db = small_db();
        // A decode defect before a framing defect, and the reverse: the
        // earlier line is reported either way.
        type Corrupt = fn(&Path, usize);
        let pairs: [(&str, Corrupt, Corrupt); 2] = [
            (
                "decode-then-frame",
                |d, l| readdress(d, OBJECTS, l),
                |d, l| flip_byte(d, OBJECTS, l),
            ),
            (
                "frame-then-decode",
                |d, l| flip_byte(d, OBJECTS, l),
                |d, l| readdress(d, OBJECTS, l),
            ),
        ];
        for (name, first, second) in pairs {
            let dir = tmp(&format!("two-{name}"));
            write_bundle(&db, &dir, meta()).unwrap();
            second(&dir, 5);
            first(&dir, 2);
            let expected = loc(&dir, OBJECTS, 2);
            for got in reported(&dir) {
                assert_eq!(got, expected, "{name}");
            }
        }
    }
}
