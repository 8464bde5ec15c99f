//! Full structural verification of a bundle — the machinery behind
//! `wmtree-lint check-artifacts` on bundle directories and the CI
//! integrity gate.
//!
//! Unlike the fail-fast reader, verification is *lenient*: it walks
//! everything it can and collects every defect it finds, so one flipped
//! byte does not hide an unrelated dangling reference further on.

use crate::error::BundleError;
use crate::hash::{chain_fold, chain_start, from_hex, to_hex};
use crate::manifest::{Manifest, SegmentMeta};
use crate::record::{decode_object, decode_record, Record};
use crate::segment::{decode_line, verify_line, RecordLoc};
use crate::writer::{OBJECTS_PREFIX, VISITS_PREFIX};
use std::collections::BTreeSet;
use std::io::BufRead;
use std::path::Path;

/// One defect found by [`verify_bundle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyIssue {
    /// A record failed its checksum or could not be parsed.
    Corrupt {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
        /// Byte offset of the record start.
        offset: u64,
        /// What exactly is wrong.
        detail: String,
    },
    /// The manifest disagrees with a segment (count, chain, or
    /// checkpoint structure).
    ManifestMismatch {
        /// Segment file name (or log prefix for whole-log counts).
        segment: String,
        /// What exactly disagrees.
        detail: String,
    },
    /// A visit record references an object the store never recorded.
    DanglingObject {
        /// Segment file name of the referencing record.
        segment: String,
        /// One-based line number of the referencing record.
        line: usize,
        /// Byte offset of the referencing record start.
        offset: u64,
        /// The unresolvable content hash (hex).
        object: String,
    },
    /// A stored object is never referenced by any visit record.
    OrphanObject {
        /// The unreferenced content hash (hex).
        object: String,
    },
    /// A visit record's profile index exceeds the manifest's count.
    ProfileOutOfRange {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
        /// The offending profile index.
        profile: usize,
    },
    /// Bytes past the manifest-committed region (an interrupted run's
    /// uncommitted leftovers; harmless, removed on resume).
    TrailingBytes {
        /// Segment file name.
        segment: String,
        /// How many uncommitted bytes follow the committed region.
        bytes: u64,
    },
    /// The bundle is a partial (resumable) crawl, not a finished run.
    Incomplete,
}

impl std::fmt::Display for VerifyIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyIssue::Corrupt {
                segment,
                line,
                offset,
                detail,
            } => write!(f, "{segment} line {line} (byte offset {offset}): {detail}"),
            VerifyIssue::ManifestMismatch { segment, detail } => {
                write!(f, "manifest vs {segment}: {detail}")
            }
            VerifyIssue::DanglingObject {
                segment,
                line,
                offset,
                object,
            } => write!(
                f,
                "{segment} line {line} (byte offset {offset}): dangling object reference {object}"
            ),
            VerifyIssue::OrphanObject { object } => {
                write!(f, "object {object} is stored but never referenced")
            }
            VerifyIssue::ProfileOutOfRange {
                segment,
                line,
                profile,
            } => write!(
                f,
                "{segment} line {line}: profile index {profile} out of range"
            ),
            VerifyIssue::TrailingBytes { segment, bytes } => {
                write!(
                    f,
                    "{segment}: {bytes} uncommitted byte(s) past the committed region"
                )
            }
            VerifyIssue::Incomplete => write!(f, "bundle is a partial crawl (complete = false)"),
        }
    }
}

/// The outcome of [`verify_bundle`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Every defect found, in scan order.
    pub issues: Vec<VerifyIssue>,
    /// Visit records actually present and parseable.
    pub visit_records: u64,
    /// Checkpoint records actually present.
    pub checkpoints: u64,
    /// Unique objects actually present.
    pub objects: u64,
    /// Whether the manifest marks the bundle complete.
    pub complete: bool,
}

impl VerifyReport {
    /// No integrity defects. [`VerifyIssue::Incomplete`] and
    /// [`VerifyIssue::TrailingBytes`] are *states*, not corruption, and
    /// do not count against cleanliness.
    pub fn is_clean(&self) -> bool {
        self.issues.iter().all(|i| {
            matches!(
                i,
                VerifyIssue::Incomplete | VerifyIssue::TrailingBytes { .. }
            )
        })
    }
}

impl VerifyIssue {
    /// The issue a located record defect from the shared decoders
    /// ([`decode_object`], [`decode_record`]) stands for.
    fn corrupt(e: BundleError) -> VerifyIssue {
        match e {
            BundleError::Corrupt {
                segment,
                line,
                offset,
                detail,
            } => VerifyIssue::Corrupt {
                segment,
                line,
                offset,
                detail,
            },
            other => VerifyIssue::ManifestMismatch {
                segment: String::new(),
                detail: other.to_string(),
            },
        }
    }
}

/// Lenient scan of one segment log. Feeds each checksum-clean payload
/// (even after earlier corrupt lines) to `on_payload` with its
/// location.
fn scan_log(
    dir: &Path,
    metas: &[SegmentMeta],
    issues: &mut Vec<VerifyIssue>,
    mut on_payload: impl FnMut(RecordLoc, &str, &mut Vec<VerifyIssue>),
) -> Result<(), BundleError> {
    for meta in metas {
        let path = dir.join(&meta.name);
        let file = std::fs::File::open(&path).map_err(|e| BundleError::io(&path, e))?;
        let mut reader = std::io::BufReader::new(file);
        let mut offset: u64 = 0;
        let mut chain = chain_start();
        let mut ended_early = false;
        for line_no in 1..=meta.records as usize {
            let mut buf = Vec::new();
            let read = reader
                .read_until(b'\n', &mut buf)
                .map_err(|e| BundleError::io(&path, e))?;
            if read == 0 {
                issues.push(VerifyIssue::ManifestMismatch {
                    segment: meta.name.clone(),
                    detail: format!(
                        "file ends after {} record(s), manifest declares {}",
                        line_no - 1,
                        meta.records
                    ),
                });
                ended_early = true;
                break;
            }
            wmtree_telemetry::counter!("bundle.bytes.read").add(read as u64);
            let trimmed = buf.strip_suffix(b"\n").unwrap_or(&buf);
            chain = chain_fold(chain, trimmed);
            let loc = RecordLoc {
                segment: meta.name.clone(),
                line: line_no,
                offset,
            };
            match decode_line(&buf).and_then(verify_line) {
                Ok(payload) => on_payload(loc, payload, issues),
                Err(detail) => issues.push(VerifyIssue::Corrupt {
                    segment: loc.segment,
                    line: loc.line,
                    offset: loc.offset,
                    detail,
                }),
            }
            offset += read as u64;
        }
        if !ended_early {
            if to_hex(chain) != meta.chain {
                issues.push(VerifyIssue::ManifestMismatch {
                    segment: meta.name.clone(),
                    detail: format!(
                        "segment chain is {}, manifest declares {}",
                        to_hex(chain),
                        meta.chain
                    ),
                });
            }
            let len = std::fs::metadata(&path)
                .map_err(|e| BundleError::io(&path, e))?
                .len();
            if len > offset {
                issues.push(VerifyIssue::TrailingBytes {
                    segment: meta.name.clone(),
                    bytes: len - offset,
                });
            }
        }
    }
    Ok(())
}

/// Verify a bundle end to end: per-record checksums, per-segment chains
/// against the manifest, object-store content addresses, referential
/// integrity (no dangling references), orphan detection, checkpoint
/// structure, and count agreement. I/O failures (unreadable files) are
/// `Err`; every *integrity* defect lands in the report.
pub fn verify_bundle(dir: &Path) -> Result<VerifyReport, BundleError> {
    let _span = wmtree_telemetry::span("bundle.verify");
    let manifest = Manifest::load(dir)?;
    let mut report = VerifyReport {
        complete: manifest.complete,
        ..VerifyReport::default()
    };
    if !manifest.complete {
        report.issues.push(VerifyIssue::Incomplete);
    }

    // Pass 1 — object store: content addresses and duplicates.
    let mut stored: BTreeSet<u64> = BTreeSet::new();
    let mut issues = std::mem::take(&mut report.issues);
    scan_log(
        dir,
        &manifest.object_segments,
        &mut issues,
        |loc, payload, issues| match decode_object(&loc, payload) {
            Ok((hash, _)) => {
                if !stored.insert(hash) {
                    issues.push(VerifyIssue::corrupt(loc.corrupt(format!(
                        "duplicate object {} defeats content addressing",
                        to_hex(hash)
                    ))));
                }
            }
            Err(e) => issues.push(VerifyIssue::corrupt(e)),
        },
    )?;
    report.objects = stored.len() as u64;

    // Pass 2 — visit log: structure, references, checkpoint shape.
    let mut referenced: BTreeSet<u64> = BTreeSet::new();
    let mut visit_records: u64 = 0;
    let mut checkpoints: u64 = 0;
    let mut pending_since_checkpoint: u64 = 0;
    let n_profiles = manifest.meta.n_profiles;
    scan_log(
        dir,
        &manifest.visit_segments,
        &mut issues,
        |loc, payload, issues| {
            let record = match decode_record(&loc, payload) {
                Ok(r) => r,
                Err(e) => {
                    issues.push(VerifyIssue::corrupt(e));
                    return;
                }
            };
            match record {
                Record::Visit(vr) => {
                    visit_records += 1;
                    pending_since_checkpoint += 1;
                    if vr.profile >= n_profiles {
                        issues.push(VerifyIssue::ProfileOutOfRange {
                            segment: loc.segment.clone(),
                            line: loc.line,
                            profile: vr.profile,
                        });
                    }
                    match from_hex(&vr.object) {
                        Some(hash) => {
                            if stored.contains(&hash) {
                                referenced.insert(hash);
                            } else {
                                issues.push(VerifyIssue::DanglingObject {
                                    segment: loc.segment,
                                    line: loc.line,
                                    offset: loc.offset,
                                    object: vr.object,
                                });
                            }
                        }
                        None => issues.push(VerifyIssue::corrupt(
                            loc.corrupt(format!("malformed object hash `{}`", vr.object)),
                        )),
                    }
                }
                Record::Checkpoint(_) => {
                    checkpoints += 1;
                    pending_since_checkpoint = 0;
                }
            }
        },
    )?;
    report.visit_records = visit_records;
    report.checkpoints = checkpoints;
    if pending_since_checkpoint > 0 {
        issues.push(VerifyIssue::ManifestMismatch {
            segment: VISITS_PREFIX.to_string(),
            detail: format!(
                "{pending_since_checkpoint} committed visit record(s) after the last checkpoint"
            ),
        });
    }
    for (field, declared, actual) in [
        ("visit_records", manifest.visit_records, visit_records),
        ("checkpoints", manifest.checkpoints, checkpoints),
    ] {
        if declared != actual {
            issues.push(VerifyIssue::ManifestMismatch {
                segment: VISITS_PREFIX.to_string(),
                detail: format!("manifest declares {declared} {field}, log holds {actual}"),
            });
        }
    }
    if manifest.objects != report.objects {
        issues.push(VerifyIssue::ManifestMismatch {
            segment: OBJECTS_PREFIX.to_string(),
            detail: format!(
                "manifest declares {} unique objects, store holds {}",
                manifest.objects, report.objects
            ),
        });
    }
    for orphan in stored.difference(&referenced) {
        issues.push(VerifyIssue::OrphanObject {
            object: to_hex(*orphan),
        });
    }
    report.issues = issues;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::BundleMeta;
    use crate::writer::BundleWriter;
    use std::path::PathBuf;
    use wmtree_browser::VisitResult;
    use wmtree_url::Url;

    fn meta() -> BundleMeta {
        BundleMeta {
            n_profiles: 2,
            profiles: vec!["A".into(), "B".into()],
            experiment_seed: 7,
        }
    }

    fn visit(n: u64) -> VisitResult {
        let mut v = VisitResult::failed(Url::parse("https://www.a.com/").unwrap());
        v.duration_ms = n;
        v
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-bundle-verify-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_small(dir: &Path, finish: bool) {
        let mut w = BundleWriter::create(dir, meta()).unwrap();
        let (va, vb) = (visit(1), visit(2));
        w.append_site(
            "a.com",
            vec![
                ("https://www.a.com/".to_string(), 0, &va),
                ("https://www.a.com/".to_string(), 1, &vb),
            ],
        )
        .unwrap();
        if finish {
            w.finish().unwrap();
        } else {
            w.suspend().unwrap();
        }
    }

    #[test]
    fn finished_bundle_is_clean() {
        let dir = tmp("clean");
        write_small(&dir, true);
        let report = verify_bundle(&dir).unwrap();
        assert!(report.issues.is_empty(), "{:?}", report.issues);
        assert!(report.is_clean());
        assert_eq!(report.visit_records, 2);
        assert_eq!(report.checkpoints, 1);
        assert_eq!(report.objects, 2);
    }

    #[test]
    fn partial_bundle_reports_incomplete_but_clean() {
        let dir = tmp("partial");
        write_small(&dir, false);
        let report = verify_bundle(&dir).unwrap();
        assert_eq!(report.issues, vec![VerifyIssue::Incomplete]);
        assert!(report.is_clean());
    }

    #[test]
    fn flipped_byte_reports_corrupt_and_chain_mismatch() {
        let dir = tmp("flip");
        write_small(&dir, true);
        let seg = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[25] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();
        let report = verify_bundle(&dir).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, VerifyIssue::Corrupt { segment, line: 1, .. } if segment == "visits-000.seg")),
            "{:?}", report.issues);
        // The chain no longer matches either — both defects reported.
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, VerifyIssue::ManifestMismatch { .. })));
    }

    #[test]
    fn orphan_object_detected() {
        let dir = tmp("orphan");
        // The writer never stores an unreferenced object, so append a
        // correctly framed object entry by hand and bump the manifest.
        write_small(&dir, true);
        let mut manifest = Manifest::load(&dir).unwrap();
        let entry = crate::record::EncodedObject::encode(&visit(99))
            .unwrap()
            .entry;
        let line = format!(
            "{} {entry}",
            to_hex(crate::hash::line_checksum(entry.as_bytes()))
        );
        let seg = dir.join("objects-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        std::fs::write(&seg, &bytes).unwrap();
        let m = manifest.object_segments.last_mut().unwrap();
        m.chain = to_hex(chain_fold(from_hex(&m.chain).unwrap(), line.as_bytes()));
        m.records += 1;
        manifest.objects += 1;
        manifest.store(&dir).unwrap();

        let report = verify_bundle(&dir).unwrap();
        assert!(
            report
                .issues
                .iter()
                .any(|i| matches!(i, VerifyIssue::OrphanObject { .. })),
            "{:?}",
            report.issues
        );
    }

    #[test]
    fn dangling_reference_detected() {
        let dir = tmp("dangling");
        write_small(&dir, true);
        // Drop the object store from the manifest: both references dangle.
        let mut manifest = Manifest::load(&dir).unwrap();
        manifest.object_segments.clear();
        manifest.objects = 0;
        manifest.store(&dir).unwrap();
        let report = verify_bundle(&dir).unwrap();
        assert_eq!(
            report
                .issues
                .iter()
                .filter(|i| matches!(i, VerifyIssue::DanglingObject { .. }))
                .count(),
            2,
            "{:?}",
            report.issues
        );
    }
}
