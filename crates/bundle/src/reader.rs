//! [`BundleReader`] — verifying archive playback.
//!
//! Playback runs every committed record through one pipeline, shared
//! by [`BundleReader::read_visits`] and [`BundleWriter::resume`]:
//!
//! 1. **Frame.** Each segment is read sequentially by a [`LogStream`]:
//!    line checksums, the per-segment chain the manifest pins, and the
//!    `bundle.bytes.read` counter (span `bundle.read.frame`).
//! 2. **Decode.** Framed records are decoded in bounded batches — at
//!    most `DECODE_BATCH_BYTES` (16 MiB) of raw records in flight,
//!    never a whole segment — through the workspace's slot-per-item
//!    [`par_map_min`] (span `bundle.read.decode`). Objects go through
//!    [`decode_object`], which verifies each content address against
//!    the stored bytes.
//! 3. **Move.** The small visit log is decoded first, so every
//!    object's reference count is known before its payload is decoded.
//!    Resolving visits in log order then moves each payload out on its
//!    last reference instead of cloning it: the archive is held once.
//!
//! The first defect ends playback with an error naming its location.
//! "First" is in log order — visit log, then object log, then dangling
//! references — whatever the worker count or batch boundaries.
//!
//! [`BundleWriter::resume`]: crate::BundleWriter::resume

use crate::error::BundleError;
use crate::hash::from_hex;
use crate::manifest::{Manifest, SegmentMeta};
use crate::record::{decode_object, decode_record, BundleVisit, Record, VisitRef};
use crate::segment::{LogStream, RecordLoc};
use crate::writer::{OBJECTS_PREFIX, VISITS_PREFIX};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use wmtree_browser::VisitResult;
use wmtree_telemetry::par::par_map_min;

/// Raw record bytes one decode batch may hold. Bounds the reader's
/// transient memory independently of segment size.
const DECODE_BATCH_BYTES: usize = 16 << 20;

/// Per-worker record floor of a decode batch: one object record is
/// tens of kilobytes of JSON, so a handful already amortizes a spawn.
const MIN_RECORDS_PER_WORKER: usize = 8;

/// Verifying reader over a bundle directory.
#[derive(Debug)]
pub struct BundleReader {
    dir: PathBuf,
    manifest: Manifest,
}

impl BundleReader {
    /// Open a bundle: load and version-check its manifest. Record
    /// verification happens in [`read_visits`](BundleReader::read_visits).
    pub fn open(dir: &Path) -> Result<BundleReader, BundleError> {
        let manifest = Manifest::load(dir)?;
        Ok(BundleReader {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The bundle's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Verify every committed record and resolve every checkpointed
    /// visit, in log order, decoding on up to `workers` threads. The
    /// result is identical for any worker count — including which
    /// error is reported when the archive holds several defects.
    pub fn read_visits(&self, workers: usize) -> Result<Vec<BundleVisit>, BundleError> {
        Ok(play(&self.dir, &self.manifest, workers)?.visits)
    }
}

/// Everything a verified playback of a bundle's committed records
/// yields.
#[derive(Debug)]
pub(crate) struct Playback {
    /// Every checkpointed visit, payload resolved, in log order.
    pub(crate) visits: Vec<BundleVisit>,
    /// Checkpointed sites.
    pub(crate) sites: BTreeSet<String>,
    /// Content addresses of every stored object (the dedup index).
    pub(crate) objects: BTreeSet<u64>,
    /// Committed byte length of each visit-log segment.
    pub(crate) visit_bytes: Vec<u64>,
    /// Committed byte length of each object-log segment.
    pub(crate) object_bytes: Vec<u64>,
}

/// Play back the records `manifest` commits. See the module docs.
pub(crate) fn play(
    dir: &Path,
    manifest: &Manifest,
    workers: usize,
) -> Result<Playback, BundleError> {
    // Visit log: references plus checkpoint structure. The committed
    // region ends at a checkpoint — the manifest is only ever stored
    // right after one.
    let n_profiles = manifest.meta.n_profiles;
    let mut refs: Vec<(RecordLoc, VisitRef, u64)> = Vec::new();
    let mut sites = BTreeSet::new();
    let mut checkpoints: u64 = 0;
    let mut since_checkpoint: u64 = 0;
    let visit_bytes = decode_log(
        dir,
        &manifest.visit_segments,
        workers,
        decode_record,
        |loc, record| {
            match record {
                Record::Visit(vr) => {
                    if vr.profile >= n_profiles {
                        return Err(loc.corrupt(format!(
                            "profile index {} out of range (bundle has {n_profiles} profiles)",
                            vr.profile
                        )));
                    }
                    let hash = from_hex(&vr.object).ok_or_else(|| {
                        loc.corrupt(format!("malformed object hash `{}`", vr.object))
                    })?;
                    refs.push((loc, vr, hash));
                    since_checkpoint += 1;
                }
                Record::Checkpoint(cp) => {
                    sites.insert(cp.site);
                    checkpoints += 1;
                    since_checkpoint = 0;
                }
            }
            Ok(())
        },
    )?;
    if since_checkpoint > 0 {
        return Err(BundleError::ManifestMismatch {
            segment: VISITS_PREFIX.to_string(),
            detail: format!(
                "{since_checkpoint} committed visit record(s) after the last checkpoint"
            ),
        });
    }
    let visit_records = refs.len() as u64;
    if checkpoints != manifest.checkpoints || visit_records != manifest.visit_records {
        return Err(BundleError::ManifestMismatch {
            segment: VISITS_PREFIX.to_string(),
            detail: format!(
                "manifest declares {} checkpoint(s) / {} visit record(s), \
                 log holds {checkpoints} / {visit_records}",
                manifest.checkpoints, manifest.visit_records
            ),
        });
    }

    // Object log: every object is verified; only referenced payloads
    // are kept.
    let mut uses: BTreeMap<u64, usize> = BTreeMap::new();
    for (_, _, hash) in &refs {
        *uses.entry(*hash).or_default() += 1;
    }
    let mut objects = BTreeSet::new();
    let mut payloads: BTreeMap<u64, VisitResult> = BTreeMap::new();
    let object_bytes = decode_log(
        dir,
        &manifest.object_segments,
        workers,
        decode_object,
        |_, (hash, visit)| {
            objects.insert(hash);
            if uses.contains_key(&hash) {
                payloads.insert(hash, visit);
            }
            Ok(())
        },
    )?;
    if objects.len() as u64 != manifest.objects {
        return Err(BundleError::ManifestMismatch {
            segment: OBJECTS_PREFIX.to_string(),
            detail: format!(
                "manifest declares {} unique objects, store holds {}",
                manifest.objects,
                objects.len()
            ),
        });
    }

    // Resolve in log order, moving each payload on its last reference.
    let mut visits = Vec::with_capacity(refs.len());
    for (loc, vr, hash) in refs {
        let left = uses.entry(hash).or_default();
        *left = left.saturating_sub(1);
        let visit = if *left == 0 {
            payloads.remove(&hash)
        } else {
            payloads.get(&hash).cloned()
        };
        let Some(visit) = visit else {
            return Err(BundleError::DanglingObject {
                segment: loc.segment,
                line: loc.line,
                offset: loc.offset,
                object: vr.object,
            });
        };
        visits.push(BundleVisit {
            site: vr.site,
            url: vr.url,
            profile: vr.profile,
            object: hash,
            visit,
        });
    }
    Ok(Playback {
        visits,
        sites,
        objects,
        visit_bytes,
        object_bytes,
    })
}

/// Frame the log `metas` describes sequentially and decode its records
/// in parallel batches of at most [`DECODE_BATCH_BYTES`], feeding each
/// decoded record to `sink` in log order. A framing defect is reported
/// only after the records framed before it decode cleanly, so the
/// first error in log order wins. Returns each segment's committed
/// byte length.
fn decode_log<T: Send>(
    dir: &Path,
    metas: &[SegmentMeta],
    workers: usize,
    decode: impl Fn(&RecordLoc, &str) -> Result<T, BundleError> + Sync,
    mut sink: impl FnMut(RecordLoc, T) -> Result<(), BundleError>,
) -> Result<Vec<u64>, BundleError> {
    let mut stream = LogStream::open(dir, metas);
    loop {
        let mut batch: Vec<(RecordLoc, String)> = Vec::new();
        let mut bytes = 0usize;
        let mut end = None;
        {
            let _span = wmtree_telemetry::span("bundle.read.frame");
            while bytes < DECODE_BATCH_BYTES {
                match stream.next_record() {
                    Some(Ok(record)) => {
                        bytes += record.1.len();
                        batch.push(record);
                    }
                    Some(Err(e)) => {
                        end = Some(Err(e));
                        break;
                    }
                    None => {
                        end = Some(Ok(()));
                        break;
                    }
                }
            }
        }
        let decoded = {
            let _span = wmtree_telemetry::span("bundle.read.decode");
            par_map_min(&batch, workers, MIN_RECORDS_PER_WORKER, |(loc, payload)| {
                decode(loc, payload)
            })
        };
        for ((loc, _), item) in batch.into_iter().zip(decoded) {
            sink(loc, item?)?;
        }
        match end {
            None => {}
            Some(Ok(())) => return Ok(stream.committed().to_vec()),
            Some(Err(e)) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::BundleMeta;
    use crate::writer::BundleWriter;
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
        let dir = std::env::temp_dir().join(format!("wmtree-bundle-reader-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streams_visits_in_log_order() {
        let dir = tmp("stream");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let (va, vb) = (visit(1), visit(2));
        w.append_site(
            "a.com",
            vec![
                ("https://www.a.com/".to_string(), 0, &va),
                ("https://www.a.com/".to_string(), 1, &vb),
            ],
        )
        .unwrap();
        w.append_site("b.com", vec![("https://www.b.com/".to_string(), 0, &va)])
            .unwrap();
        w.finish().unwrap();

        let reader = BundleReader::open(&dir).unwrap();
        assert!(reader.manifest().complete);
        let all = reader.read_visits(2).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].site, "a.com");
        assert_eq!(all[0].profile, 0);
        assert_eq!(all[0].visit, va);
        assert_eq!(all[1].visit, vb);
        assert_eq!(all[2].site, "b.com");
        assert_eq!(all[2].visit, va, "dedup'd payload resolves");
    }

    #[test]
    fn corrupt_visit_record_surfaces_location() {
        let dir = tmp("corrupt");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        w.append_site("a.com", vec![("https://www.a.com/".to_string(), 0, &v)])
            .unwrap();
        w.finish().unwrap();
        // Flip a byte inside the first record's payload.
        let seg = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[20] ^= 1;
        std::fs::write(&seg, &bytes).unwrap();

        let err = BundleReader::open(&dir)
            .unwrap()
            .read_visits(1)
            .unwrap_err();
        match err {
            BundleError::Corrupt {
                segment,
                line,
                offset,
                ..
            } => {
                assert_eq!(segment, "visits-000.seg");
                assert_eq!(line, 1);
                assert_eq!(offset, 0);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn missing_object_is_dangling() {
        let dir = tmp("dangling");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        w.append_site("a.com", vec![("https://www.a.com/".to_string(), 0, &v)])
            .unwrap();
        w.finish().unwrap();
        // Empty the object store but keep its manifest entry count at
        // zero so chains still verify: rewrite manifest without objects.
        let mut manifest = Manifest::load(&dir).unwrap();
        manifest.object_segments.clear();
        manifest.objects = 0;
        manifest.store(&dir).unwrap();

        let err = BundleReader::open(&dir)
            .unwrap()
            .read_visits(1)
            .unwrap_err();
        assert!(matches!(err, BundleError::DanglingObject { .. }), "{err}");
    }
}
