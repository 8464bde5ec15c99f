//! [`BundleWriter`] — checkpointed, resumable archive recording.
//!
//! The write protocol makes the *site* the unit of durability:
//!
//! 1. append the site's missing payloads to the object store
//!    (content-addressed, deduplicated),
//! 2. append one visit record per `(page, profile)` visit,
//! 3. append a checkpoint record,
//! 4. flush both logs and atomically rewrite the manifest.
//!
//! A crash between checkpoints leaves trailing bytes the manifest does
//! not cover; [`BundleWriter::resume`] verifies the covered prefix
//! through the reader's playback pipeline, truncates the leftovers, and
//! continues appending — producing final files byte-identical to an
//! uninterrupted run.
//!
//! Payloads arrive pre-encoded ([`EncodedObject`], built by the crawl
//! workers), so the writer itself only dedups and appends.

use crate::error::BundleError;
use crate::hash::to_hex;
use crate::manifest::{BundleMeta, Manifest, DEFAULT_SEGMENT_CAPACITY};
use crate::reader::play;
use crate::record::{BundleVisit, Checkpoint, EncodedObject, Record, VisitRef};
use crate::segment::{truncate_log, LogWriter};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wmtree_browser::VisitResult;

/// File-name prefix of the visit log.
pub(crate) const VISITS_PREFIX: &str = "visits";
/// File-name prefix of the object store.
pub(crate) const OBJECTS_PREFIX: &str = "objects";

/// What [`BundleWriter::resume`] recovered from a partial bundle.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Sites already checkpointed — the crawl skips these.
    pub sites: BTreeSet<String>,
    /// Every checkpointed visit, payloads resolved, in log order —
    /// ready to rebuild the in-memory database.
    pub visits: Vec<BundleVisit>,
}

/// Checkpointed archive writer. See the module docs for the protocol.
#[derive(Debug)]
pub struct BundleWriter {
    dir: PathBuf,
    manifest: Manifest,
    visits: LogWriter,
    objects: LogWriter,
    /// Content hashes already stored (the dedup index).
    index: BTreeSet<u64>,
}

impl BundleWriter {
    /// Create a fresh bundle at `dir` (the directory is created if
    /// missing). Fails with [`BundleError::AlreadyExists`] if a
    /// manifest is already present — resume instead.
    pub fn create(dir: &Path, meta: BundleMeta) -> Result<BundleWriter, BundleError> {
        Self::create_with_capacity(dir, meta, DEFAULT_SEGMENT_CAPACITY)
    }

    /// [`create`](BundleWriter::create) with an explicit segment
    /// rotation capacity (records per segment).
    pub fn create_with_capacity(
        dir: &Path,
        meta: BundleMeta,
        segment_capacity: usize,
    ) -> Result<BundleWriter, BundleError> {
        if Manifest::exists(dir) {
            return Err(BundleError::AlreadyExists {
                dir: dir.to_path_buf(),
            });
        }
        std::fs::create_dir_all(dir).map_err(|e| BundleError::io(dir, e))?;
        let manifest = Manifest::new(meta, segment_capacity);
        manifest.store(dir)?;
        Ok(BundleWriter {
            dir: dir.to_path_buf(),
            visits: LogWriter::create(dir, VISITS_PREFIX, segment_capacity),
            objects: LogWriter::create(dir, OBJECTS_PREFIX, segment_capacity),
            manifest,
            index: BTreeSet::new(),
        })
    }

    /// Reopen a partial bundle for appending: check `meta` against the
    /// manifest, verify every committed record (the reader's playback,
    /// decoding on every available core), truncate uncommitted crash
    /// leftovers, and rebuild the dedup index plus the already-recorded
    /// visits.
    pub fn resume(
        dir: &Path,
        meta: BundleMeta,
    ) -> Result<(BundleWriter, ResumeState), BundleError> {
        let _span = wmtree_telemetry::span("bundle.resume.verify");
        let manifest = Manifest::load(dir)?;
        manifest.check_meta(&meta)?;
        let playback = play(dir, &manifest, wmtree_telemetry::par::available_workers())?;
        truncate_log(
            dir,
            OBJECTS_PREFIX,
            &manifest.object_segments,
            &playback.object_bytes,
        )?;
        truncate_log(
            dir,
            VISITS_PREFIX,
            &manifest.visit_segments,
            &playback.visit_bytes,
        )?;

        let capacity = manifest.segment_capacity;
        let writer = BundleWriter {
            dir: dir.to_path_buf(),
            visits: LogWriter::resume(
                dir,
                VISITS_PREFIX,
                capacity,
                manifest.visit_segments.clone(),
            ),
            objects: LogWriter::resume(
                dir,
                OBJECTS_PREFIX,
                capacity,
                manifest.object_segments.clone(),
            ),
            manifest,
            index: playback.objects,
        };
        let state = ResumeState {
            sites: playback.sites,
            visits: playback.visits,
        };
        Ok((writer, state))
    }

    /// The manifest as of the last checkpoint (plus in-memory updates
    /// of the current, uncommitted site).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Encode and append one completed site — see
    /// [`append_encoded`](BundleWriter::append_encoded). Encoding runs
    /// on the calling thread; crawls encode in their workers instead.
    pub fn append_site<'a>(
        &mut self,
        site: &str,
        visits: impl IntoIterator<Item = (String, usize, &'a VisitResult)>,
    ) -> Result<usize, BundleError> {
        let encoded = visits
            .into_iter()
            .map(|(url, profile, visit)| Ok((url, profile, EncodedObject::encode(visit)?)))
            .collect::<Result<Vec<_>, BundleError>>()?;
        self.append_encoded(site, encoded)
    }

    /// Append one completed site and commit it: object payloads not yet
    /// stored, visit records, a checkpoint record, then the manifest
    /// rewrite. The order of `visits` must be deterministic — it
    /// defines the archive's bytes.
    pub fn append_encoded(
        &mut self,
        site: &str,
        visits: Vec<(String, usize, EncodedObject)>,
    ) -> Result<usize, BundleError> {
        // Scope guard only: the span's clock reads stay inside
        // telemetry's own snapshot, never the segment bytes.
        let _span = wmtree_telemetry::span("bundle.checkpoint"); // wmtree-lint: allow(WM0301)
        let count = visits.len();
        for (url, profile, object) in visits {
            if self.index.insert(object.hash) {
                self.objects.append(&object.entry)?;
                self.manifest.objects += 1;
                wmtree_telemetry::counter!("bundle.objects.stored").inc();
            } else {
                self.manifest.dedup_hits += 1;
                wmtree_telemetry::counter!("bundle.objects.dedup_hits").inc();
            }
            let record = Record::Visit(VisitRef {
                site: site.to_string(),
                url,
                profile,
                object: to_hex(object.hash),
            });
            let payload = serde_json::to_string(&record)
                .map_err(|e| BundleError::json("serializing visit record", e))?;
            self.visits.append(&payload)?;
            self.manifest.visit_records += 1;
            wmtree_telemetry::counter!("bundle.records.written").inc();
        }
        let checkpoint = Record::Checkpoint(Checkpoint {
            site: site.to_string(),
            visits: count,
        });
        let payload = serde_json::to_string(&checkpoint)
            .map_err(|e| BundleError::json("serializing checkpoint record", e))?;
        self.visits.append(&payload)?;
        self.manifest.checkpoints += 1;
        self.commit()?;
        wmtree_telemetry::counter!("bundle.checkpoints").inc();
        Ok(count)
    }

    /// Flush the logs and atomically rewrite the manifest.
    fn commit(&mut self) -> Result<(), BundleError> {
        self.objects.flush()?;
        self.visits.flush()?;
        self.manifest.visit_segments = self.visits.metas().to_vec();
        self.manifest.object_segments = self.objects.metas().to_vec();
        self.manifest.store(&self.dir)
    }

    /// Mark the bundle complete and write the final manifest.
    pub fn finish(mut self) -> Result<Manifest, BundleError> {
        self.manifest.complete = true;
        self.commit()?;
        Ok(self.manifest)
    }

    /// Commit without marking complete — an orderly stop mid-crawl
    /// (e.g. a site cap), leaving a resumable partial bundle.
    pub fn suspend(mut self) -> Result<Manifest, BundleError> {
        self.commit()?;
        Ok(self.manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let dir = std::env::temp_dir().join(format!("wmtree-bundle-writer-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_refuses_existing_bundle() {
        let dir = tmp("exists");
        let w = BundleWriter::create(&dir, meta()).unwrap();
        drop(w);
        assert!(matches!(
            BundleWriter::create(&dir, meta()),
            Err(BundleError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn dedup_shares_identical_payloads() {
        let dir = tmp("dedup");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        // Both profiles see the identical payload → one object, one hit.
        w.append_site(
            "a.com",
            vec![
                ("https://www.a.com/".to_string(), 0, &v),
                ("https://www.a.com/".to_string(), 1, &v),
            ],
        )
        .unwrap();
        let m = w.finish().unwrap();
        assert_eq!(m.objects, 1);
        assert_eq!(m.dedup_hits, 1);
        assert_eq!(m.visit_records, 2);
        assert_eq!(m.checkpoints, 1);
        assert!(m.complete);
        assert_eq!(m.dedup_ratio(), 0.5);
    }

    #[test]
    fn resume_recovers_sites_and_visits_and_index() {
        let dir = tmp("resume");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        w.append_site("a.com", vec![("https://www.a.com/".to_string(), 0, &v)])
            .unwrap();
        w.suspend().unwrap();

        let (mut w2, state) = BundleWriter::resume(&dir, meta()).unwrap();
        assert_eq!(state.sites.len(), 1);
        assert!(state.sites.contains("a.com"));
        assert_eq!(state.visits.len(), 1);
        assert_eq!(state.visits[0].visit, v);
        // The recovered index still dedups against pre-crash objects.
        w2.append_site("b.com", vec![("https://www.b.com/".to_string(), 0, &v)])
            .unwrap();
        let m = w2.finish().unwrap();
        assert_eq!(m.objects, 1, "identical payload dedups across resume");
        assert_eq!(m.dedup_hits, 1);
    }

    #[test]
    fn resume_rejects_wrong_meta() {
        let dir = tmp("wrongmeta");
        let w = BundleWriter::create(&dir, meta()).unwrap();
        drop(w);
        let mut other = meta();
        other.experiment_seed = 99;
        assert!(matches!(
            BundleWriter::resume(&dir, other),
            Err(BundleError::MetaMismatch { .. })
        ));
    }

    #[test]
    fn resume_truncates_uncommitted_tail() {
        let dir = tmp("tail");
        let mut w = BundleWriter::create(&dir, meta()).unwrap();
        let v = visit(1);
        w.append_site("a.com", vec![("https://www.a.com/".to_string(), 0, &v)])
            .unwrap();
        w.suspend().unwrap();
        // Simulate a crash mid-site: trailing garbage past the commit.
        let seg = dir.join("visits-000.seg");
        let mut bytes = std::fs::read(&seg).unwrap();
        let committed_len = bytes.len();
        bytes.extend_from_slice(b"0000000000000000 {\"torn\":true}\n");
        std::fs::write(&seg, &bytes).unwrap();

        let (w2, state) = BundleWriter::resume(&dir, meta()).unwrap();
        drop(w2);
        assert_eq!(state.visits.len(), 1);
        assert_eq!(
            std::fs::read(&seg).unwrap().len(),
            committed_len,
            "uncommitted tail must be truncated"
        );
    }
}
