//! `wmtree-bundle` — content-addressed record/replay crawl archives.
//!
//! A *bundle* is an on-disk archive of one crawl run:
//!
//! - **Object store** — every [`wmtree_browser::VisitResult`] payload is
//!   encoded by the binary [`codec`], content-addressed with a stable
//!   64-bit hash of those bytes as stored, and stored exactly once.
//!   Identical visit outcomes (common for failure records and idle
//!   profiles) are deduplicated.
//! - **Visit log** — an append-only sequence of small reference records
//!   `(site, url, profile, object-hash)` plus per-site *checkpoint*
//!   records, each a length-prefixed, checksummed binary frame.
//! - **Manifest** — `MANIFEST.json`, rewritten atomically after every
//!   checkpoint, pins the record count and rolling chain checksum of
//!   every segment. The manifest is the commit point: bytes beyond the
//!   manifest-covered prefix are uncommitted crash leftovers.
//!
//! [`BundleWriter`] checkpoints after every completed site, so a crawl
//! killed mid-run leaves a consistent partial bundle. Resuming truncates
//! uncommitted bytes and continues appending — the resumed bundle is
//! byte-identical to one written by an uninterrupted run.
//!
//! [`BundleReader`] plays a bundle back through one pipeline — frame
//! each segment sequentially, decode records in bounded parallel
//! batches straight into typed structs, move each payload out on its
//! last reference — verifying every checksum and every content address
//! against the stored bytes; the first corruption surfaces as an error
//! naming the segment, record, and byte offset.
//! [`BundleWriter::resume`] verifies through the same pipeline.
//! [`verify_bundle`] is the lenient whole-archive scan used by
//! `wmtree-lint check-artifacts`; all three decode objects through the
//! one [`decode_object`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod hash;
pub mod manifest;
pub mod reader;
pub mod record;
pub mod segment;
pub mod store;
pub mod verify;
pub mod writer;

pub use error::BundleError;
pub use hash::bundle_content_hash;
pub use manifest::{BundleMeta, Manifest, SegmentMeta, DEFAULT_SEGMENT_CAPACITY};
pub use reader::BundleReader;
pub use record::{
    decode_object, decode_record, BundleVisit, Checkpoint, EncodedObject, Record, VisitRef,
};
pub use store::{BundleStore, BundleSummary};
pub use verify::{verify_bundle, VerifyIssue, VerifyReport};
pub use writer::{BundleWriter, ResumeState};

use std::path::{Path, PathBuf};

/// Atomically replace the file at `path` with `bytes`: write them to
/// [`commit_tmp_path`] in the same directory, then rename that over
/// the target, so a crash leaves the old file or the new one, never a
/// torn one. Every manifest-style commit in the workspace goes through
/// here.
pub fn commit_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = commit_tmp_path(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The temp file [`commit_atomic`] stages `path`'s new bytes in:
/// `.<name>.tmp` next to the target.
pub fn commit_tmp_path(path: &Path) -> PathBuf {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(".{name}.tmp"))
}
