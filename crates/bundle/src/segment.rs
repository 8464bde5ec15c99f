//! Append-only, checksummed segment logs.
//!
//! A log is a sequence of segment files (`<prefix>-000.seg`,
//! `<prefix>-001.seg`, ...), each holding at most `segment_capacity`
//! records. A record is one binary frame:
//!
//! ```text
//! [payload length: u32 LE][checksum of the payload: u64 LE][payload]
//! ```
//!
//! The checksum covers the payload bytes; additionally every segment
//! carries a rolling *chain* checksum, folded over each record's
//! 12-byte header (length and checksum, so transitively the payload),
//! that the manifest pins — a reordered, truncated, or spliced segment
//! is detected even when each record still verifies. A length prefix is
//! checked against the bytes left in the file before its payload is
//! read, so a corrupt header cannot make a reader allocate past the
//! file.
//!
//! Readers consume exactly the record counts the manifest declares and
//! ignore trailing bytes — those are uncommitted leftovers of a crash,
//! removed by [`verify_and_truncate`] when a bundle is resumed.

use crate::error::BundleError;
use crate::hash::{chain_fold, chain_start, from_hex, line_checksum, to_hex};
use crate::manifest::SegmentMeta;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Bytes of a record header: `u32` payload length + `u64` checksum.
pub const HEADER_LEN: usize = 12;

/// Deterministic segment file name: `<prefix>-<idx:03>.seg`.
pub fn segment_name(prefix: &str, idx: usize) -> String {
    format!("{prefix}-{idx:03}.seg")
}

/// Where a record lives, for error reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLoc {
    /// Segment file name.
    pub segment: String,
    /// One-based record number within the segment.
    pub line: usize,
    /// Byte offset of the start of the record within the segment.
    pub offset: u64,
}

impl RecordLoc {
    /// A [`BundleError::Corrupt`] located at this record.
    pub fn corrupt(&self, detail: impl Into<String>) -> BundleError {
        BundleError::Corrupt {
            segment: self.segment.clone(),
            line: self.line,
            offset: self.offset,
            detail: detail.into(),
        }
    }
}

/// The header that frames `payload`: its length and checksum. `None`
/// for a payload of 4 GiB or more, which a `u32` length cannot frame.
pub fn frame_header(payload: &[u8]) -> Option<[u8; HEADER_LEN]> {
    let len = u32::try_from(payload.len()).ok()?;
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&line_checksum(payload).to_le_bytes());
    Some(header)
}

/// What [`SegmentReader::next_frame`] found.
#[derive(Debug)]
pub enum Frame {
    /// A record whose payload verified against its checksum.
    Record(RecordLoc, Vec<u8>),
    /// A record whose payload fails its checksum. Its length prefix
    /// fit the file, so the next record is still located: a lenient
    /// scan may go on.
    Mismatch(RecordLoc, String),
    /// A header cut short, or one declaring more bytes than the file
    /// holds: nothing past it can be located.
    Broken(RecordLoc, String),
    /// The file ends exactly at a record boundary.
    End,
}

/// Read-buffer size of a [`SegmentReader`]: object records run to
/// kilobytes, past `BufReader`'s 8 KiB default.
const READ_BUFFER: usize = 1 << 20;

/// Sequential frame reader over one segment file — the framing layer
/// of every read path (bundle playback, resume, `verify_bundle`, the
/// tree cache's open and verify). Folds every located header into the
/// segment's chain and counts `bundle.bytes.read`.
#[derive(Debug)]
pub struct SegmentReader {
    name: String,
    path: PathBuf,
    reader: BufReader<File>,
    len: u64,
    offset: u64,
    records: usize,
    chain: u64,
}

impl SegmentReader {
    /// Open the segment `name` in `dir`.
    pub fn open(dir: &Path, name: &str) -> Result<SegmentReader, BundleError> {
        let path = dir.join(name);
        let file = File::open(&path).map_err(|e| BundleError::io(&path, e))?;
        let len = file
            .metadata()
            .map_err(|e| BundleError::io(&path, e))?
            .len();
        Ok(SegmentReader {
            name: name.to_string(),
            path,
            reader: BufReader::with_capacity(READ_BUFFER, file),
            len,
            offset: 0,
            records: 0,
            chain: chain_start(),
        })
    }

    /// Bytes of the file consumed by the frames read so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Length of the file when it was opened.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Frames read so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The chain over every header read so far, as the manifest
    /// renders it.
    pub fn chain(&self) -> String {
        to_hex(self.chain)
    }

    /// Read the next frame. `Err` only for I/O failures; every defect
    /// of the bytes is a located [`Frame`].
    pub fn next_frame(&mut self) -> Result<Frame, BundleError> {
        let left = self.len - self.offset;
        if left == 0 {
            return Ok(Frame::End);
        }
        let loc = RecordLoc {
            segment: self.name.clone(),
            line: self.records + 1,
            offset: self.offset,
        };
        if left < HEADER_LEN as u64 {
            return Ok(Frame::Broken(
                loc,
                format!("record header cut short: {left} of {HEADER_LEN} bytes"),
            ));
        }
        let mut header = [0u8; HEADER_LEN];
        self.read(&mut header)?;
        let mut len = [0u8; 4];
        len.copy_from_slice(&header[..4]);
        let len = u32::from_le_bytes(len);
        let mut declared = [0u8; 8];
        declared.copy_from_slice(&header[4..]);
        let declared = u64::from_le_bytes(declared);
        let body_left = left - HEADER_LEN as u64;
        if u64::from(len) > body_left {
            return Ok(Frame::Broken(
                loc,
                format!("record length {len} exceeds the {body_left} byte(s) left in the segment"),
            ));
        }
        let mut payload = vec![0u8; len as usize];
        self.read(&mut payload)?;
        self.offset += (HEADER_LEN + payload.len()) as u64;
        self.records += 1;
        self.chain = chain_fold(self.chain, &header);
        wmtree_telemetry::counter!("bundle.bytes.read").add((HEADER_LEN + payload.len()) as u64);
        let actual = line_checksum(&payload);
        if actual != declared {
            return Ok(Frame::Mismatch(
                loc,
                format!(
                    "checksum mismatch: record declares {}, payload hashes to {}",
                    to_hex(declared),
                    to_hex(actual)
                ),
            ));
        }
        Ok(Frame::Record(loc, payload))
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<(), BundleError> {
        self.reader
            .read_exact(buf)
            .map_err(|e| BundleError::io(&self.path, e))
    }
}

/// Writer over a rotating segment log.
#[derive(Debug)]
pub struct LogWriter {
    dir: PathBuf,
    prefix: &'static str,
    capacity: usize,
    metas: Vec<SegmentMeta>,
    file: Option<BufWriter<File>>,
}

impl LogWriter {
    /// A fresh log with no segments yet.
    pub fn create(dir: &Path, prefix: &'static str, capacity: usize) -> LogWriter {
        LogWriter {
            dir: dir.to_path_buf(),
            prefix,
            capacity: capacity.max(1),
            metas: Vec::new(),
            file: None,
        }
    }

    /// Reopen a verified, truncated log for appending. `metas` must
    /// describe the on-disk state exactly (as [`verify_and_truncate`]
    /// guarantees).
    pub fn resume(
        dir: &Path,
        prefix: &'static str,
        capacity: usize,
        metas: Vec<SegmentMeta>,
    ) -> LogWriter {
        LogWriter {
            dir: dir.to_path_buf(),
            prefix,
            capacity: capacity.max(1),
            metas,
            file: None,
        }
    }

    /// The per-segment metadata (name, record count, chain checksum).
    pub fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    /// Append one record payload. Rotates to a new segment when the
    /// current one is full.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), BundleError> {
        let need_rotate = match self.metas.last() {
            None => true,
            Some(m) => m.records as usize >= self.capacity,
        };
        if need_rotate {
            self.flush()?;
            self.file = None;
            self.metas.push(SegmentMeta {
                name: segment_name(self.prefix, self.metas.len()),
                records: 0,
                chain: to_hex(chain_start()),
            });
        }
        // `metas` is non-empty here: rotation above pushes the first one.
        let Some(meta) = self.metas.last_mut() else {
            unreachable!("rotation guarantees an open segment");
        };
        let path = self.dir.join(&meta.name);
        if self.file.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| BundleError::io(&path, e))?;
            self.file = Some(BufWriter::new(file));
        }
        let Some(out) = self.file.as_mut() else {
            unreachable!("opened above");
        };
        let Some(header) = frame_header(payload) else {
            let detail = format!(
                "a {}-byte record exceeds the 4 GiB frame limit",
                payload.len()
            );
            return Err(BundleError::io(&path, std::io::Error::other(detail)));
        };
        out.write_all(&header)
            .and_then(|_| out.write_all(payload))
            .map_err(|e| BundleError::io(&path, e))?;
        wmtree_telemetry::counter!("bundle.bytes.written").add((HEADER_LEN + payload.len()) as u64);
        let chain = from_hex(&meta.chain).unwrap_or_else(chain_start);
        meta.chain = to_hex(chain_fold(chain, &header));
        meta.records += 1;
        Ok(())
    }

    /// Flush buffered bytes of the open segment to the OS.
    pub fn flush(&mut self) -> Result<(), BundleError> {
        if let (Some(file), Some(meta)) = (self.file.as_mut(), self.metas.last()) {
            file.flush()
                .map_err(|e| BundleError::io(self.dir.join(&meta.name), e))?;
        }
        Ok(())
    }
}

/// Fail-fast streaming reader over a segment log, consuming exactly the
/// records the manifest declares and verifying checksums and the
/// per-segment chain along the way — the framing stage of every
/// fail-fast read path (bundle playback, bundle resume, tree-cache
/// open).
#[derive(Debug)]
pub struct LogStream {
    dir: PathBuf,
    metas: Vec<SegmentMeta>,
    seg_idx: usize,
    reader: Option<SegmentReader>,
    /// Committed byte length of every fully verified segment.
    committed: Vec<u64>,
}

impl LogStream {
    /// Open a stream over the segments `metas` describes.
    pub fn open(dir: &Path, metas: &[SegmentMeta]) -> LogStream {
        LogStream {
            dir: dir.to_path_buf(),
            metas: metas.to_vec(),
            seg_idx: 0,
            reader: None,
            committed: Vec::with_capacity(metas.len()),
        }
    }

    /// The committed byte length of each segment verified so far (all
    /// of them once [`next_record`](LogStream::next_record) has
    /// returned `None`) — what [`truncate_log`] cuts the files back to.
    pub fn committed(&self) -> &[u64] {
        &self.committed
    }

    /// The next record payload with its location, or `None` when every
    /// declared record has been read. Verification failures surface as
    /// `Some(Err(..))`, after which the stream is exhausted.
    pub fn next_record(&mut self) -> Option<Result<(RecordLoc, Vec<u8>), BundleError>> {
        let next = self.advance();
        if matches!(next, Some(Err(_))) {
            self.seg_idx = self.metas.len(); // fuse
        }
        next
    }

    fn advance(&mut self) -> Option<Result<(RecordLoc, Vec<u8>), BundleError>> {
        loop {
            let meta = self.metas.get(self.seg_idx)?;
            if self.reader.is_none() {
                match SegmentReader::open(&self.dir, &meta.name) {
                    Ok(r) => self.reader = Some(r),
                    Err(e) => return Some(Err(e)),
                }
            }
            let Some(reader) = self.reader.as_mut() else {
                unreachable!("opened above");
            };
            if reader.records() as u64 == meta.records {
                // Segment done: the chain must match the manifest.
                if reader.chain() != meta.chain {
                    return Some(Err(BundleError::ManifestMismatch {
                        segment: meta.name.clone(),
                        detail: format!(
                            "segment chain is {}, manifest declares {}",
                            reader.chain(),
                            meta.chain
                        ),
                    }));
                }
                self.committed.push(reader.offset());
                self.seg_idx += 1;
                self.reader = None;
                continue;
            }
            return Some(match reader.next_frame() {
                Err(e) => Err(e),
                Ok(Frame::Record(loc, payload)) => Ok((loc, payload)),
                Ok(Frame::Mismatch(loc, detail) | Frame::Broken(loc, detail)) => {
                    Err(loc.corrupt(detail))
                }
                Ok(Frame::End) => Err(BundleError::ManifestMismatch {
                    segment: meta.name.clone(),
                    detail: format!(
                        "file ends after {} record(s), manifest declares {}",
                        reader.records(),
                        meta.records
                    ),
                }),
            });
        }
    }
}

/// Resume-time recovery: verify every record the manifest covers,
/// feed each to `on_record`, then truncate the segment files to exactly
/// the covered bytes (dropping uncommitted leftovers of a crash) and
/// delete stray later segments.
pub fn verify_and_truncate(
    dir: &Path,
    prefix: &str,
    metas: &[SegmentMeta],
    mut on_record: impl FnMut(RecordLoc, &[u8]) -> Result<(), BundleError>,
) -> Result<(), BundleError> {
    let mut stream = LogStream::open(dir, metas);
    while let Some(record) = stream.next_record() {
        let (loc, payload) = record?;
        on_record(loc, &payload)?;
    }
    truncate_log(dir, prefix, metas, stream.committed())
}

/// Cut each segment of a verified log back to its `committed` byte
/// length (as a drained [`LogStream`] reports it) and delete stray
/// segments past the manifest-covered set (a rotation a crash left
/// uncommitted).
pub fn truncate_log(
    dir: &Path,
    prefix: &str,
    metas: &[SegmentMeta],
    committed: &[u64],
) -> Result<(), BundleError> {
    for (meta, &len) in metas.iter().zip(committed) {
        let path = dir.join(&meta.name);
        let on_disk = std::fs::metadata(&path)
            .map_err(|e| BundleError::io(&path, e))?
            .len();
        if on_disk > len {
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| BundleError::io(&path, e))?;
            file.set_len(len).map_err(|e| BundleError::io(&path, e))?;
        }
    }
    let mut idx = metas.len();
    loop {
        let path = dir.join(segment_name(prefix, idx));
        match std::fs::remove_file(&path) {
            Ok(()) => idx += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
            Err(e) => return Err(BundleError::io(path, e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wmtree-bundle-seg-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn drain(dir: &Path, metas: &[SegmentMeta]) -> Vec<Vec<u8>> {
        let mut stream = LogStream::open(dir, metas);
        let mut out = Vec::new();
        while let Some(rec) = stream.next_record() {
            out.push(rec.unwrap().1);
        }
        out
    }

    fn payload(i: usize) -> Vec<u8> {
        format!("{{\"n\":{i}}}").into_bytes()
    }

    #[test]
    fn write_read_roundtrip_with_rotation() {
        let dir = tmp("rotate");
        let mut w = LogWriter::create(&dir, "visits", 3);
        let payloads: Vec<Vec<u8>> = (0..8).map(payload).collect();
        for p in &payloads {
            w.append(p).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(w.metas().len(), 3, "8 records at capacity 3 = 3 segments");
        assert_eq!(drain(&dir, w.metas()), payloads);
    }

    #[test]
    fn flipped_byte_names_segment_line_and_offset() {
        let dir = tmp("corrupt");
        let mut w = LogWriter::create(&dir, "visits", 100);
        for i in 0..5 {
            w.append(&payload(i)).unwrap();
        }
        w.flush().unwrap();
        // Flip one payload byte in the middle of record 3.
        let path = dir.join(segment_name("visits", 0));
        let mut bytes = std::fs::read(&path).unwrap();
        let frame_len = HEADER_LEN + payload(0).len();
        bytes[2 * frame_len + HEADER_LEN + 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let mut stream = LogStream::open(&dir, w.metas());
        stream.next_record().unwrap().unwrap();
        stream.next_record().unwrap().unwrap();
        let err = stream.next_record().unwrap().unwrap_err();
        match err {
            BundleError::Corrupt {
                segment,
                line,
                offset,
                ..
            } => {
                assert_eq!(segment, "visits-000.seg");
                assert_eq!(line, 3);
                assert_eq!(offset, 2 * frame_len as u64);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(stream.next_record().is_none(), "an error ends the stream");
    }

    #[test]
    fn truncated_file_reported_as_manifest_mismatch() {
        let dir = tmp("short");
        let mut w = LogWriter::create(&dir, "visits", 100);
        for i in 0..3 {
            w.append(&payload(i)).unwrap();
        }
        w.flush().unwrap();
        let path = dir.join(segment_name("visits", 0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..HEADER_LEN + payload(0).len()]).unwrap();

        let mut stream = LogStream::open(&dir, w.metas());
        stream.next_record().unwrap().unwrap();
        let err = stream.next_record().unwrap().unwrap_err();
        assert!(matches!(err, BundleError::ManifestMismatch { .. }), "{err}");
    }

    #[test]
    fn verify_and_truncate_drops_uncommitted_tail() {
        let dir = tmp("trunc");
        let mut w = LogWriter::create(&dir, "visits", 100);
        for i in 0..3 {
            w.append(&payload(i)).unwrap();
        }
        w.flush().unwrap();
        let committed = w.metas().to_vec();
        // Uncommitted tail: one more record and a stray next segment,
        // as if the process died mid-site before the manifest update.
        w.append(&payload(98)).unwrap();
        w.flush().unwrap();
        std::fs::write(dir.join(segment_name("visits", 1)), b"garbage").unwrap();

        let mut seen = Vec::new();
        verify_and_truncate(&dir, "visits", &committed, |_, p| {
            seen.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert!(!dir.join(segment_name("visits", 1)).exists());
        // After truncation a resumed writer continues as if the tail
        // never happened.
        let mut w2 = LogWriter::resume(&dir, "visits", 100, committed.clone());
        w2.append(&payload(3)).unwrap();
        w2.flush().unwrap();
        let all = drain(&dir, w2.metas());
        assert_eq!(all.last(), Some(&payload(3)));
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn resumed_log_is_byte_identical_to_uninterrupted() {
        let a = tmp("ident-a");
        let b = tmp("ident-b");
        let payloads: Vec<Vec<u8>> = (0..10).map(payload).collect();

        let mut wa = LogWriter::create(&a, "visits", 4);
        for p in &payloads {
            wa.append(p).unwrap();
        }
        wa.flush().unwrap();

        let mut wb = LogWriter::create(&b, "visits", 4);
        for p in &payloads[..5] {
            wb.append(p).unwrap();
        }
        wb.flush().unwrap();
        let committed = wb.metas().to_vec();
        drop(wb);
        let mut wb = LogWriter::resume(&b, "visits", 4, committed);
        for p in &payloads[5..] {
            wb.append(p).unwrap();
        }
        wb.flush().unwrap();

        assert_eq!(wa.metas(), wb.metas());
        for meta in wa.metas() {
            let fa = std::fs::read(a.join(&meta.name)).unwrap();
            let fb = std::fs::read(b.join(&meta.name)).unwrap();
            assert_eq!(fa, fb, "{}", meta.name);
        }
    }

    #[test]
    fn framing_defects_are_located() {
        let dir = tmp("framing");
        let good = payload(1);
        let header = frame_header(&good).unwrap();
        let mut bytes = header.to_vec();
        bytes.extend_from_slice(&good);
        // Record 2 fails its checksum but keeps its length: record 3 is
        // still located behind it.
        let mut bad = header.to_vec();
        bad.extend_from_slice(b"{\"n\":2}");
        bytes.extend_from_slice(&bad);
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&good);
        // Record 4 declares more bytes than the file holds.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        std::fs::write(dir.join("x-000.seg"), &bytes).unwrap();

        let mut r = SegmentReader::open(&dir, "x-000.seg").unwrap();
        assert!(matches!(r.next_frame().unwrap(), Frame::Record(_, p) if p == good));
        let frame = (HEADER_LEN + good.len()) as u64;
        assert!(matches!(
            r.next_frame().unwrap(),
            Frame::Mismatch(loc, d) if loc.line == 2 && loc.offset == frame && d.contains("checksum")
        ));
        assert!(matches!(r.next_frame().unwrap(), Frame::Record(loc, _) if loc.line == 3));
        assert!(matches!(
            r.next_frame().unwrap(),
            Frame::Broken(loc, d) if loc.line == 4 && loc.offset == 3 * frame && d.contains("exceeds")
        ));

        // A header cut short.
        std::fs::write(dir.join("y-000.seg"), &bytes[..5]).unwrap();
        let mut r = SegmentReader::open(&dir, "y-000.seg").unwrap();
        assert!(matches!(r.next_frame().unwrap(), Frame::Broken(loc, _) if loc.line == 1));
        // An empty file ends cleanly.
        std::fs::write(dir.join("z-000.seg"), b"").unwrap();
        let mut r = SegmentReader::open(&dir, "z-000.seg").unwrap();
        assert!(matches!(r.next_frame().unwrap(), Frame::End));
    }
}
