//! Append-only, checksummed segment logs.
//!
//! A log is a sequence of segment files (`<prefix>-000.seg`,
//! `<prefix>-001.seg`, ...), each holding at most `segment_capacity`
//! records. A record is one text line:
//!
//! ```text
//! <checksum:016x> <payload JSON>\n
//! ```
//!
//! The checksum column covers the payload bytes; additionally every
//! segment carries a rolling *chain* checksum (folded over each full
//! line) that the manifest pins, so a reordered, truncated, or spliced
//! segment is detected even when each individual line still verifies.
//!
//! Readers consume exactly the record counts the manifest declares and
//! ignore trailing bytes — those are uncommitted leftovers of a crash,
//! removed by [`verify_and_truncate`] when a bundle is resumed.

use crate::error::BundleError;
use crate::hash::{chain_fold, chain_start, from_hex, line_checksum, to_hex};
use crate::manifest::SegmentMeta;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Width of the checksum column (16 hex digits + one space).
const HEADER_WIDTH: usize = 17;

/// Deterministic segment file name: `<prefix>-<idx:03>.seg`.
pub fn segment_name(prefix: &str, idx: usize) -> String {
    format!("{prefix}-{idx:03}.seg")
}

/// Where a record lives, for error reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLoc {
    /// Segment file name.
    pub segment: String,
    /// One-based line number within the segment.
    pub line: usize,
    /// Byte offset of the start of the line within the segment.
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

/// Split a raw line into `(checksum, payload)`, without verifying.
/// Returns a static description of the framing defect on failure.
pub fn split_line(line: &str) -> Result<(u64, &str), &'static str> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    if line.len() < HEADER_WIDTH {
        return Err("record shorter than its checksum column");
    }
    let (head, payload) = line.split_at(HEADER_WIDTH);
    if !head.ends_with(' ') {
        return Err("missing separator after checksum column");
    }
    match from_hex(&head[..HEADER_WIDTH - 1]) {
        Some(h) => Ok((h, payload)),
        None => Err("malformed checksum column"),
    }
}

/// Decode one raw record line as UTF-8 (corruption can produce invalid
/// byte sequences the checksum column never gets to see).
pub fn decode_line(buf: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(buf)
        .map_err(|e| format!("record is not valid UTF-8 from byte {}", e.valid_up_to()))
}

/// Verify one line's checksum column against its payload.
pub fn verify_line(line: &str) -> Result<&str, String> {
    let (declared, payload) = split_line(line).map_err(|e| e.to_string())?;
    let actual = line_checksum(payload.as_bytes());
    if actual != declared {
        return Err(format!(
            "checksum mismatch: record declares {}, payload hashes to {}",
            to_hex(declared),
            to_hex(actual)
        ));
    }
    Ok(payload)
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
    pub fn append(&mut self, payload: &str) -> Result<(), BundleError> {
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
        if self.file.is_none() {
            let path = self.dir.join(&meta.name);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| BundleError::io(&path, e))?;
            self.file = Some(BufWriter::new(file));
        }
        let line = format!("{} {payload}", to_hex(line_checksum(payload.as_bytes())));
        let Some(out) = self.file.as_mut() else {
            unreachable!("opened above");
        };
        let path = self.dir.join(&meta.name);
        out.write_all(line.as_bytes())
            .and_then(|_| out.write_all(b"\n"))
            .map_err(|e| BundleError::io(&path, e))?;
        wmtree_telemetry::counter!("bundle.bytes.written").add(line.len() as u64 + 1);
        let chain = from_hex(&meta.chain).unwrap_or_else(chain_start);
        meta.chain = to_hex(chain_fold(chain, line.as_bytes()));
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

/// Read-buffer size of a [`LogStream`]: object records run to tens of
/// kilobytes, far past `BufReader`'s 8 KiB default.
const READ_BUFFER: usize = 1 << 20;

/// Fail-fast streaming reader over a segment log, consuming exactly the
/// records the manifest declares and verifying line checksums and the
/// per-segment chain along the way — the framing stage of every read
/// path (bundle playback, bundle resume, tree-cache open).
#[derive(Debug)]
pub struct LogStream {
    dir: PathBuf,
    metas: Vec<SegmentMeta>,
    seg_idx: usize,
    reader: Option<BufReader<File>>,
    line_no: usize,
    offset: u64,
    records_left: u64,
    chain: u64,
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
            line_no: 0,
            offset: 0,
            records_left: metas.first().map(|m| m.records).unwrap_or(0),
            chain: chain_start(),
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
    /// `Some(Err(..))`.
    pub fn next_record(&mut self) -> Option<Result<(RecordLoc, String), BundleError>> {
        loop {
            if self.seg_idx >= self.metas.len() {
                return None;
            }
            if self.records_left == 0 {
                // Segment done: the chain must match the manifest.
                let meta = &self.metas[self.seg_idx];
                if to_hex(self.chain) != meta.chain {
                    let detail = format!(
                        "segment chain is {}, manifest declares {}",
                        to_hex(self.chain),
                        meta.chain
                    );
                    let segment = meta.name.clone();
                    self.seg_idx = self.metas.len(); // fuse
                    return Some(Err(BundleError::ManifestMismatch { segment, detail }));
                }
                self.committed.push(self.offset);
                self.seg_idx += 1;
                self.reader = None;
                self.line_no = 0;
                self.offset = 0;
                self.chain = chain_start();
                self.records_left = self.metas.get(self.seg_idx).map(|m| m.records).unwrap_or(0);
                continue;
            }
            let meta = &self.metas[self.seg_idx];
            if self.reader.is_none() {
                let path = self.dir.join(&meta.name);
                match File::open(&path) {
                    Ok(f) => self.reader = Some(BufReader::with_capacity(READ_BUFFER, f)),
                    Err(e) => {
                        self.seg_idx = self.metas.len();
                        return Some(Err(BundleError::io(path, e)));
                    }
                }
            }
            let Some(reader) = self.reader.as_mut() else {
                unreachable!("opened above");
            };
            let mut buf = Vec::new();
            let read = match reader.read_until(b'\n', &mut buf) {
                Ok(n) => n,
                Err(e) => {
                    let path = self.dir.join(&meta.name);
                    self.seg_idx = self.metas.len();
                    return Some(Err(BundleError::io(path, e)));
                }
            };
            let loc = RecordLoc {
                segment: meta.name.clone(),
                line: self.line_no + 1,
                offset: self.offset,
            };
            if read == 0 {
                let detail = format!(
                    "file ends after {} record(s), manifest declares {}",
                    self.line_no, meta.records
                );
                let segment = meta.name.clone();
                self.seg_idx = self.metas.len();
                return Some(Err(BundleError::ManifestMismatch { segment, detail }));
            }
            wmtree_telemetry::counter!("bundle.bytes.read").add(read as u64);
            self.line_no += 1;
            self.offset += read as u64;
            self.records_left -= 1;
            match decode_line(&buf).and_then(verify_line) {
                Ok(payload) => {
                    let trimmed = buf.strip_suffix(b"\n").unwrap_or(&buf);
                    self.chain = chain_fold(self.chain, trimmed);
                    return Some(Ok((loc, payload.to_string())));
                }
                Err(detail) => {
                    self.seg_idx = self.metas.len();
                    return Some(Err(BundleError::Corrupt {
                        segment: loc.segment,
                        line: loc.line,
                        offset: loc.offset,
                        detail,
                    }));
                }
            }
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
    mut on_record: impl FnMut(RecordLoc, &str) -> Result<(), BundleError>,
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

    fn drain(dir: &Path, metas: &[SegmentMeta]) -> Vec<String> {
        let mut stream = LogStream::open(dir, metas);
        let mut out = Vec::new();
        while let Some(rec) = stream.next_record() {
            out.push(rec.unwrap().1);
        }
        out
    }

    #[test]
    fn write_read_roundtrip_with_rotation() {
        let dir = tmp("rotate");
        let mut w = LogWriter::create(&dir, "visits", 3);
        let payloads: Vec<String> = (0..8).map(|i| format!("{{\"n\":{i}}}")).collect();
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
            w.append(&format!("{{\"n\":{i}}}")).unwrap();
        }
        w.flush().unwrap();
        // Flip one payload byte in the middle of line 3.
        let path = dir.join(segment_name("visits", 0));
        let mut bytes = std::fs::read(&path).unwrap();
        let line_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let victim = 2 * line_len + HEADER_WIDTH + 2;
        bytes[victim] ^= 0x20;
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
                assert_eq!(offset, 2 * line_len as u64);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn truncated_file_reported_as_manifest_mismatch() {
        let dir = tmp("short");
        let mut w = LogWriter::create(&dir, "visits", 100);
        for i in 0..3 {
            w.append(&format!("{{\"n\":{i}}}")).unwrap();
        }
        w.flush().unwrap();
        let path = dir.join(segment_name("visits", 0));
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        std::fs::write(&path, &bytes[..keep]).unwrap();

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
            w.append(&format!("{{\"n\":{i}}}")).unwrap();
        }
        w.flush().unwrap();
        let committed = w.metas().to_vec();
        // Uncommitted tail: two more records and a stray next segment,
        // as if the process died mid-site before the manifest update.
        w.append("{\"n\":98}").unwrap();
        w.flush().unwrap();
        std::fs::write(dir.join(segment_name("visits", 1)), b"garbage").unwrap();

        let mut seen = Vec::new();
        verify_and_truncate(&dir, "visits", &committed, |_, p| {
            seen.push(p.to_string());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert!(!dir.join(segment_name("visits", 1)).exists());
        // After truncation a resumed writer continues as if the tail
        // never happened.
        let mut w2 = LogWriter::resume(&dir, "visits", 100, committed.clone());
        w2.append("{\"n\":3}").unwrap();
        w2.flush().unwrap();
        let all = drain(&dir, w2.metas());
        assert_eq!(all.last().map(String::as_str), Some("{\"n\":3}"));
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn resumed_log_is_byte_identical_to_uninterrupted() {
        let a = tmp("ident-a");
        let b = tmp("ident-b");
        let payloads: Vec<String> = (0..10).map(|i| format!("{{\"n\":{i}}}")).collect();

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
    fn split_line_rejects_framing_defects() {
        assert!(split_line("short").is_err());
        assert!(split_line("0000000000000000_{}").is_err());
        assert!(split_line("zzzzzzzzzzzzzzzz {}").is_err());
        let good = format!("{} {{}}", to_hex(line_checksum(b"{}")));
        assert_eq!(split_line(&good).unwrap().1, "{}");
    }
}
