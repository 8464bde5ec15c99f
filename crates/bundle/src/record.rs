//! The record types the segment logs store, and their decoders.

use crate::codec::{self, Codec};
use crate::error::BundleError;
use crate::hash::{object_hash, to_hex};
use crate::segment::RecordLoc;
use wmtree_browser::VisitResult;

/// One record of the visit log.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// One profile's visit of one page, referencing its payload in the
    /// object store by content hash.
    Visit(VisitRef),
    /// A completed site: everything before this record is durable. The
    /// writer rewrites the manifest right after appending one, making
    /// the checkpoint the unit of crash recovery.
    Checkpoint(Checkpoint),
}

/// A visit record: the `(site, page, profile)` coordinates plus the
/// content address of the stored [`VisitResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitRef {
    /// Registerable domain of the site.
    pub site: String,
    /// Full page URL.
    pub url: String,
    /// Profile index (Table 1 order).
    pub profile: usize,
    /// Content address of the visit payload in the object store.
    pub object: u64,
}

/// A site-completion checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The completed site (registerable domain).
    pub site: String,
    /// Number of visit records the site contributed.
    pub visits: usize,
}

/// One visit payload encoded for the object store: its content address
/// and the object-log record that stores it.
///
/// The record is the address as 8 little-endian bytes followed by the
/// visit's [`codec`](crate::codec) bytes; the address is
/// [`object_hash`] over those visit bytes as stored, which is what
/// [`decode_object`] verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedObject {
    /// Content address of the encoded visit bytes.
    pub hash: u64,
    /// The object-log record payload.
    pub entry: Vec<u8>,
}

/// Bytes of the content address that leads an object record.
const ADDRESS_LEN: usize = 8;

impl EncodedObject {
    /// Encode `visit`, address it, and frame its object-log record.
    /// Runs wherever the visit was produced (the crawl workers), so the
    /// writer only dedups and appends.
    pub fn encode(visit: &VisitResult) -> EncodedObject {
        let _span = wmtree_telemetry::span("bundle.encode");
        let mut entry = vec![0u8; ADDRESS_LEN];
        visit.encode(&mut entry);
        let hash = object_hash(&entry[ADDRESS_LEN..]);
        entry[..ADDRESS_LEN].copy_from_slice(&hash.to_le_bytes());
        EncodedObject { hash, entry }
    }
}

/// Decode and verify one object-log record: the workspace's only
/// object decoder. The record must hold an address, the address must
/// equal [`object_hash`] of the visit bytes *as stored*, and those
/// bytes must decode as exactly one [`VisitResult`]. Every defect is a
/// [`BundleError::Corrupt`] at `loc`.
pub fn decode_object(loc: &RecordLoc, payload: &[u8]) -> Result<(u64, VisitResult), BundleError> {
    let Some((address, visit)) = payload.split_first_chunk::<ADDRESS_LEN>() else {
        return Err(loc.corrupt(format!(
            "malformed object entry: {} byte(s), shorter than its {ADDRESS_LEN}-byte content address",
            payload.len()
        )));
    };
    let hash = u64::from_le_bytes(*address);
    let actual = object_hash(visit);
    if actual != hash {
        return Err(loc.corrupt(format!(
            "content address mismatch: entry says {}, stored payload hashes to {}",
            to_hex(hash),
            to_hex(actual)
        )));
    }
    let visit = codec::decode(visit)
        .map_err(|e| loc.corrupt(format!("unparseable object payload: {e}")))?;
    Ok((hash, visit))
}

/// Decode one visit-log record; a decode failure is a
/// [`BundleError::Corrupt`] at `loc`.
pub fn decode_record(loc: &RecordLoc, payload: &[u8]) -> Result<Record, BundleError> {
    codec::decode(payload).map_err(|e| loc.corrupt(format!("unparseable record: {e}")))
}

/// A fully resolved visit streamed out of a bundle: the coordinates of
/// a [`VisitRef`] joined with its payload from the object store.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleVisit {
    /// Registerable domain of the site.
    pub site: String,
    /// Full page URL.
    pub url: String,
    /// Profile index.
    pub profile: usize,
    /// Content hash of the payload — the object store's address,
    /// already verified against the payload by the reader. Downstream
    /// consumers use it as a ready-made memoization key (the tree
    /// cache) without re-hashing the visit.
    pub object: u64,
    /// The visit payload.
    pub visit: VisitResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmtree_url::Url;

    #[test]
    fn records_roundtrip() {
        for rec in [
            Record::Visit(VisitRef {
                site: "a.com".into(),
                url: "https://www.a.com/p".into(),
                profile: 3,
                object: 0x00ff_00ff_00ff_00ff,
            }),
            Record::Checkpoint(Checkpoint {
                site: "a.com".into(),
                visits: 20,
            }),
        ] {
            let bytes = codec::encode(&rec);
            assert_eq!(decode_record(&loc(), &bytes).unwrap(), rec);
        }
    }

    fn loc() -> RecordLoc {
        RecordLoc {
            segment: "objects-000.seg".into(),
            line: 4,
            offset: 96,
        }
    }

    #[test]
    fn encoded_entry_is_address_then_codec_bytes_and_decodes_back() {
        let visit = VisitResult::failed(Url::parse("https://www.a.com/").unwrap());
        let encoded = EncodedObject::encode(&visit);
        let body = codec::encode(&visit);
        assert_eq!(encoded.hash, object_hash(&body));
        assert_eq!(encoded.entry[..ADDRESS_LEN], encoded.hash.to_le_bytes());
        assert_eq!(encoded.entry[ADDRESS_LEN..], body[..]);
        assert_eq!(
            decode_object(&loc(), &encoded.entry).unwrap(),
            (encoded.hash, visit)
        );
    }

    #[test]
    fn decode_object_rejects_defects_at_the_record() {
        let visit = VisitResult::failed(Url::parse("https://www.a.com/").unwrap());
        let entry = EncodedObject::encode(&visit).entry;
        let short = entry[..ADDRESS_LEN - 1].to_vec();
        let mut readdressed = entry.clone();
        readdressed[..ADDRESS_LEN].copy_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        // A correctly addressed body that is not a visit.
        let mut retyped = object_hash(&[7]).to_le_bytes().to_vec();
        retyped.push(7);
        for (bad, expect) in [
            (short, "malformed object entry"),
            (
                entry[..entry.len() - 1].to_vec(),
                "content address mismatch",
            ),
            (readdressed, "content address mismatch"),
            (retyped, "unparseable object payload"),
        ] {
            match decode_object(&loc(), &bad) {
                Err(BundleError::Corrupt {
                    segment,
                    line,
                    offset,
                    detail,
                }) => {
                    assert_eq!((segment.as_str(), line, offset), ("objects-000.seg", 4, 96));
                    assert!(detail.contains(expect), "{detail}");
                }
                other => panic!("expected Corrupt for {bad:?}, got {other:?}"),
            }
        }
    }
}
