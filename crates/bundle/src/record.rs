//! The record types the segment logs store.

use crate::error::BundleError;
use crate::hash::{from_hex, object_hash, to_hex};
use crate::segment::RecordLoc;
use serde::{Deserialize, Serialize};
use wmtree_browser::VisitResult;

/// One record of the visit log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisitRef {
    /// Registerable domain of the site.
    pub site: String,
    /// Full page URL.
    pub url: String,
    /// Profile index (Table 1 order).
    pub profile: usize,
    /// Content hash (hex) of the visit payload in the object store.
    pub object: String,
}

/// A site-completion checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The completed site (registerable domain).
    pub site: String,
    /// Number of visit records the site contributed.
    pub visits: usize,
}

/// One visit payload encoded for the object store: its content address
/// and the object-log record that stores it.
///
/// The record is `{"hash":"<hex>","visit":<canonical>}` — the exact
/// bytes serde emits for a `{hash, visit}` struct — spliced around the
/// visit's canonical JSON so the payload is serialized once. The
/// content address is [`object_hash`] over those canonical bytes as
/// stored, which is what [`decode_object`] verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedObject {
    /// Content address of the canonical visit bytes.
    pub hash: u64,
    /// The object-log record payload.
    pub entry: String,
}

/// Framing of an object-log record around the hex content address and
/// the canonical visit bytes.
const ENTRY_HEAD: &str = "{\"hash\":\"";
const ENTRY_MID: &str = "\",\"visit\":";
const ENTRY_TAIL: char = '}';

impl EncodedObject {
    /// Serialize `visit` canonically, address it, and frame its
    /// object-log record. Runs wherever the visit was produced (the
    /// crawl workers), so the writer only dedups and appends.
    pub fn encode(visit: &VisitResult) -> Result<EncodedObject, BundleError> {
        // Scope guard only: the span's clock reads stay inside
        // telemetry's own snapshot, never the encoded bytes.
        let _span = wmtree_telemetry::span("bundle.encode"); // wmtree-lint: allow(WM0301)
        let canonical = serde_json::to_string(visit)
            .map_err(|e| BundleError::json("serializing visit payload", e))?;
        let hash = object_hash(canonical.as_bytes());
        let mut entry =
            String::with_capacity(ENTRY_HEAD.len() + 16 + ENTRY_MID.len() + canonical.len() + 1);
        entry.push_str(ENTRY_HEAD);
        entry.push_str(&to_hex(hash));
        entry.push_str(ENTRY_MID);
        entry.push_str(&canonical);
        entry.push(ENTRY_TAIL);
        Ok(EncodedObject { hash, entry })
    }
}

/// Decode and verify one object-log record: the workspace's only
/// object decoder. The framing must be exactly what
/// [`EncodedObject::encode`] writes, the content address must equal
/// [`object_hash`] of the visit bytes *as stored*, and those bytes must
/// parse as a [`VisitResult`]. Every defect is a
/// [`BundleError::Corrupt`] at `loc`.
pub fn decode_object(loc: &RecordLoc, payload: &str) -> Result<(u64, VisitResult), BundleError> {
    let framed = payload.strip_prefix(ENTRY_HEAD).and_then(|rest| {
        let hex = rest.get(..16)?;
        let visit = rest[16..]
            .strip_prefix(ENTRY_MID)?
            .strip_suffix(ENTRY_TAIL)?;
        Some((hex, visit))
    });
    let Some((hex, visit)) = framed else {
        return Err(loc.corrupt(
            "malformed object entry: expected {\"hash\":\"<16 hex digits>\",\"visit\":<payload>}",
        ));
    };
    let hash =
        from_hex(hex).ok_or_else(|| loc.corrupt(format!("malformed object hash `{hex}`")))?;
    let actual = object_hash(visit.as_bytes());
    if actual != hash {
        return Err(loc.corrupt(format!(
            "content address mismatch: entry says {hex}, stored payload hashes to {}",
            to_hex(actual)
        )));
    }
    let visit = serde_json::from_str(visit)
        .map_err(|e| loc.corrupt(format!("unparseable object payload: {e}")))?;
    Ok((hash, visit))
}

/// Decode one visit-log record; a parse failure is a
/// [`BundleError::Corrupt`] at `loc`.
pub fn decode_record(loc: &RecordLoc, payload: &str) -> Result<Record, BundleError> {
    serde_json::from_str(payload).map_err(|e| loc.corrupt(format!("unparseable record: {e}")))
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
    fn record_json_roundtrip() {
        let rec = Record::Visit(VisitRef {
            site: "a.com".into(),
            url: "https://www.a.com/p".into(),
            profile: 3,
            object: "00ff00ff00ff00ff".into(),
        });
        let json = serde_json::to_string(&rec).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);

        let cp = Record::Checkpoint(Checkpoint {
            site: "a.com".into(),
            visits: 20,
        });
        let json = serde_json::to_string(&cp).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cp);
    }

    fn loc() -> RecordLoc {
        RecordLoc {
            segment: "objects-000.seg".into(),
            line: 4,
            offset: 96,
        }
    }

    #[test]
    fn encoded_entry_is_what_serde_emits_and_decodes_back() {
        #[derive(Serialize)]
        struct Entry {
            hash: String,
            visit: VisitResult,
        }
        let visit = VisitResult::failed(Url::parse("https://www.a.com/").unwrap());
        let encoded = EncodedObject::encode(&visit).unwrap();
        let canonical = serde_json::to_string(&visit).unwrap();
        assert_eq!(encoded.hash, object_hash(canonical.as_bytes()));
        let serde_entry = serde_json::to_string(&Entry {
            hash: to_hex(encoded.hash),
            visit: visit.clone(),
        })
        .unwrap();
        assert_eq!(
            encoded.entry, serde_entry,
            "splice must match serde byte for byte"
        );
        assert_eq!(
            decode_object(&loc(), &encoded.entry).unwrap(),
            (encoded.hash, visit)
        );
    }

    #[test]
    fn decode_object_rejects_defects_at_the_record() {
        let visit = VisitResult::failed(Url::parse("https://www.a.com/").unwrap());
        let entry = EncodedObject::encode(&visit).unwrap().entry;
        let reframed = entry.replacen("{\"hash\":", "{ \"hash\":", 1);
        let mut readdressed = entry.clone();
        readdressed.replace_range(9..25, "0123456789abcdef");
        let retyped = format!("{}{}", &entry[..35], "[1]}");
        let retyped = retyped.replacen(&entry[9..25], &to_hex(object_hash(b"[1]")), 1);
        for (bad, expect) in [
            (reframed.as_str(), "malformed object entry"),
            (&entry[..entry.len() - 1], "content address mismatch"),
            (readdressed.as_str(), "content address mismatch"),
            (retyped.as_str(), "unparseable object payload"),
        ] {
            match decode_object(&loc(), bad) {
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
