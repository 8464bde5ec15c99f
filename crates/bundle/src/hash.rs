//! Content and record hashing.
//!
//! All bundle checksums are the workspace's stable FNV-1a/splitmix
//! hash ([`wmtree_webgen::stable_hash`]) under domain-separating seeds.
//! Record frames store them as little-endian `u64`s; the manifest and
//! error messages render them as fixed-width lowercase hex.

use crate::error::BundleError;
use crate::manifest::MANIFEST_FILE;
use std::path::Path;
use wmtree_webgen::stable_hash;

/// Domain seed for content addresses of stored objects.
const OBJECT_SEED: u64 = 0x776d_6275_6f62_6a31; // "wmbuobj1"
/// Domain seed for per-record payload checksums.
const LINE_SEED: u64 = 0x776d_6275_6c6e_3131; // "wmbuln11"
/// Domain seed (initial value) for the per-segment rolling chain.
const CHAIN_SEED: u64 = 0x776d_6275_6368_6e31; // "wmbuchn1"
/// Domain seed for whole-bundle content hashes.
const BUNDLE_SEED: u64 = 0x776d_6275_6e64_6c31; // "wmbundl1"

/// Content address of an encoded object payload.
pub fn object_hash(payload: &[u8]) -> u64 {
    stable_hash(OBJECT_SEED, payload)
}

/// Checksum of one record's payload, stored in its frame header.
pub fn line_checksum(payload: &[u8]) -> u64 {
    stable_hash(LINE_SEED, payload)
}

/// The initial value of a segment's rolling chain checksum.
pub fn chain_start() -> u64 {
    CHAIN_SEED
}

/// Fold one record's frame header (length + payload checksum) into a
/// segment's rolling chain.
pub fn chain_fold(chain: u64, line: &[u8]) -> u64 {
    stable_hash(chain, line)
}

/// Content hash of a whole bundle, as fixed-width hex.
///
/// Defined as the stable hash of the `MANIFEST.json` bytes under a
/// bundle-specific domain seed. The manifest pins the record count and
/// rolling chain checksum of every segment, so any committed byte of
/// the archive is transitively covered: two bundles share a content
/// hash iff their committed contents are byte-identical. (Bytes beyond
/// the manifest-covered prefix are uncommitted crash leftovers and
/// deliberately excluded — resuming truncates them.)
pub fn bundle_content_hash(dir: &Path) -> Result<String, BundleError> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = std::fs::read(&path).map_err(|source| BundleError::Io { path, source })?;
    Ok(to_hex(stable_hash(BUNDLE_SEED, &bytes)))
}

/// Render a hash as fixed-width lowercase hex, as the manifest stores
/// chains.
pub fn to_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Parse a fixed-width hex hash back. `None` for malformed input.
pub fn from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for h in [0, 1, u64::MAX, 0xdead_beef_0123_4567] {
            assert_eq!(from_hex(&to_hex(h)), Some(h));
        }
    }

    #[test]
    fn hex_rejects_malformed() {
        assert_eq!(from_hex(""), None);
        assert_eq!(from_hex("123"), None);
        assert_eq!(from_hex("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(from_hex("00000000000000000"), None);
    }

    #[test]
    fn domains_are_separated() {
        // The same payload must hash differently per domain, or a
        // record forged from an object (or vice versa) would verify.
        let p = b"payload";
        assert_ne!(object_hash(p), line_checksum(p));
        assert_ne!(object_hash(p), chain_fold(chain_start(), p));
    }

    #[test]
    fn chain_is_order_sensitive() {
        let a = chain_fold(chain_fold(chain_start(), b"one"), b"two");
        let b = chain_fold(chain_fold(chain_start(), b"two"), b"one");
        assert_ne!(a, b);
    }
}
