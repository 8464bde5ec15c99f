//! The one binary encoding of bundle records.
//!
//! Every bundle object ([`VisitResult`] and everything it holds) and
//! every visit-log [`Record`] is written by this module and decoded
//! straight back into the typed structs, with no intermediate value
//! tree. The encoding is positional: fields in declaration order, no
//! names, no padding.
//!
//! | value | bytes |
//! |---|---|
//! | `u16`, `u32`, `u64`, `usize` | unsigned LEB128 varint, shortest form |
//! | `i64` | zigzag, then varint |
//! | `bool` | one byte, `0` or `1` |
//! | `String` | varint byte length, then the UTF-8 bytes |
//! | `Option<T>` | tag byte `0` (none), or `1` then `T` |
//! | `Vec<T>` | varint element count, then each element |
//! | enum | tag byte in declaration order, then the variant's fields |
//! | [`VisitRef::object`] | 8 bytes little-endian (a hash: varints would not shrink it) |
//!
//! Decoding treats its input as untrusted. Every length and count is
//! checked against the bytes that remain before anything is allocated;
//! a truncated input, an unknown tag, invalid UTF-8, a non-shortest
//! varint and trailing bytes are each a [`CodecError`]; nothing panics.
//! Decoding is therefore injective — bytes that decode re-encode to
//! themselves — so a content address over stored bytes addresses the
//! decoded value.

use crate::record::{Checkpoint, Record, VisitRef};
use wmtree_browser::{FrameRecord, RequestRecord, StackEntry, TriggerSource, VisitResult};
use wmtree_net::cookie::{Cookie, SameSite};
use wmtree_net::{ResourceType, Status};
use wmtree_url::Url;

/// Why a byte string does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset into the decoded input where decoding failed.
    pub offset: usize,
    /// What is wrong there.
    pub what: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for CodecError {}

/// A value with a binary encoding.
pub trait Codec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `d`.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// The encoding of `value`.
pub fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode exactly one `T` from `bytes`; bytes left over are an error.
pub fn decode<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Decoder::new(bytes);
    let value = T::decode(&mut d)?;
    if d.remaining() > 0 {
        return Err(d.error("trailing bytes after the record"));
    }
    Ok(value)
}

/// A bounds-checked cursor over untrusted input, handed to
/// [`Codec::decode`].
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn error(&self, what: &'static str) -> CodecError {
        CodecError {
            offset: self.pos,
            what,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(self.error("input ends inside a value"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.error("input ends inside a value"))?;
        self.pos += 1;
        Ok(b)
    }

    /// One unsigned LEB128 varint in its shortest form.
    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(self.error("varint overflows 64 bits"));
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(self.error("varint not in its shortest form"));
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A byte length or element count, checked against the remaining
    /// input before the caller allocates for it (every encoded element
    /// takes at least one byte).
    fn length(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(self.error("length prefix exceeds the remaining input")),
        }
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.length()?;
        let start = self.pos;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|e| CodecError {
            offset: start + e.valid_up_to(),
            what: "invalid UTF-8 in a string",
        })
    }

    /// A borrowed string behind an `Option` tag.
    fn opt_str(&mut self) -> Result<Option<&'a str>, CodecError> {
        match self.tag(2)? {
            0 => Ok(None),
            _ => self.str().map(Some),
        }
    }

    /// A one-byte enum tag below `variants`.
    fn tag(&mut self, variants: u8) -> Result<u8, CodecError> {
        let tag = self.byte()?;
        if tag >= variants {
            self.pos -= 1;
            return Err(self.error("unknown enum tag"));
        }
        Ok(tag)
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<u64, CodecError> {
        d.varint()
    }
}

/// Narrow unsigned integers travel as `u64` varints.
macro_rules! narrow_uint {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, *self as u64);
            }
            fn decode(d: &mut Decoder<'_>) -> Result<$t, CodecError> {
                let v = d.varint()?;
                <$t>::try_from(v).map_err(|_| d.error("integer out of range"))
            }
        }
    )*};
}
narrow_uint!(u16, u32, usize);

impl Codec for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, ((self << 1) ^ (self >> 63)) as u64);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<i64, CodecError> {
        let z = d.varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(d: &mut Decoder<'_>) -> Result<bool, CodecError> {
        Ok(d.tag(2)? == 1)
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(out, self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<String, CodecError> {
        Ok(d.str()?.to_owned())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Option<T>, CodecError> {
        match d.tag(2)? {
            0 => Ok(None),
            _ => Ok(Some(T::decode(d)?)),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Vec<T>, CodecError> {
        let n = d.length()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl Codec for Url {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(out, self.scheme());
        encode_str(out, self.host());
        self.port().encode(out);
        encode_str(out, self.path());
        encode_opt_str(out, self.query());
        encode_opt_str(out, self.fragment());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Url, CodecError> {
        // Components are borrowed from the input and copied once, into
        // the URL's own buffer.
        let scheme = d.str()?;
        let host = d.str()?;
        let port = Codec::decode(d)?;
        let path = d.str()?;
        let query = d.opt_str()?;
        let fragment = d.opt_str()?;
        Ok(Url::from_parts(scheme, host, port, path, query, fragment))
    }
}

/// A borrowed string, encoded as its owned `String` would be.
fn encode_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A borrowed optional string, encoded as `Option<String>` would be.
fn encode_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            encode_str(out, s);
        }
    }
}

impl Codec for Status {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Status, CodecError> {
        Ok(Status(Codec::decode(d)?))
    }
}

/// Resource types in tag order (declaration order).
const RESOURCE_TYPES: [ResourceType; 13] = [
    ResourceType::MainFrame,
    ResourceType::SubFrame,
    ResourceType::Script,
    ResourceType::Stylesheet,
    ResourceType::Image,
    ResourceType::ImageSet,
    ResourceType::Font,
    ResourceType::Media,
    ResourceType::Xhr,
    ResourceType::WebSocket,
    ResourceType::Beacon,
    ResourceType::CspReport,
    ResourceType::Other,
];

impl Codec for ResourceType {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<ResourceType, CodecError> {
        Ok(RESOURCE_TYPES[d.tag(RESOURCE_TYPES.len() as u8)? as usize])
    }
}

impl Codec for SameSite {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<SameSite, CodecError> {
        Ok([SameSite::Strict, SameSite::Lax, SameSite::None][d.tag(3)? as usize])
    }
}

impl Codec for Cookie {
    fn encode(&self, out: &mut Vec<u8>) {
        let Cookie {
            name,
            value,
            domain,
            host_only,
            path,
            secure,
            http_only,
            same_site,
            max_age,
            expires,
        } = self;
        name.encode(out);
        value.encode(out);
        domain.encode(out);
        host_only.encode(out);
        path.encode(out);
        secure.encode(out);
        http_only.encode(out);
        same_site.encode(out);
        max_age.encode(out);
        expires.encode(out);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Cookie, CodecError> {
        Ok(Cookie {
            name: Codec::decode(d)?,
            value: Codec::decode(d)?,
            domain: Codec::decode(d)?,
            host_only: Codec::decode(d)?,
            path: Codec::decode(d)?,
            secure: Codec::decode(d)?,
            http_only: Codec::decode(d)?,
            same_site: Codec::decode(d)?,
            max_age: Codec::decode(d)?,
            expires: Codec::decode(d)?,
        })
    }
}

impl Codec for StackEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        let StackEntry { url, function } = self;
        url.encode(out);
        function.encode(out);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<StackEntry, CodecError> {
        Ok(StackEntry {
            url: Codec::decode(d)?,
            function: Codec::decode(d)?,
        })
    }
}

impl Codec for TriggerSource {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, url) = match self {
            TriggerSource::Parser => (0, None),
            TriggerSource::Script(u) => (1, Some(u)),
            TriggerSource::Css(u) => (2, Some(u)),
            TriggerSource::Redirect(u) => (3, Some(u)),
            TriggerSource::WebSocketPush(u) => (4, Some(u)),
            TriggerSource::Navigation => (5, None),
        };
        out.push(tag);
        if let Some(u) = url {
            u.encode(out);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<TriggerSource, CodecError> {
        Ok(match d.tag(6)? {
            0 => TriggerSource::Parser,
            1 => TriggerSource::Script(Codec::decode(d)?),
            2 => TriggerSource::Css(Codec::decode(d)?),
            3 => TriggerSource::Redirect(Codec::decode(d)?),
            4 => TriggerSource::WebSocketPush(Codec::decode(d)?),
            _ => TriggerSource::Navigation,
        })
    }
}

impl Codec for RequestRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let RequestRecord {
            id,
            url,
            resource_type,
            frame_id,
            call_stack,
            redirect_from,
            trigger,
            started_ms,
            completed_ms,
            status,
            set_cookies,
            is_frame_navigation,
        } = self;
        id.encode(out);
        url.encode(out);
        resource_type.encode(out);
        frame_id.encode(out);
        call_stack.encode(out);
        redirect_from.encode(out);
        trigger.encode(out);
        started_ms.encode(out);
        completed_ms.encode(out);
        status.encode(out);
        set_cookies.encode(out);
        is_frame_navigation.encode(out);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<RequestRecord, CodecError> {
        Ok(RequestRecord {
            id: Codec::decode(d)?,
            url: Codec::decode(d)?,
            resource_type: Codec::decode(d)?,
            frame_id: Codec::decode(d)?,
            call_stack: Codec::decode(d)?,
            redirect_from: Codec::decode(d)?,
            trigger: Codec::decode(d)?,
            started_ms: Codec::decode(d)?,
            completed_ms: Codec::decode(d)?,
            status: Codec::decode(d)?,
            set_cookies: Codec::decode(d)?,
            is_frame_navigation: Codec::decode(d)?,
        })
    }
}

impl Codec for FrameRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let FrameRecord {
            frame_id,
            parent_frame_id,
            document_url,
        } = self;
        frame_id.encode(out);
        parent_frame_id.encode(out);
        document_url.encode(out);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<FrameRecord, CodecError> {
        Ok(FrameRecord {
            frame_id: Codec::decode(d)?,
            parent_frame_id: Codec::decode(d)?,
            document_url: Codec::decode(d)?,
        })
    }
}

impl Codec for VisitResult {
    fn encode(&self, out: &mut Vec<u8>) {
        let VisitResult {
            page_url,
            success,
            timed_out,
            requests,
            frames,
            cookies,
            duration_ms,
        } = self;
        page_url.encode(out);
        success.encode(out);
        timed_out.encode(out);
        requests.encode(out);
        frames.encode(out);
        cookies.encode(out);
        duration_ms.encode(out);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<VisitResult, CodecError> {
        Ok(VisitResult {
            page_url: Codec::decode(d)?,
            success: Codec::decode(d)?,
            timed_out: Codec::decode(d)?,
            requests: Codec::decode(d)?,
            frames: Codec::decode(d)?,
            cookies: Codec::decode(d)?,
            duration_ms: Codec::decode(d)?,
        })
    }
}

impl Codec for VisitRef {
    fn encode(&self, out: &mut Vec<u8>) {
        let VisitRef {
            site,
            url,
            profile,
            object,
        } = self;
        site.encode(out);
        url.encode(out);
        profile.encode(out);
        out.extend_from_slice(&object.to_le_bytes());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<VisitRef, CodecError> {
        Ok(VisitRef {
            site: Codec::decode(d)?,
            url: Codec::decode(d)?,
            profile: Codec::decode(d)?,
            object: {
                let mut le = [0u8; 8];
                le.copy_from_slice(d.take(8)?);
                u64::from_le_bytes(le)
            },
        })
    }
}

impl Codec for Checkpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        let Checkpoint { site, visits } = self;
        site.encode(out);
        visits.encode(out);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Checkpoint, CodecError> {
        Ok(Checkpoint {
            site: Codec::decode(d)?,
            visits: Codec::decode(d)?,
        })
    }
}

impl Codec for Record {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::Visit(v) => {
                out.push(0);
                v.encode(out);
            }
            Record::Checkpoint(c) => {
                out.push(1);
                c.encode(out);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Record, CodecError> {
        Ok(match d.tag(2)? {
            0 => Record::Visit(Codec::decode(d)?),
            _ => Record::Checkpoint(Codec::decode(d)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode(&v);
        assert_eq!(decode::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn integers_roundtrip_at_their_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            roundtrip(v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            roundtrip(v);
        }
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        assert_eq!(encode(&300u64), vec![0xac, 0x02]);
        assert_eq!(encode(&-1i64), vec![0x01]);
    }

    #[test]
    fn malformed_integers_are_errors() {
        // Overlong zero, an 11-byte varint, a u16 out of range.
        assert!(decode::<u64>(&[0x80, 0x00]).is_err());
        assert!(decode::<u64>(&[0xff; 11]).is_err());
        assert!(
            decode::<u64>(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]).is_err()
        );
        assert!(decode::<u16>(&encode(&65_536u64)).is_err());
        assert!(decode::<bool>(&[2]).is_err());
    }

    #[test]
    fn enums_roundtrip_and_unknown_tags_fail() {
        for rt in RESOURCE_TYPES {
            roundtrip(rt);
        }
        for s in [SameSite::Strict, SameSite::Lax, SameSite::None] {
            roundtrip(s);
        }
        let err = decode::<ResourceType>(&[13]).unwrap_err();
        assert_eq!((err.offset, err.what), (0, "unknown enum tag"));
        assert!(decode::<TriggerSource>(&[6]).is_err());
        assert!(decode::<Record>(&[2]).is_err());
    }

    #[test]
    fn string_defects_are_located() {
        roundtrip("héllo".to_string());
        let err = decode::<String>(&[3, b'a', 0xff, b'b']).unwrap_err();
        assert_eq!((err.offset, err.what), (2, "invalid UTF-8 in a string"));
        let err = decode::<String>(&[0xff, 0x7f, b'a']).unwrap_err();
        assert_eq!(err.what, "length prefix exceeds the remaining input");
        let err = decode::<String>(&[1, b'a', b'b']).unwrap_err();
        assert_eq!(
            (err.offset, err.what),
            (2, "trailing bytes after the record")
        );
    }
}
