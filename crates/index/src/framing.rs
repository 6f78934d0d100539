//! The framing both manifests share, the live directory's `MANIFEST`
//! (`NUCMAN01`) and a sharded root's `SHARDS` (`NUCSHD01`):
//!
//! ```text
//! magic[8] | body_len u32le | body_crc32 u32le | body
//! body: version vu64
//!       k vu64 | stride vu64 | granularity u8 (0) | codec u8 | storage u8 (1)
//!       entry_count vu64 | entry_count entries
//! ```
//!
//! The body is CRC-guarded and the file must end exactly at the body:
//! trailing bytes are a format violation. Each manifest brings its magic,
//! the section its errors name, and its entries.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::compress::ListCodec;
use crate::durable::{crc32, read_exact_chunked};
use crate::error::IndexError;
use crate::interval::{
    check_granularity, check_storage, DIRECT_CODING_STORAGE, OFFSET_GRANULARITY,
};

/// Fixed header size: magic + body_len + body_crc.
const HEADER_LEN: u64 = 16;
/// Cap on the declared body length (a manifest is tiny; anything near
/// this is corrupt).
const MAX_BODY_LEN: u32 = 64 << 20;

/// One manifest file type: its magic and the section its errors name.
pub(crate) struct Framing {
    pub magic: &'static [u8; 8],
    pub section: &'static str,
}

/// What both manifests' bodies open with.
pub(crate) struct Head {
    pub version: u64,
    pub k: usize,
    pub stride: usize,
    pub codec: ListCodec,
}

impl Framing {
    /// The full file image: the header, then a body of `head` and
    /// `count` entries, which `entries` writes.
    pub fn encode(&self, head: &Head, count: usize, entries: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + count * 16);
        put_vu64(&mut body, head.version);
        put_vu64(&mut body, head.k as u64);
        put_vu64(&mut body, head.stride as u64);
        body.push(OFFSET_GRANULARITY);
        body.push(head.codec.tag());
        body.push(DIRECT_CODING_STORAGE);
        put_vu64(&mut body, count as u64);
        entries(&mut body);
        let mut out = Vec::with_capacity(HEADER_LEN as usize + body.len());
        out.extend_from_slice(self.magic);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Verify a full file image's magic, length and CRC, and parse its
    /// head: the head, the entry count, and a reader over the entries.
    pub fn decode<'a>(&self, bytes: &'a [u8]) -> Result<(Head, u64, Body<'a>), IndexError> {
        let section = self.section;
        if bytes.len() < HEADER_LEN as usize {
            return Err(IndexError::bad_in("manifest shorter than header", section));
        }
        if &bytes[..8] != self.magic {
            return Err(IndexError::bad_at("bad manifest magic", section, 0));
        }
        let body_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if body_len > MAX_BODY_LEN {
            return Err(IndexError::bad_at(
                "manifest body length implausible",
                section,
                8,
            ));
        }
        let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let body = &bytes[HEADER_LEN as usize..];
        if body.len() != body_len as usize {
            return Err(IndexError::bad_at(
                "manifest body length does not match file size",
                section,
                8,
            ));
        }
        let actual_crc = crc32(body);
        if actual_crc != stored_crc {
            return Err(IndexError::checksum(
                section, HEADER_LEN, stored_crc, actual_crc,
            ));
        }

        let mut body = Body { cur: body, section };
        let version = body.vu64()?;
        let k = body.vu64()?;
        let stride = body.vu64()?;
        if k == 0 || k > 32 {
            return Err(IndexError::bad_in("manifest k out of range", section));
        }
        if stride == 0 {
            return Err(IndexError::bad_in("manifest stride is zero", section));
        }
        check_granularity(body.u8()?)?;
        let codec = ListCodec::from_tag(body.u8()?)?;
        check_storage(body.u8()?)?;
        let count = body.vu64()?;
        // Every entry takes at least one byte: bound the count by the
        // rest of the body so a corrupt count can't drive a huge
        // allocation.
        if count > body.cur.len() as u64 {
            return Err(IndexError::bad_in(
                "manifest entry count implausible",
                section,
            ));
        }
        let head = Head {
            version,
            k: k as usize,
            stride: stride as usize,
            codec,
        };
        Ok((head, count, body))
    }

    /// Read the file at `path` whole. A file too short or too long to be
    /// a manifest, or longer than its size said, is refused (decode
    /// checks the image it is handed, so hand it exactly the file).
    pub fn load(&self, path: &Path) -> Result<Vec<u8>, IndexError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < HEADER_LEN || len > HEADER_LEN + u64::from(MAX_BODY_LEN) {
            return Err(IndexError::bad_in(
                "manifest file size implausible",
                self.section,
            ));
        }
        let bytes = read_exact_chunked(&mut file, len as usize)?;
        let mut trailing = [0u8; 1];
        if file.read(&mut trailing)? != 0 {
            return Err(IndexError::bad_in(
                "trailing bytes after manifest body",
                self.section,
            ));
        }
        Ok(bytes)
    }
}

/// A reader over a manifest body's entries.
pub(crate) struct Body<'a> {
    cur: &'a [u8],
    section: &'static str,
}

impl Body<'_> {
    fn u8(&mut self) -> Result<u8, IndexError> {
        let (&first, rest) = self
            .cur
            .split_first()
            .ok_or_else(|| IndexError::bad_in("manifest body truncated", self.section))?;
        self.cur = rest;
        Ok(first)
    }

    /// The next LEB128 varint.
    pub fn vu64(&mut self) -> Result<u64, IndexError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(IndexError::bad_in("varint overflows u64", self.section));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(IndexError::bad_in("varint too long", self.section));
            }
        }
    }

    /// A violation of the entries, in this manifest's section.
    pub fn bad(&self, what: &'static str) -> IndexError {
        IndexError::bad_in(what, self.section)
    }

    /// The body must end after the last entry.
    pub fn finish(self) -> Result<(), IndexError> {
        if !self.cur.is_empty() {
            return Err(self.bad("trailing bytes after manifest body"));
        }
        Ok(())
    }
}

/// Append `value` as a LEB128 varint.
pub(crate) fn put_vu64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The framing checks each manifest's tests run on its own sample.
#[cfg(test)]
pub(crate) mod checks {
    use std::fmt::Debug;
    use std::path::Path;

    use crate::error::IndexError;

    /// A manifest file type under test.
    pub(crate) trait Framed: Sized + PartialEq + Debug {
        fn encode(&self) -> Vec<u8>;
        fn decode(bytes: &[u8]) -> Result<Self, IndexError>;
        fn save(&self, dir: &Path) -> Result<(), IndexError>;
        fn load(dir: &Path) -> Result<Self, IndexError>;
    }

    /// Decoding the image gives the manifest back.
    pub(crate) fn round_trip<M: Framed>(m: &M) -> M {
        let back = M::decode(&m.encode()).unwrap();
        assert_eq!(&back, m);
        back
    }

    /// Saving into a directory and loading from it gives it back.
    pub(crate) fn save_and_load<M: Framed>(m: &M, name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        m.save(&dir).unwrap();
        assert_eq!(&M::load(&dir).unwrap(), m);
        dir
    }

    pub(crate) fn every_byte_flip_is_detected<M: Framed>(m: &M) {
        let bytes = m.encode();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    M::decode(&corrupt).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    pub(crate) fn every_truncation_is_detected<M: Framed>(m: &M) {
        let bytes = m.encode();
        for len in 0..bytes.len() {
            assert!(
                M::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    pub(crate) fn trailing_bytes_rejected<M: Framed>(m: &M) {
        let mut bytes = m.encode();
        bytes.push(0);
        assert!(M::decode(&bytes).is_err());
    }
}
