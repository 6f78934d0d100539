//! The segment manifest: the single durable source of truth for a live
//! (incrementally ingested) database directory.
//!
//! A live directory contains immutable segment files (`seg-<id>.nucidx` +
//! `seg-<id>.nucsto`) plus one `MANIFEST` naming, in order, exactly the
//! segments that constitute the database. Every flush or compaction writes
//! the segment files first, then swaps in a new manifest via
//! [`AtomicFile`]; superseded files are deleted only after the new
//! manifest is durable. A crash at any point therefore leaves either the
//! old manifest (pointing at the old, still-present files) or the new one
//! — never a torn state. Files present on disk but not referenced by the
//! manifest are *orphans*: debris from an interrupted flush, safe to
//! delete.
//!
//! ## Format (`NUCMAN01`)
//!
//! ```text
//! magic "NUCMAN01" | body_len u32le | body_crc32 u32le | body
//! body: version vu64
//!       k vu64 | stride vu64 | granularity u8 (0) | codec u8 | storage u8 (1)
//!       segment_count vu64
//!       per segment: id vu64 | records vu64 | index_bytes vu64 | store_bytes vu64
//! ```
//!
//! The body is CRC-guarded and the file must end exactly at the body —
//! trailing bytes are a format violation. The manifest is
//! self-describing: it carries the index parameters and codec so an empty
//! live directory reopens with the configuration it was created with.
//! Stopping is deliberately absent — stopped indexes cannot be merged
//! ([`merge_indexes`](crate::merge::merge_indexes)), so live directories
//! never use it.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::compress::ListCodec;
use crate::durable::{crc32, read_exact_chunked, AtomicFile};
use crate::error::IndexError;
use crate::interval::{
    check_granularity, check_storage, DIRECT_CODING_STORAGE, OFFSET_GRANULARITY,
};

/// File name of the manifest inside a live directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

const MAGIC: &[u8; 8] = b"NUCMAN01";
/// Fixed header size: magic + body_len + body_crc.
const HEADER_LEN: u64 = 16;
/// Cap on the declared body length (a manifest is tiny; anything near
/// this is corrupt).
const MAX_BODY_LEN: u32 = 64 << 20;

/// One immutable on-disk segment referenced by a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Monotonically assigned segment id; file names derive from it.
    pub id: u64,
    /// Number of records in the segment.
    pub records: u32,
    /// Size of the segment's index file in bytes (as written).
    pub index_bytes: u64,
    /// Size of the segment's store file in bytes (as written).
    pub store_bytes: u64,
}

impl SegmentMeta {
    /// File name of this segment's index (`seg-<id>.nucidx`).
    pub fn index_file(&self) -> String {
        segment_index_file(self.id)
    }

    /// File name of this segment's sequence store (`seg-<id>.nucsto`).
    pub fn store_file(&self) -> String {
        segment_store_file(self.id)
    }

    /// Total on-disk footprint of the segment.
    pub fn bytes(&self) -> u64 {
        self.index_bytes + self.store_bytes
    }
}

/// File name of segment `id`'s index file.
pub fn segment_index_file(id: u64) -> String {
    format!("seg-{id:06}.nucidx")
}

/// File name of segment `id`'s store file.
pub fn segment_store_file(id: u64) -> String {
    format!("seg-{id:06}.nucsto")
}

/// If `name` is a segment file name (`seg-<id>.nucidx` / `seg-<id>.nucsto`),
/// return its id.
pub fn parse_segment_file(name: &str) -> Option<u64> {
    let stem = name
        .strip_suffix(".nucidx")
        .or_else(|| name.strip_suffix(".nucsto"))?;
    let digits = stem.strip_prefix("seg-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Is `name` a leftover temp file from an interrupted atomic write
/// (manifest or segment)? [`AtomicFile`] temp names are the destination
/// name plus a `.tmp.<pid>.<nonce>` suffix.
pub fn is_stale_temp(name: &str) -> bool {
    let Some(pos) = name.find(".tmp.") else {
        return false;
    };
    let base = &name[..pos];
    base == MANIFEST_FILE || parse_segment_file(base).is_some()
}

/// The versioned, CRC-checksummed list of segments that constitutes a
/// live database directory. See the module docs for format and crash
/// semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic manifest version, bumped on every save.
    pub version: u64,
    /// Interval length all segments were built with.
    pub k: usize,
    /// Extraction stride all segments were built with.
    pub stride: usize,
    /// List codec of all segments.
    pub codec: ListCodec,
    /// The segments, in record-id order: segment `i` holds the records
    /// whose global ids start at the sum of earlier segments' `records`.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// An empty version-0 manifest for a new live directory.
    pub fn new(k: usize, stride: usize, codec: ListCodec) -> Manifest {
        Manifest {
            version: 0,
            k,
            stride,
            codec,
            segments: Vec::new(),
        }
    }

    /// Total records across all segments.
    pub fn total_records(&self) -> u64 {
        self.segments.iter().map(|s| u64::from(s.records)).sum()
    }

    /// Total on-disk bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes()).sum()
    }

    /// Next unused segment id (one past the max referenced).
    pub fn next_segment_id(&self) -> u64 {
        self.segments.iter().map(|s| s.id + 1).max().unwrap_or(0)
    }

    /// Serialize to the full on-disk file image (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.segments.len() * 16);
        put_vu64(&mut body, self.version);
        put_vu64(&mut body, self.k as u64);
        put_vu64(&mut body, self.stride as u64);
        body.push(OFFSET_GRANULARITY);
        body.push(self.codec.tag());
        body.push(DIRECT_CODING_STORAGE);
        put_vu64(&mut body, self.segments.len() as u64);
        for seg in &self.segments {
            put_vu64(&mut body, seg.id);
            put_vu64(&mut body, u64::from(seg.records));
            put_vu64(&mut body, seg.index_bytes);
            put_vu64(&mut body, seg.store_bytes);
        }
        let mut out = Vec::with_capacity(HEADER_LEN as usize + body.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parse a full file image produced by [`Manifest::encode`],
    /// verifying magic, CRC, and exact end-of-file.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, IndexError> {
        if bytes.len() < HEADER_LEN as usize {
            return Err(IndexError::bad_in(
                "manifest shorter than header",
                "manifest",
            ));
        }
        if &bytes[..8] != MAGIC {
            return Err(IndexError::bad_at("bad manifest magic", "manifest", 0));
        }
        let body_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if body_len > MAX_BODY_LEN {
            return Err(IndexError::bad_at(
                "manifest body length implausible",
                "manifest",
                8,
            ));
        }
        let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let body = &bytes[HEADER_LEN as usize..];
        if body.len() != body_len as usize {
            return Err(IndexError::bad_at(
                "manifest body length does not match file size",
                "manifest",
                8,
            ));
        }
        let actual_crc = crc32(body);
        if actual_crc != stored_crc {
            return Err(IndexError::checksum(
                "manifest", HEADER_LEN, stored_crc, actual_crc,
            ));
        }

        let mut cur = body;
        let version = take_vu64(&mut cur)?;
        let k = take_vu64(&mut cur)?;
        let stride = take_vu64(&mut cur)?;
        if k == 0 || k > 32 {
            return Err(IndexError::bad_in("manifest k out of range", "manifest"));
        }
        if stride == 0 {
            return Err(IndexError::bad_in("manifest stride is zero", "manifest"));
        }
        check_granularity(take_u8(&mut cur)?)?;
        let codec = ListCodec::from_tag(take_u8(&mut cur)?)?;
        check_storage(take_u8(&mut cur)?)?;
        let count = take_vu64(&mut cur)?;
        // Each segment entry takes at least 4 bytes; bound count by the
        // remaining body so a corrupt count can't drive a huge allocation.
        if count > cur.len() as u64 {
            return Err(IndexError::bad_in(
                "manifest segment count implausible",
                "manifest",
            ));
        }
        let mut segments: Vec<SegmentMeta> = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = take_vu64(&mut cur)?;
            let records = take_vu64(&mut cur)?;
            let index_bytes = take_vu64(&mut cur)?;
            let store_bytes = take_vu64(&mut cur)?;
            if records > u64::from(u32::MAX) {
                return Err(IndexError::bad_in(
                    "segment record count overflows u32",
                    "manifest",
                ));
            }
            // Ids need not be ordered (compaction splices a fresh-id
            // merged segment into list position) but must be unique —
            // file names derive from them.
            if segments.iter().any(|s: &SegmentMeta| s.id == id) {
                return Err(IndexError::bad_in("duplicate segment id", "manifest"));
            }
            segments.push(SegmentMeta {
                id,
                records: records as u32,
                index_bytes,
                store_bytes,
            });
        }
        if !cur.is_empty() {
            return Err(IndexError::bad_in(
                "trailing bytes after manifest body",
                "manifest",
            ));
        }
        Ok(Manifest {
            version,
            k: k as usize,
            stride: stride as usize,
            codec,
            segments,
        })
    }

    /// Path of the manifest file inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Durably write this manifest to `dir/MANIFEST` via write-to-temp +
    /// fsync + atomic rename. On return the manifest — and therefore the
    /// segment set it names — is crash-durable.
    pub fn save(&self, dir: &Path) -> Result<(), IndexError> {
        let mut file = AtomicFile::create(&Manifest::path_in(dir))?;
        file.write_all(&self.encode())?;
        file.commit()?;
        Ok(())
    }

    /// Load and verify `dir/MANIFEST`.
    pub fn load(dir: &Path) -> Result<Manifest, IndexError> {
        let mut file = File::open(Manifest::path_in(dir))?;
        let len = file.metadata()?.len();
        if len < HEADER_LEN || len > HEADER_LEN + u64::from(MAX_BODY_LEN) {
            return Err(IndexError::bad_in(
                "manifest file size implausible",
                "manifest",
            ));
        }
        let bytes = read_exact_chunked(&mut file, len as usize)?;
        // Reject files with data past the declared body (decode checks the
        // slice it is handed, so hand it exactly what the file holds).
        let mut trailing = [0u8; 1];
        if file.read(&mut trailing)? != 0 {
            return Err(IndexError::bad_in(
                "trailing bytes after manifest body",
                "manifest",
            ));
        }
        Manifest::decode(&bytes)
    }

    /// Does `dir` look like a live directory (has a manifest)?
    pub fn exists_in(dir: &Path) -> bool {
        Manifest::path_in(dir).is_file()
    }

    /// Scan `dir` for files this manifest does not account for: orphaned
    /// segment files (from an interrupted flush/compaction) and stale
    /// atomic-write temps. Returns their file names, sorted.
    pub fn orphans_in(&self, dir: &Path) -> Result<Vec<String>, IndexError> {
        let mut live: Vec<String> = Vec::with_capacity(self.segments.len() * 2);
        for seg in &self.segments {
            live.push(seg.index_file());
            live.push(seg.store_file());
        }
        let mut orphans = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let is_orphan = if is_stale_temp(name) {
                true
            } else if parse_segment_file(name).is_some() {
                !live.iter().any(|f| f == name)
            } else {
                false
            };
            if is_orphan {
                orphans.push(name.to_string());
            }
        }
        orphans.sort();
        Ok(orphans)
    }
}

fn put_vu64(out: &mut Vec<u8>, mut value: u64) {
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

fn take_u8(cur: &mut &[u8]) -> Result<u8, IndexError> {
    let (&first, rest) = cur
        .split_first()
        .ok_or_else(|| IndexError::bad_in("manifest body truncated", "manifest"))?;
    *cur = rest;
    Ok(first)
}

fn take_vu64(cur: &mut &[u8]) -> Result<u64, IndexError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = take_u8(cur)?;
        if shift == 63 && byte > 1 {
            return Err(IndexError::bad_in("varint overflows u64", "manifest"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(IndexError::bad_in("varint too long", "manifest"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new(8, 1, ListCodec::Block);
        m.version = 7;
        m.segments = vec![
            SegmentMeta {
                id: 0,
                records: 100,
                index_bytes: 4096,
                store_bytes: 9000,
            },
            SegmentMeta {
                id: 3,
                records: 42,
                index_bytes: 512,
                store_bytes: 700,
            },
        ];
        m
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_records(), 142);
        assert_eq!(back.next_segment_id(), 4);
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("nucman-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let m = sample();
        let bytes = m.encode();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    Manifest::decode(&corrupt).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let m = sample();
        let bytes = m.encode();
        for len in 0..bytes.len() {
            assert!(
                Manifest::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(Manifest::decode(&bytes).is_err());
    }

    #[test]
    fn file_name_round_trip() {
        assert_eq!(segment_index_file(7), "seg-000007.nucidx");
        assert_eq!(parse_segment_file("seg-000007.nucidx"), Some(7));
        assert_eq!(parse_segment_file("seg-000007.nucsto"), Some(7));
        assert_eq!(parse_segment_file("seg-x.nucidx"), None);
        assert_eq!(parse_segment_file("index.nucidx"), None);
        assert!(is_stale_temp("MANIFEST.tmp.123.4"));
        assert!(is_stale_temp("seg-000001.nucidx.tmp.9.9"));
        assert!(!is_stale_temp("MANIFEST"));
        assert!(!is_stale_temp("other.tmp.1.2"));
    }

    #[test]
    fn orphan_scan() {
        let dir = std::env::temp_dir().join(format!("nucman-orph-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut m = sample();
        m.segments.truncate(1);
        for name in [
            "seg-000000.nucidx",
            "seg-000000.nucsto",
            "seg-000009.nucidx",
            "MANIFEST.tmp.1.2",
            "unrelated.txt",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let orphans = m.orphans_in(&dir).unwrap();
        assert_eq!(orphans, vec!["MANIFEST.tmp.1.2", "seg-000009.nucidx"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
