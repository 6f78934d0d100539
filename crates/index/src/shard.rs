//! The shard manifest: the durable description of a *sharded* database
//! root.
//!
//! A sharded root contains one `SHARDS` file plus N shard directories
//! (`shard-000/`, `shard-001/`, …), each of which is an ordinary plain
//! database directory (`index.nucidx` + `store.nucsto`). Shard `i` holds
//! the records whose *global* ids start at the sum of earlier shards'
//! `records` — the record-id base — so a scatter-gather merge over the
//! shards can reconstruct exactly the id space of a joint build.
//!
//! ## Format (`NUCSHD01`)
//!
//! ```text
//! magic "NUCSHD01" | body_len u32le | body_crc32 u32le | body
//! body: version vu64
//!       k vu64 | stride vu64 | granularity u8 (0) | codec u8 | storage u8 (1)
//!       shard_count vu64
//!       per shard: records vu64 | index_bytes vu64 | store_bytes vu64
//! ```
//!
//! The framing mirrors the segment [`Manifest`](crate::Manifest)
//! (`NUCMAN01`): CRC-guarded body, exact end-of-file, written via
//! [`AtomicFile`]. The manifest is self-describing so the planner can
//! account for a shard whose files are unreadable (a *dead* shard) —
//! its record count, and therefore every other shard's id base, comes
//! from the manifest, not from opening the shard.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::compress::ListCodec;
use crate::durable::{crc32, read_exact_chunked, AtomicFile};
use crate::error::IndexError;
use crate::interval::{
    check_granularity, check_storage, DIRECT_CODING_STORAGE, OFFSET_GRANULARITY,
};

/// File name of the shard manifest inside a sharded root.
pub const SHARD_MANIFEST_FILE: &str = "SHARDS";

const MAGIC: &[u8; 8] = b"NUCSHD01";
/// Fixed header size: magic + body_len + body_crc.
const HEADER_LEN: u64 = 16;
/// Cap on the declared body length (a shard manifest is tiny).
const MAX_BODY_LEN: u32 = 64 << 20;

/// Directory name of shard `ordinal` (`shard-<ordinal>`).
pub fn shard_dir_name(ordinal: usize) -> String {
    format!("shard-{ordinal:03}")
}

/// One shard of a sharded root, in record-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Number of records in the shard.
    pub records: u32,
    /// Size of the shard's index file in bytes (as written).
    pub index_bytes: u64,
    /// Size of the shard's store file in bytes (as written).
    pub store_bytes: u64,
}

/// The versioned, CRC-checksummed list of shards that constitutes a
/// sharded database root. See the module docs for format and layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Manifest version, bumped on every save.
    pub version: u64,
    /// Interval length all shards were built with.
    pub k: usize,
    /// Extraction stride all shards were built with.
    pub stride: usize,
    /// List codec of all shards.
    pub codec: ListCodec,
    /// The shards, in record-id order: shard `i` holds the records whose
    /// global ids start at the sum of earlier shards' `records`.
    pub shards: Vec<ShardMeta>,
}

impl ShardManifest {
    /// An empty version-0 manifest for a new sharded root.
    pub fn new(k: usize, stride: usize, codec: ListCodec) -> ShardManifest {
        ShardManifest {
            version: 0,
            k,
            stride,
            codec,
            shards: Vec::new(),
        }
    }

    /// Total records across all shards.
    pub fn total_records(&self) -> u64 {
        self.shards.iter().map(|s| u64::from(s.records)).sum()
    }

    /// Global record-id base of shard `ordinal` (sum of earlier shards'
    /// record counts).
    pub fn base_of(&self, ordinal: usize) -> u64 {
        self.shards[..ordinal]
            .iter()
            .map(|s| u64::from(s.records))
            .sum()
    }

    /// Serialize to the full on-disk file image (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.shards.len() * 12);
        put_vu64(&mut body, self.version);
        put_vu64(&mut body, self.k as u64);
        put_vu64(&mut body, self.stride as u64);
        body.push(OFFSET_GRANULARITY);
        body.push(self.codec.tag());
        body.push(DIRECT_CODING_STORAGE);
        put_vu64(&mut body, self.shards.len() as u64);
        for shard in &self.shards {
            put_vu64(&mut body, u64::from(shard.records));
            put_vu64(&mut body, shard.index_bytes);
            put_vu64(&mut body, shard.store_bytes);
        }
        let mut out = Vec::with_capacity(HEADER_LEN as usize + body.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parse a full file image produced by [`ShardManifest::encode`],
    /// verifying magic, CRC, and exact end-of-file.
    pub fn decode(bytes: &[u8]) -> Result<ShardManifest, IndexError> {
        if bytes.len() < HEADER_LEN as usize {
            return Err(IndexError::bad_in(
                "shard manifest shorter than header",
                "shards",
            ));
        }
        if &bytes[..8] != MAGIC {
            return Err(IndexError::bad_at("bad shard manifest magic", "shards", 0));
        }
        let body_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if body_len > MAX_BODY_LEN {
            return Err(IndexError::bad_at(
                "shard manifest body length implausible",
                "shards",
                8,
            ));
        }
        let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let body = &bytes[HEADER_LEN as usize..];
        if body.len() != body_len as usize {
            return Err(IndexError::bad_at(
                "shard manifest body length does not match file size",
                "shards",
                8,
            ));
        }
        let actual_crc = crc32(body);
        if actual_crc != stored_crc {
            return Err(IndexError::checksum(
                "shards", HEADER_LEN, stored_crc, actual_crc,
            ));
        }

        let mut cur = body;
        let version = take_vu64(&mut cur)?;
        let k = take_vu64(&mut cur)?;
        let stride = take_vu64(&mut cur)?;
        if k == 0 || k > 32 {
            return Err(IndexError::bad_in(
                "shard manifest k out of range",
                "shards",
            ));
        }
        if stride == 0 {
            return Err(IndexError::bad_in(
                "shard manifest stride is zero",
                "shards",
            ));
        }
        check_granularity(take_u8(&mut cur)?)?;
        let codec = ListCodec::from_tag(take_u8(&mut cur)?)?;
        check_storage(take_u8(&mut cur)?)?;
        let count = take_vu64(&mut cur)?;
        // Each shard entry takes at least 3 bytes; bound count by the
        // remaining body so a corrupt count can't drive a huge allocation.
        if count > cur.len() as u64 {
            return Err(IndexError::bad_in(
                "shard manifest shard count implausible",
                "shards",
            ));
        }
        let mut shards: Vec<ShardMeta> = Vec::with_capacity(count as usize);
        let mut total: u64 = 0;
        for _ in 0..count {
            let records = take_vu64(&mut cur)?;
            let index_bytes = take_vu64(&mut cur)?;
            let store_bytes = take_vu64(&mut cur)?;
            if records > u64::from(u32::MAX) {
                return Err(IndexError::bad_in(
                    "shard record count overflows u32",
                    "shards",
                ));
            }
            total += records;
            if total > u64::from(u32::MAX) {
                return Err(IndexError::bad_in(
                    "total shard records overflow the u32 id space",
                    "shards",
                ));
            }
            shards.push(ShardMeta {
                records: records as u32,
                index_bytes,
                store_bytes,
            });
        }
        if !cur.is_empty() {
            return Err(IndexError::bad_in(
                "trailing bytes after shard manifest body",
                "shards",
            ));
        }
        Ok(ShardManifest {
            version,
            k: k as usize,
            stride: stride as usize,
            codec,
            shards,
        })
    }

    /// Path of the shard manifest file inside `root`.
    pub fn path_in(root: &Path) -> PathBuf {
        root.join(SHARD_MANIFEST_FILE)
    }

    /// Durably write this manifest to `root/SHARDS` via write-to-temp +
    /// fsync + atomic rename.
    pub fn save(&self, root: &Path) -> Result<(), IndexError> {
        let mut file = AtomicFile::create(&ShardManifest::path_in(root))?;
        file.write_all(&self.encode())?;
        file.commit()?;
        Ok(())
    }

    /// Load and verify `root/SHARDS`.
    pub fn load(root: &Path) -> Result<ShardManifest, IndexError> {
        let mut file = File::open(ShardManifest::path_in(root))?;
        let len = file.metadata()?.len();
        if len < HEADER_LEN || len > HEADER_LEN + u64::from(MAX_BODY_LEN) {
            return Err(IndexError::bad_in(
                "shard manifest file size implausible",
                "shards",
            ));
        }
        let bytes = read_exact_chunked(&mut file, len as usize)?;
        let mut trailing = [0u8; 1];
        if file.read(&mut trailing)? != 0 {
            return Err(IndexError::bad_in(
                "trailing bytes after shard manifest body",
                "shards",
            ));
        }
        ShardManifest::decode(&bytes)
    }

    /// Does `root` look like a sharded root (has a shard manifest)?
    pub fn exists_in(root: &Path) -> bool {
        ShardManifest::path_in(root).is_file()
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
        .ok_or_else(|| IndexError::bad_in("shard manifest body truncated", "shards"))?;
    *cur = rest;
    Ok(first)
}

fn take_vu64(cur: &mut &[u8]) -> Result<u64, IndexError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = take_u8(cur)?;
        if shift == 63 && byte > 1 {
            return Err(IndexError::bad_in("varint overflows u64", "shards"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(IndexError::bad_in("varint too long", "shards"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        let mut m = ShardManifest::new(8, 1, ListCodec::Block);
        m.version = 3;
        m.shards = vec![
            ShardMeta {
                records: 120,
                index_bytes: 4096,
                store_bytes: 9000,
            },
            ShardMeta {
                records: 80,
                index_bytes: 2048,
                store_bytes: 6000,
            },
            ShardMeta {
                records: 0,
                index_bytes: 64,
                store_bytes: 32,
            },
        ];
        m
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let back = ShardManifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_records(), 200);
        assert_eq!(back.base_of(0), 0);
        assert_eq!(back.base_of(1), 120);
        assert_eq!(back.base_of(2), 200);
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("nucshd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.save(&dir).unwrap();
        assert!(ShardManifest::exists_in(&dir));
        let back = ShardManifest::load(&dir).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let bytes = sample().encode();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    ShardManifest::decode(&corrupt).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                ShardManifest::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(ShardManifest::decode(&bytes).is_err());
    }

    #[test]
    fn dir_names() {
        assert_eq!(shard_dir_name(0), "shard-000");
        assert_eq!(shard_dir_name(42), "shard-042");
    }

    #[test]
    fn overflowing_totals_rejected() {
        let mut m = sample();
        m.shards = vec![
            ShardMeta {
                records: u32::MAX,
                index_bytes: 0,
                store_bytes: 0,
            },
            ShardMeta {
                records: 1,
                index_bytes: 0,
                store_bytes: 0,
            },
        ];
        assert!(ShardManifest::decode(&m.encode()).is_err());
    }
}
