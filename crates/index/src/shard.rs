//! The shard manifest: the durable description of a *sharded* database
//! root.
//!
//! A sharded root contains one `SHARDS` file plus N shard directories
//! (`shard-000/`, `shard-001/`, …), each of which is an ordinary plain
//! database directory (`index.nucidx` + `store.nucsto`). Shard `i` holds
//! the records whose *global* ids start at the sum of earlier shards'
//! `records` — the record-id base — so the shards, opened as the parts
//! of one view, reconstruct exactly the id space of a joint build.
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
//! The framing is the segment [`Manifest`](crate::Manifest)'s
//! (`NUCMAN01`, shared in `crate::framing`): CRC-guarded body, exact
//! end-of-file, written via [`AtomicFile`]. The manifest is self-describing so the planner can
//! account for a shard whose files are unreadable (a *dead* shard) —
//! its record count, and therefore every other shard's id base, comes
//! from the manifest, not from opening the shard.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::compress::ListCodec;
use crate::durable::AtomicFile;
use crate::error::IndexError;
use crate::framing::{put_vu64, Framing, Head};

/// File name of the shard manifest inside a sharded root.
pub const SHARD_MANIFEST_FILE: &str = "SHARDS";

const FRAMING: Framing = Framing {
    magic: b"NUCSHD01",
    section: "shards",
};

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
        let head = Head {
            version: self.version,
            k: self.k,
            stride: self.stride,
            codec: self.codec,
        };
        FRAMING.encode(&head, self.shards.len(), |body| {
            for shard in &self.shards {
                put_vu64(body, u64::from(shard.records));
                put_vu64(body, shard.index_bytes);
                put_vu64(body, shard.store_bytes);
            }
        })
    }

    /// Parse a full file image produced by [`ShardManifest::encode`],
    /// verifying magic, CRC, and exact end-of-file.
    pub fn decode(bytes: &[u8]) -> Result<ShardManifest, IndexError> {
        let (head, count, mut body) = FRAMING.decode(bytes)?;
        let mut shards: Vec<ShardMeta> = Vec::with_capacity(count as usize);
        let mut total: u64 = 0;
        for _ in 0..count {
            let records = body.vu64()?;
            let index_bytes = body.vu64()?;
            let store_bytes = body.vu64()?;
            if records > u64::from(u32::MAX) {
                return Err(body.bad("shard record count overflows u32"));
            }
            total += records;
            if total > u64::from(u32::MAX) {
                return Err(body.bad("total shard records overflow the u32 id space"));
            }
            shards.push(ShardMeta {
                records: records as u32,
                index_bytes,
                store_bytes,
            });
        }
        body.finish()?;
        Ok(ShardManifest {
            version: head.version,
            k: head.k,
            stride: head.stride,
            codec: head.codec,
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
        ShardManifest::decode(&FRAMING.load(&ShardManifest::path_in(root))?)
    }

    /// Does `root` look like a sharded root (has a shard manifest)?
    pub fn exists_in(root: &Path) -> bool {
        ShardManifest::path_in(root).is_file()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::checks::{self, Framed};

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

    impl Framed for ShardManifest {
        fn encode(&self) -> Vec<u8> {
            ShardManifest::encode(self)
        }
        fn decode(bytes: &[u8]) -> Result<ShardManifest, IndexError> {
            ShardManifest::decode(bytes)
        }
        fn save(&self, dir: &Path) -> Result<(), IndexError> {
            ShardManifest::save(self, dir)
        }
        fn load(dir: &Path) -> Result<ShardManifest, IndexError> {
            ShardManifest::load(dir)
        }
    }

    #[test]
    fn round_trip() {
        let back = checks::round_trip(&sample());
        assert_eq!(back.total_records(), 200);
        assert_eq!(back.base_of(0), 0);
        assert_eq!(back.base_of(1), 120);
        assert_eq!(back.base_of(2), 200);
    }

    #[test]
    fn save_and_load() {
        let dir = checks::save_and_load(&sample(), "nucshd");
        assert!(ShardManifest::exists_in(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_flip_is_detected() {
        checks::every_byte_flip_is_detected(&sample());
    }

    #[test]
    fn every_truncation_is_detected() {
        checks::every_truncation_is_detected(&sample());
    }

    #[test]
    fn trailing_bytes_rejected() {
        checks::trailing_bytes_rejected(&sample());
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
