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
//! The framing (CRC-guarded body, exact end of file) is the one both
//! manifests share (`crate::framing`). The manifest is
//! self-describing: it carries the index parameters and codec so an empty
//! live directory reopens with the configuration it was created with.
//! Stopping is deliberately absent — stopped indexes cannot be merged
//! ([`merge_indexes`](crate::merge::merge_indexes)), so live directories
//! never use it.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::compress::ListCodec;
use crate::durable::AtomicFile;
use crate::error::IndexError;
use crate::framing::{put_vu64, Framing, Head};

/// File name of the manifest inside a live directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

const FRAMING: Framing = Framing {
    magic: b"NUCMAN01",
    section: "manifest",
};

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
        let head = Head {
            version: self.version,
            k: self.k,
            stride: self.stride,
            codec: self.codec,
        };
        FRAMING.encode(&head, self.segments.len(), |body| {
            for seg in &self.segments {
                put_vu64(body, seg.id);
                put_vu64(body, u64::from(seg.records));
                put_vu64(body, seg.index_bytes);
                put_vu64(body, seg.store_bytes);
            }
        })
    }

    /// Parse a full file image produced by [`Manifest::encode`],
    /// verifying magic, CRC, and exact end-of-file.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, IndexError> {
        let (head, count, mut body) = FRAMING.decode(bytes)?;
        let mut segments: Vec<SegmentMeta> = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = body.vu64()?;
            let records = body.vu64()?;
            let index_bytes = body.vu64()?;
            let store_bytes = body.vu64()?;
            if records > u64::from(u32::MAX) {
                return Err(body.bad("segment record count overflows u32"));
            }
            // Ids need not be ordered (compaction splices a fresh-id
            // merged segment into list position) but must be unique —
            // file names derive from them.
            if segments.iter().any(|s: &SegmentMeta| s.id == id) {
                return Err(body.bad("duplicate segment id"));
            }
            segments.push(SegmentMeta {
                id,
                records: records as u32,
                index_bytes,
                store_bytes,
            });
        }
        body.finish()?;
        Ok(Manifest {
            version: head.version,
            k: head.k,
            stride: head.stride,
            codec: head.codec,
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
        Manifest::decode(&FRAMING.load(&Manifest::path_in(dir))?)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::checks::{self, Framed};

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

    impl Framed for Manifest {
        fn encode(&self) -> Vec<u8> {
            Manifest::encode(self)
        }
        fn decode(bytes: &[u8]) -> Result<Manifest, IndexError> {
            Manifest::decode(bytes)
        }
        fn save(&self, dir: &Path) -> Result<(), IndexError> {
            Manifest::save(self, dir)
        }
        fn load(dir: &Path) -> Result<Manifest, IndexError> {
            Manifest::load(dir)
        }
    }

    #[test]
    fn round_trip() {
        let back = checks::round_trip(&sample());
        assert_eq!(back.total_records(), 142);
        assert_eq!(back.next_segment_id(), 4);
    }

    #[test]
    fn save_and_load() {
        let dir = checks::save_and_load(&sample(), "nucman");
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
