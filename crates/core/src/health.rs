//! Index and store health: the damage walk behind `nucdb fsck`, the
//! statistics report behind `nucdb stat`, and the building blocks the
//! `nucdb-serve` background scrubber iterates.
//!
//! The fsck walk is exhaustive, not fail-fast: every list and every
//! record is verified and every finding is collected, so one corrupt
//! block does not hide a second one further in. Severity maps to the
//! CLI exit code — structural damage (header or TOC unreadable) is
//! exit 2, payload damage (a list or record failing its checksum or
//! decode) is exit 1, a clean walk is exit 0.
//!
//! The walk reads the files as they are on disk now, through the handles
//! `open` kept ([`CompressedIndex::scrub`], [`SequenceStore::scrub`]),
//! and bypasses the query I/O counters, so a background scrub never
//! distorts `nucdb_index_bytes_read_total` or its store twin.

use std::ops::ControlFlow;

use nucdb_index::{skip_table_len, CompressedIndex, IndexError, ListCodec, WalkStep};
use nucdb_obs::json::{num, Value};
use nucdb_seq::SeqError;

use crate::store::{SequenceStore, StorageMode};

/// How bad one fsck finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckSeverity {
    /// A payload region (postings list, record blob) failed its
    /// checksum or decode. Exit code 1.
    Payload,
    /// The header or TOC is unreadable: the file would not reopen.
    /// Exit code 2.
    Structural,
}

impl FsckSeverity {
    fn name(self) -> &'static str {
        match self {
            FsckSeverity::Payload => "payload",
            FsckSeverity::Structural => "structural",
        }
    }
}

/// One piece of damage the fsck walk found.
#[derive(Debug, Clone)]
pub struct FsckFinding {
    /// Which file: `"index"` or `"store"`.
    pub file: &'static str,
    /// The file section the error names ("header", "list", "record",
    /// "toc", …).
    pub section: String,
    /// Byte offset of the damage within the file, when the verifier
    /// had one.
    pub offset: Option<u64>,
    /// Severity (drives the exit code).
    pub severity: FsckSeverity,
    /// Human-readable error detail.
    pub detail: String,
}

impl FsckFinding {
    /// The finding for an error the index file raised, at `severity`.
    /// An open failure is structural: the file would not serve.
    pub fn index(e: &IndexError, severity: FsckSeverity) -> FsckFinding {
        let (section, offset) = match e {
            IndexError::Corruption {
                section, offset, ..
            } => (*section, Some(*offset)),
            IndexError::BadFormat(v) => (v.section, v.offset),
            IndexError::UnsupportedFormat(_) => ("format", None),
            IndexError::Codec(_) => ("postings", None),
            _ => ("io", None),
        };
        FsckFinding {
            file: "index",
            section: section.to_string(),
            offset,
            severity,
            detail: e.to_string(),
        }
    }

    /// The store file's twin of [`FsckFinding::index`].
    pub fn store(e: &SeqError, severity: FsckSeverity) -> FsckFinding {
        let (section, offset) = match e {
            SeqError::Corruption {
                section, offset, ..
            } => (*section, Some(*offset)),
            SeqError::CorruptPackedData {
                section, offset, ..
            } => (*section, *offset),
            SeqError::UnsupportedFormat(_) => ("format", None),
            _ => ("io", None),
        };
        FsckFinding {
            file: "store",
            section: section.to_string(),
            offset,
            severity,
            detail: e.to_string(),
        }
    }

    fn to_value(&self) -> Value {
        let mut members = vec![
            ("file".to_string(), Value::Str(self.file.to_string())),
            ("section".to_string(), Value::Str(self.section.clone())),
            (
                "severity".to_string(),
                Value::Str(self.severity.name().to_string()),
            ),
            ("detail".to_string(), Value::Str(self.detail.clone())),
        ];
        if let Some(offset) = self.offset {
            members.insert(2, ("offset".to_string(), num(offset)));
        }
        Value::Obj(members)
    }
}

/// The result of a full fsck walk over an index and/or store file.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Every piece of damage found, in walk order.
    pub findings: Vec<FsckFinding>,
    /// Postings lists verified (index walk).
    pub lists_checked: u64,
    /// Records verified (store walk).
    pub records_checked: u64,
    /// Total bytes read and verified across both files.
    pub bytes_verified: u64,
}

impl FsckReport {
    /// Record one step of an index walk: a failed header is structural
    /// damage, a failed list payload damage. Never stops the walk.
    pub fn note_index(
        &mut self,
        step: WalkStep,
        outcome: Result<u64, IndexError>,
    ) -> ControlFlow<()> {
        self.lists_checked += u64::from(step != WalkStep::Header);
        self.note(outcome.map_err(|e| FsckFinding::index(&e, severity(step))))
    }

    /// The store twin of [`FsckReport::note_index`].
    pub fn note_store(
        &mut self,
        step: WalkStep,
        outcome: Result<u64, SeqError>,
    ) -> ControlFlow<()> {
        self.records_checked += u64::from(step != WalkStep::Header);
        self.note(outcome.map_err(|e| FsckFinding::store(&e, severity(step))))
    }

    fn note(&mut self, outcome: Result<u64, FsckFinding>) -> ControlFlow<()> {
        match outcome {
            Ok(bytes) => self.bytes_verified += bytes,
            Err(finding) => self.findings.push(finding),
        }
        ControlFlow::Continue(())
    }

    /// No damage found?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Process exit code: 0 clean, 1 payload damage, 2 structural
    /// damage (header or TOC unreadable).
    pub fn exit_code(&self) -> i32 {
        if self
            .findings
            .iter()
            .any(|f| f.severity == FsckSeverity::Structural)
        {
            2
        } else if self.findings.is_empty() {
            0
        } else {
            1
        }
    }

    /// JSON shape of the report.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("clean".to_string(), Value::Bool(self.is_clean())),
            ("exit_code".to_string(), num(self.exit_code() as u64)),
            ("lists_checked".to_string(), num(self.lists_checked)),
            ("records_checked".to_string(), num(self.records_checked)),
            ("bytes_verified".to_string(), num(self.bytes_verified)),
            (
                "findings".to_string(),
                Value::Arr(self.findings.iter().map(FsckFinding::to_value).collect()),
            ),
        ])
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fsck: {} list(s), {} record(s), {} byte(s) verified\n",
            self.lists_checked, self.records_checked, self.bytes_verified
        ));
        if self.is_clean() {
            out.push_str("fsck: clean\n");
            return out;
        }
        for f in &self.findings {
            match f.offset {
                Some(offset) => out.push_str(&format!(
                    "fsck: {} damage in {} section {:?} at byte {}: {}\n",
                    f.severity.name(),
                    f.file,
                    f.section,
                    offset,
                    f.detail
                )),
                None => out.push_str(&format!(
                    "fsck: {} damage in {} section {:?}: {}\n",
                    f.severity.name(),
                    f.file,
                    f.section,
                    f.detail
                )),
            }
        }
        out.push_str(&format!(
            "fsck: {} finding(s), exit code {}\n",
            self.findings.len(),
            self.exit_code()
        ));
        out
    }
}

fn severity(step: WalkStep) -> FsckSeverity {
    match step {
        WalkStep::Header => FsckSeverity::Structural,
        WalkStep::Item(_) => FsckSeverity::Payload,
    }
}

/// Walk every checksummed region of an index file as it is on disk now
/// — header, then every postings list — collecting all damage into
/// `report`.
pub fn fsck_index(index: &CompressedIndex, report: &mut FsckReport) {
    index.scrub(|step, outcome| report.note_index(step, outcome));
}

/// Walk every checksummed region of a store file as it is on disk now
/// — TOC, then every record blob — collecting all damage into `report`.
pub fn fsck_store(store: &SequenceStore, report: &mut FsckReport) {
    store.scrub(|step, outcome| report.note_store(step, outcome));
}

/// One bucket of a power-of-two histogram: `label` names the value
/// range, `count` the population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistBucket {
    /// Range label: "0", "1", "2", "3-4", "5-8", …
    pub label: String,
    /// Items in the bucket.
    pub count: u64,
}

/// Build a power-of-two histogram over `values`. Bucket 0 holds zeros,
/// bucket 1 holds ones, bucket `i > 1` holds `[2^(i-1)+1, 2^i]`.
fn log2_histogram(values: impl Iterator<Item = u64>) -> Vec<HistBucket> {
    let mut counts: Vec<u64> = Vec::new();
    for v in values {
        let bucket = if v == 0 {
            0
        } else {
            // ceil(log2(v)) + 1, so 1 → bucket 1, 2 → 2, 3..4 → 3, …
            (64 - (v - 1).leading_zeros() as usize) + 1
        };
        if counts.len() <= bucket {
            counts.resize(bucket + 1, 0);
        }
        counts[bucket] += 1;
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &count)| HistBucket {
            label: match i {
                0 => "0".to_string(),
                1 => "1".to_string(),
                2 => "2".to_string(),
                _ => format!("{}-{}", (1u64 << (i - 2)) + 1, 1u64 << (i - 1)),
            },
            count,
        })
        .collect()
}

fn histogram_value(buckets: &[HistBucket]) -> Value {
    Value::Arr(
        buckets
            .iter()
            .map(|b| {
                Value::Obj(vec![
                    ("range".to_string(), Value::Str(b.label.clone())),
                    ("count".to_string(), num(b.count)),
                ])
            })
            .collect(),
    )
}

/// Per-index statistics behind `nucdb stat`: sizes by section,
/// list-length and width distributions, and skew measures.
#[derive(Debug, Clone)]
pub struct IndexStatReport {
    /// On-disk format magic ("NUCIDX03"/"04").
    pub format: String,
    /// List codec tier.
    pub codec: String,
    /// Interval length.
    pub k: usize,
    /// Extraction stride.
    pub stride: usize,
    /// Records indexed.
    pub records: u64,
    /// Distinct intervals (vocabulary size).
    pub distinct_intervals: u64,
    /// Total postings entries (sum of dfs).
    pub postings_entries: u64,
    /// Header region bytes (magic through vocabulary).
    pub header_bytes: u64,
    /// Compressed postings blob bytes.
    pub blob_bytes: u64,
    /// In-memory vocabulary bytes.
    pub vocab_bytes: u64,
    /// Skip-table bytes inside the blob (block codec only; 0 otherwise).
    pub skip_table_bytes: u64,
    /// Largest list length.
    pub max_df: u32,
    /// Mean list length.
    pub mean_df: f64,
    /// Fraction of all postings held by the 10 longest lists — the
    /// skew measure that motivates index stopping.
    pub top10_df_share: f64,
    /// List-length distribution (power-of-two buckets).
    pub df_histogram: Vec<HistBucket>,
    /// Compressed bits-per-posting distribution across lists
    /// (power-of-two buckets) — the effective width the codec achieves.
    pub bits_per_posting_histogram: Vec<HistBucket>,
}

impl IndexStatReport {
    /// Compute the report from an open index (metadata only — no
    /// postings fetch).
    pub fn from_disk(index: &CompressedIndex) -> IndexStatReport {
        let vocab = index.vocab();
        let params = index.params();
        let postings_entries: u64 = vocab.iter().map(|e| e.df as u64).sum();
        let blob_bytes: u64 = vocab.iter().map(|e| e.len as u64).sum();
        let skip_table_bytes = if index.codec() == ListCodec::Block {
            vocab.iter().map(|e| skip_table_len(e.df) as u64).sum()
        } else {
            0
        };
        let mut dfs: Vec<u64> = vocab.iter().map(|e| e.df as u64).collect();
        dfs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = dfs.iter().take(10).sum();
        IndexStatReport {
            format: index.format().to_string(),
            codec: index.codec().name().to_string(),
            k: params.k,
            stride: params.stride,
            records: index.num_records() as u64,
            distinct_intervals: vocab.len() as u64,
            postings_entries,
            header_bytes: index.blob_start(),
            blob_bytes,
            vocab_bytes: std::mem::size_of_val(vocab) as u64,
            skip_table_bytes,
            max_df: vocab.iter().map(|e| e.df).max().unwrap_or(0),
            mean_df: if vocab.is_empty() {
                0.0
            } else {
                postings_entries as f64 / vocab.len() as f64
            },
            top10_df_share: if postings_entries == 0 {
                0.0
            } else {
                top10 as f64 / postings_entries as f64
            },
            df_histogram: log2_histogram(vocab.iter().map(|e| e.df as u64)),
            bits_per_posting_histogram: log2_histogram(
                vocab
                    .iter()
                    .filter(|e| e.df > 0)
                    .map(|e| e.len as u64 * 8 / e.df as u64),
            ),
        }
    }

    /// JSON shape of the report.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("format".to_string(), Value::Str(self.format.clone())),
            ("codec".to_string(), Value::Str(self.codec.clone())),
            ("k".to_string(), num(self.k as u64)),
            ("stride".to_string(), num(self.stride as u64)),
            ("records".to_string(), num(self.records)),
            (
                "distinct_intervals".to_string(),
                num(self.distinct_intervals),
            ),
            ("postings_entries".to_string(), num(self.postings_entries)),
            (
                "bytes".to_string(),
                Value::Obj(vec![
                    ("header".to_string(), num(self.header_bytes)),
                    ("blob".to_string(), num(self.blob_bytes)),
                    ("vocab_memory".to_string(), num(self.vocab_bytes)),
                    ("skip_tables".to_string(), num(self.skip_table_bytes)),
                ]),
            ),
            ("max_df".to_string(), num(self.max_df as u64)),
            ("mean_df".to_string(), Value::Num(self.mean_df)),
            (
                "top10_df_share".to_string(),
                Value::Num(self.top10_df_share),
            ),
            (
                "df_histogram".to_string(),
                histogram_value(&self.df_histogram),
            ),
            (
                "bits_per_posting_histogram".to_string(),
                histogram_value(&self.bits_per_posting_histogram),
            ),
        ])
    }
}

/// Per-store statistics behind `nucdb stat`.
#[derive(Debug, Clone)]
pub struct StoreStatReport {
    /// Storage mode ("ascii" or "direct").
    pub mode: String,
    /// Records stored.
    pub records: u64,
    /// Total bases across records.
    pub total_bases: u64,
    /// Payload bytes (sum of blob lengths).
    pub payload_bytes: u64,
    /// Checksummed prefix bytes (magic + TOC).
    pub toc_bytes: u64,
    /// Largest record length in bases.
    pub max_record_len: u32,
    /// Record-length distribution (power-of-two buckets).
    pub record_len_histogram: Vec<HistBucket>,
}

impl StoreStatReport {
    /// Compute the report from an open store (metadata only).
    pub fn from_disk(store: &SequenceStore) -> StoreStatReport {
        let records = store.len() as u64;
        let lens: Vec<u64> = (0..records as u32)
            .map(|r| store.record_len(r) as u64)
            .collect();
        let payload_bytes = store.stored_bytes() as u64;
        let toc_bytes = store.payload_start();
        StoreStatReport {
            mode: match store.mode() {
                StorageMode::Ascii => "ascii".to_string(),
                StorageMode::DirectCoding => "direct".to_string(),
            },
            records,
            total_bases: lens.iter().sum(),
            payload_bytes,
            toc_bytes,
            max_record_len: lens.iter().max().copied().unwrap_or(0) as u32,
            record_len_histogram: log2_histogram(lens.into_iter()),
        }
    }

    /// JSON shape of the report.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("mode".to_string(), Value::Str(self.mode.clone())),
            ("records".to_string(), num(self.records)),
            ("total_bases".to_string(), num(self.total_bases)),
            (
                "bytes".to_string(),
                Value::Obj(vec![
                    ("toc".to_string(), num(self.toc_bytes)),
                    ("payload".to_string(), num(self.payload_bytes)),
                ]),
            ),
            (
                "max_record_len".to_string(),
                num(self.max_record_len as u64),
            ),
            (
                "record_len_histogram".to_string(),
                histogram_value(&self.record_len_histogram),
            ),
        ])
    }
}

/// Combined `nucdb stat` report over a database directory.
#[derive(Debug, Clone)]
pub struct StatReport {
    /// Index statistics, when an index file is present.
    pub index: Option<IndexStatReport>,
    /// Store statistics, when a store file is present.
    pub store: Option<StoreStatReport>,
}

impl StatReport {
    /// JSON shape of the report.
    pub fn to_value(&self) -> Value {
        let mut members = Vec::new();
        if let Some(index) = &self.index {
            members.push(("index".to_string(), index.to_value()));
        }
        if let Some(store) = &self.store {
            members.push(("store".to_string(), store.to_value()));
        }
        Value::Obj(members)
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let histogram = |out: &mut String, title: &str, buckets: &[HistBucket]| {
            let peak = buckets.iter().map(|b| b.count).max().unwrap_or(0).max(1);
            out.push_str(&format!("  {title}:\n"));
            for b in buckets {
                if b.count == 0 {
                    continue;
                }
                let bar = "#".repeat(((b.count * 40).div_ceil(peak)) as usize);
                out.push_str(&format!("    {:>12} {:>8}  {}\n", b.label, b.count, bar));
            }
        };
        if let Some(index) = &self.index {
            out.push_str(&format!(
                "index: {} ({} codec), k={} stride={}\n",
                index.format, index.codec, index.k, index.stride
            ));
            out.push_str(&format!(
                "  {} records, {} distinct intervals, {} postings entries\n",
                index.records, index.distinct_intervals, index.postings_entries
            ));
            out.push_str(&format!(
                "  bytes: header {} / blob {} / vocab (memory) {} / skip tables {}\n",
                index.header_bytes, index.blob_bytes, index.vocab_bytes, index.skip_table_bytes
            ));
            out.push_str(&format!(
                "  df: max {} mean {:.2} top-10 share {:.1}%\n",
                index.max_df,
                index.mean_df,
                index.top10_df_share * 100.0
            ));
            histogram(&mut out, "list length (df)", &index.df_histogram);
            histogram(
                &mut out,
                "bits per posting",
                &index.bits_per_posting_histogram,
            );
        }
        if let Some(store) = &self.store {
            out.push_str(&format!(
                "store: {} mode, {} records, {} bases\n",
                store.mode, store.records, store.total_bases
            ));
            out.push_str(&format!(
                "  bytes: toc {} / payload {}\n",
                store.toc_bytes, store.payload_bytes
            ));
            histogram(&mut out, "record length", &store.record_len_histogram);
        }
        if out.is_empty() {
            out.push_str("stat: nothing to report\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, DbConfig};
    use nucdb_seq::DnaSeq;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nucdb_health_{}_{}", name, std::process::id()))
    }

    fn sample_records() -> Vec<(String, DnaSeq)> {
        (0..12)
            .map(|i| {
                let mut body = Vec::new();
                for j in 0..200 {
                    body.push(b"ACGT"[(i * 7 + j * 3) % 4]);
                }
                (format!("r{i}"), DnaSeq::from_ascii(&body).unwrap())
            })
            .collect()
    }

    /// The sample records written as an index file and a store file.
    fn written(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let (ipath, spath) = (
            temp_path(&format!("{tag}_i")),
            temp_path(&format!("{tag}_s")),
        );
        let db = Database::build(sample_records(), &DbConfig::default());
        drop(
            db.with_disk_index(&ipath)
                .unwrap()
                .with_disk_store(&spath)
                .unwrap(),
        );
        (ipath, spath)
    }

    #[test]
    fn clean_files_fsck_clean() {
        let (ipath, spath) = written("fsck");
        let mut report = FsckReport::default();
        fsck_index(&CompressedIndex::open(&ipath).unwrap(), &mut report);
        fsck_store(&SequenceStore::open(&spath).unwrap(), &mut report);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.exit_code(), 0);
        assert!(report.lists_checked > 0);
        assert_eq!(report.records_checked, 12);
        assert!(report.bytes_verified > 0);
        assert!(report.render_text().contains("clean"));
        let _ = std::fs::remove_file(&ipath);
        let _ = std::fs::remove_file(&spath);
    }

    #[test]
    fn flipped_list_byte_is_found_with_offset() {
        let (ipath, spath) = written("fsck_flip");
        let blob_start = CompressedIndex::open(&ipath).unwrap().blob_start();

        let mut bytes = std::fs::read(&ipath).unwrap();
        let target = blob_start as usize + (bytes.len() - blob_start as usize) / 2;
        bytes[target] ^= 0x40;
        std::fs::write(&ipath, &bytes).unwrap();

        let index = CompressedIndex::open(&ipath).unwrap();
        let mut report = FsckReport::default();
        fsck_index(&index, &mut report);
        assert!(!report.is_clean());
        assert_eq!(report.exit_code(), 1);
        let finding = &report.findings[0];
        assert_eq!(finding.file, "index");
        assert!(finding.offset.is_some(), "finding should carry an offset");
        let text = report.render_text();
        assert!(text.contains("payload damage"), "{text}");
        let _ = std::fs::remove_file(&ipath);
        let _ = std::fs::remove_file(&spath);
    }

    #[test]
    fn header_damage_is_structural() {
        let (ipath, spath) = written("fsck_hdr");
        let mut bytes = std::fs::read(&ipath).unwrap();
        // Inside the checksummed header field region.
        bytes[20] ^= 0x01;
        std::fs::write(&ipath, &bytes).unwrap();

        // The file no longer opens: a CLI fsck reports the open
        // failure as its structural finding.
        let index = CompressedIndex::open(&ipath);
        assert!(index.is_err(), "open should reject header damage");
        let _ = std::fs::remove_file(&ipath);
        let _ = std::fs::remove_file(&spath);
    }

    #[test]
    fn stat_reports_sane_shape() {
        let (ipath, spath) = written("stat");
        let store = SequenceStore::open(&spath).unwrap();
        let report = StatReport {
            index: Some(IndexStatReport::from_disk(
                &CompressedIndex::open(&ipath).unwrap(),
            )),
            store: Some(StoreStatReport::from_disk(&store)),
        };
        let index_stats = report.index.as_ref().unwrap();
        assert_eq!(index_stats.records, 12);
        assert!(index_stats.distinct_intervals > 0);
        assert!(index_stats.blob_bytes > 0);
        assert!(index_stats.mean_df > 0.0);
        assert!(index_stats.top10_df_share > 0.0 && index_stats.top10_df_share <= 1.0);
        let df_total: u64 = index_stats.df_histogram.iter().map(|b| b.count).sum();
        assert_eq!(df_total, index_stats.distinct_intervals);

        let store_stats = report.store.as_ref().unwrap();
        assert_eq!(store_stats.records, 12);
        assert_eq!(store_stats.total_bases, store.total_bases() as u64);
        assert!(store_stats.toc_bytes > 0);

        let text = report.render_text();
        assert!(text.contains("index:"), "{text}");
        assert!(text.contains("store:"), "{text}");
        assert!(text.contains("list length"), "{text}");
        let json = report.to_value().render();
        let parsed = nucdb_obs::json::parse(&json).unwrap();
        assert!(parsed.get("index").is_some());
        assert!(parsed.get("store").is_some());
        let _ = std::fs::remove_file(&ipath);
        let _ = std::fs::remove_file(&spath);
    }

    #[test]
    fn log2_histogram_buckets() {
        let buckets = log2_histogram([0u64, 1, 1, 2, 3, 4, 5, 8, 9].into_iter());
        let get = |label: &str| {
            buckets
                .iter()
                .find(|b| b.label == label)
                .map(|b| b.count)
                .unwrap_or(0)
        };
        assert_eq!(get("0"), 1);
        assert_eq!(get("1"), 2);
        assert_eq!(get("2"), 1);
        assert_eq!(get("3-4"), 2);
        assert_eq!(get("5-8"), 2);
        assert_eq!(get("9-16"), 1);
    }
}
