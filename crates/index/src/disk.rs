//! The index file format: writing it, opening it, and the verification
//! walk.
//!
//! The paper's setting is explicit: the collection (and its index) live on
//! disk, and *disk costs dominate query evaluation*. A
//! [`CompressedIndex`] keeps the file's whole byte image — read and
//! verified once by [`CompressedIndex::open`] — and each fetch slices one
//! list out of it and counts the bytes it read, so experiments report the
//! paper's I/O volume alongside wall time.
//!
//! `NUCIDX03`, written by [`write_index`] for [`ListCodec::Paper`] (`v` =
//! LEB128-style varint):
//!
//! ```text
//! magic "NUCIDX03"
//! header_len:u32le  header_crc:u32le        — IEEE CRC-32 of the header bytes
//! header bytes:
//!   k:u8  stride:v  stopping:(tag:u8 payload)  codec:u8  granularity:u8 (0)
//!   num_records:v  record_lens:v*
//!   vocab_count:v  (code_gap+1:v  len:v  df:v  list_crc:v)*
//!   blob_len:v                              — list offsets are cumulative
//! blob bytes                                — each list covered by its list_crc
//! ```
//!
//! `NUCIDX04`, written by [`write_index`] when the codec is
//! [`ListCodec::Block`], is v3 with two changes: each vocab
//! entry's `list_crc` covers only the list's *skip-table prefix* (the
//! block payloads carry their own CRC-32s inside the skip entries, so a
//! point corruption is detected — and costs — one block, not the list),
//! and each entry gains a `max_count:v` field, the list's largest
//! per-record occurrence count (covered by the header CRC; search never
//! consults it). The magic and the header's codec tag must agree; any
//! other magic or tag is refused at open ([`IndexError::UnsupportedFormat`]
//! for the retired `NUCIDX02`, the retired ablation codec tags and
//! granularity byte 1, the retired record-level postings).
//!
//! Every byte of a file is covered by a checksum: the magic and
//! prefix by the header CRC's span, the header by `header_crc`, and the
//! blob (whose cumulative list extents cover it exactly) by the per-list
//! CRCs — in v4 the skip tables by the vocab CRCs and every block
//! payload by its skip-entry CRC. Every byte a query can read is checked
//! once, when [`CompressedIndex::open`] reads the image: a file that is
//! truncated, longer than its header declares, or fails any CRC is
//! refused there with a typed error, and no fetch computes a checksum.
//! The scrubber and `fsck` find rot on disk after that with
//! [`CompressedIndex::walk`], whose per-list check is the one `open` runs
//! over the image. Files are written through [`AtomicFile`], so a crashed
//! build never leaves a torn index.

use std::fs::File;
use std::io::{Read, Write};
use std::ops::ControlFlow;
use std::path::Path;

use nucdb_obs::Counter;

use crate::block::{skip_table_len, verify_block_list};
use crate::compress::{CompressedIndex, ListCodec, VocabEntry};
use crate::durable::{crc32, read_image, walk, AtomicFile, CountingReader, KeptFile, WalkStep};
use crate::error::IndexError;
use crate::fault::{FaultPlan, FaultyReader};
use crate::interval::IndexParams;
use crate::stopping::StopPolicy;

/// The name the frozen benchmark harness still uses for the one index
/// type.
pub type OnDiskIndex = CompressedIndex;

const MAGIC_V4: &[u8; 8] = b"NUCIDX04";
const MAGIC_V3: &[u8; 8] = b"NUCIDX03";
/// The retired checksum-free generation, kept only to name the refusal.
const RETIRED_MAGIC_V2: &str = "NUCIDX02";
/// Bytes before the header in a file: magic + header_len + header_crc.
const V3_PREFIX_LEN: u64 = 16;

fn write_vu64(out: &mut impl Write, mut value: u64) -> std::io::Result<()> {
    while value >= 0x80 {
        out.write_all(&[(value as u8 & 0x7f) | 0x80])?;
        value >>= 7;
    }
    out.write_all(&[value as u8])
}

/// Read one varint, reporting truncation/overlength against `section` at
/// the absolute file offset `base + input.pos()`.
fn read_vu64<R: Read>(
    input: &mut CountingReader<R>,
    base: u64,
    section: &'static str,
) -> Result<u64, IndexError> {
    let mut value = 0u64;
    let mut byte = [0u8; 1];
    for group in 0..10u32 {
        if input.read(&mut byte)? == 0 {
            return Err(IndexError::bad_at(
                "index file truncated mid-varint",
                section,
                base + input.pos(),
            ));
        }
        value |= ((byte[0] & 0x7f) as u64) << (7 * group);
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(IndexError::bad_at(
        "index file varint too long",
        section,
        base + input.pos(),
    ))
}

fn write_stopping(out: &mut impl Write, stopping: &Option<StopPolicy>) -> std::io::Result<()> {
    match stopping {
        None => out.write_all(&[0]),
        Some(StopPolicy::DfFraction(f)) => {
            out.write_all(&[1])?;
            write_vu64(out, f.to_bits())
        }
        Some(StopPolicy::DfAbsolute(n)) => {
            out.write_all(&[2])?;
            write_vu64(out, *n as u64)
        }
        Some(StopPolicy::TopK(n)) => {
            out.write_all(&[3])?;
            write_vu64(out, *n as u64)
        }
    }
}

fn read_stopping<R: Read>(
    input: &mut CountingReader<R>,
    base: u64,
) -> Result<Option<StopPolicy>, IndexError> {
    let mut tag = [0u8; 1];
    input.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => None,
        1 => Some(StopPolicy::DfFraction(f64::from_bits(read_vu64(
            input, base, "params",
        )?))),
        2 => {
            let n = read_vu64(input, base, "params")?;
            Some(StopPolicy::DfAbsolute(u32::try_from(n).map_err(|_| {
                IndexError::bad_at("df limit overflow", "params", base + input.pos())
            })?))
        }
        3 => Some(StopPolicy::TopK(read_vu64(input, base, "params")? as usize)),
        _ => {
            return Err(IndexError::bad_at(
                "unknown stopping tag",
                "params",
                base + input.pos(),
            ))
        }
    })
}

/// Serialize the header fields. A [`ListCodec::Paper`] vocabulary entry
/// carries the CRC-32 of its list bytes; a [`ListCodec::Block`] entry's
/// CRC covers only the skip-table prefix and is followed by the list's
/// max count.
fn encode_header_fields(
    out: &mut Vec<u8>,
    index: &CompressedIndex,
    blob_len: usize,
) -> std::io::Result<()> {
    let params = index.params();
    out.push(params.k as u8);
    write_vu64(out, params.stride as u64)?;
    write_stopping(out, &params.stopping)?;
    out.push(index.codec().tag());
    out.push(crate::interval::OFFSET_GRANULARITY);

    write_vu64(out, index.num_records() as u64)?;
    for &len in index.record_lens() {
        write_vu64(out, len as u64)?;
    }

    write_vu64(out, index.vocab().len() as u64)?;
    let mut prev_code = 0u64;
    for (idx, entry) in index.vocab().iter().enumerate() {
        write_vu64(out, entry.code - prev_code + 1)?;
        prev_code = entry.code;
        write_vu64(out, entry.len as u64)?;
        write_vu64(out, entry.df as u64)?;
        write_vu64(out, index.list_crcs[idx] as u64)?;
        if let Some(max_counts) = index.max_counts() {
            write_vu64(out, max_counts[idx] as u64)?;
        }
    }

    write_vu64(out, blob_len as u64)
}

impl CompressedIndex {
    /// An index of these parts with no image yet.
    fn bare(
        params: IndexParams,
        codec: ListCodec,
        record_lens: Vec<u32>,
        vocab: Vec<VocabEntry>,
        list_crcs: Vec<u32>,
        max_counts: Option<Vec<u32>>,
    ) -> CompressedIndex {
        CompressedIndex {
            params,
            codec,
            record_lens,
            vocab,
            list_crcs,
            max_counts,
            image: Vec::new(),
            blob_start: 0,
            file: KeptFile::default(),
            bytes_read: Counter::new(),
            lists_read: Counter::new(),
        }
    }

    /// Assemble an index from its parts and `blob`, the concatenated
    /// lists: compute every list's CRC and lay out the file image
    /// [`write_index`] writes. `max_counts`, when present, must be
    /// parallel to `vocab`.
    pub(crate) fn from_parts(
        params: IndexParams,
        codec: ListCodec,
        record_lens: Vec<u32>,
        vocab: Vec<VocabEntry>,
        max_counts: Option<Vec<u32>>,
        blob: Vec<u8>,
    ) -> CompressedIndex {
        debug_assert!(max_counts.as_ref().is_none_or(|m| m.len() == vocab.len()));
        let list_crcs = vocab
            .iter()
            .map(|entry| {
                let list = &blob[entry.offset as usize..][..entry.len as usize];
                match codec {
                    ListCodec::Paper => crc32(list),
                    ListCodec::Block => crc32(&list[..skip_table_len(entry.df).min(list.len())]),
                }
            })
            .collect();
        let mut index =
            CompressedIndex::bare(params, codec, record_lens, vocab, list_crcs, max_counts);
        let mut header = Vec::new();
        encode_header_fields(&mut header, &index, blob.len()).expect("writes to a Vec succeed");
        // A header past 4 GiB cannot be framed; `write_index` refuses it.
        let header_len = u32::try_from(header.len()).unwrap_or(u32::MAX);
        let mut image = Vec::with_capacity(V3_PREFIX_LEN as usize + header.len() + blob.len());
        image.extend_from_slice(match codec {
            ListCodec::Paper => MAGIC_V3,
            ListCodec::Block => MAGIC_V4,
        });
        image.extend_from_slice(&header_len.to_le_bytes());
        image.extend_from_slice(&crc32(&header).to_le_bytes());
        image.extend_from_slice(&header);
        index.blob_start = image.len() as u64;
        image.extend_from_slice(&blob);
        index.image = image;
        index
    }
}

/// Write `index`'s file image to `path`, atomically: the file is staged
/// in a temp file, `fsync`ed, and renamed into place, so a crash
/// mid-write never leaves a torn index.
///
/// Block-codec indexes are written as `NUCIDX04` (per-block CRCs, stored
/// max counts), paper-codec indexes as `NUCIDX03`.
pub fn write_index(index: &CompressedIndex, path: &Path) -> Result<(), IndexError> {
    if index.blob_start - V3_PREFIX_LEN >= u64::from(u32::MAX) {
        return Err(IndexError::Unsupported("index header exceeds 4 GiB"));
    }
    let mut out = AtomicFile::create(path)?;
    out.write_all(&index.image)?;
    out.commit()?;
    Ok(())
}

/// Parse the header fields of a file whose magic promised `magic_codec`
/// into an index with no image yet, and the blob length they declare.
/// `base` is the absolute file offset of `input`'s first byte, used to
/// locate violations. The returned header's `blob_start` is a
/// placeholder the caller fills in.
fn read_header_fields<R: Read>(
    input: &mut CountingReader<R>,
    base: u64,
    magic_codec: ListCodec,
) -> Result<(CompressedIndex, u64), IndexError> {
    let mut small = [0u8; 1];
    input.read_exact(&mut small)?;
    let k = small[0] as usize;
    if !(1..=32).contains(&k) {
        return Err(IndexError::bad_at(
            "interval length out of range",
            "params",
            base + input.pos(),
        ));
    }
    let stride = read_vu64(input, base, "params")? as usize;
    if stride == 0 {
        return Err(IndexError::bad_at(
            "zero stride",
            "params",
            base + input.pos(),
        ));
    }
    let stopping = read_stopping(input, base)?;
    input.read_exact(&mut small)?;
    let codec = ListCodec::from_tag(small[0])?;
    if codec != magic_codec {
        return Err(IndexError::bad_in(
            "magic and list codec disagree",
            "params",
        ));
    }
    input.read_exact(&mut small)?;
    crate::interval::check_granularity(small[0])?;

    let num_records = read_vu64(input, base, "record-lens")?;
    if num_records > u32::MAX as u64 {
        return Err(IndexError::bad_at(
            "record count overflow",
            "record-lens",
            base + input.pos(),
        ));
    }
    // Cap the up-front allocation: the count is read before the
    // allocation it sizes, and an absurd one must fail with a clean parse
    // error rather than an OOM abort.
    let mut record_lens = Vec::with_capacity((num_records as usize).min(1 << 20));
    for _ in 0..num_records {
        record_lens.push(
            u32::try_from(read_vu64(input, base, "record-lens")?).map_err(|_| {
                IndexError::bad_at("record length overflow", "record-lens", base + input.pos())
            })?,
        );
    }

    let vocab_count = read_vu64(input, base, "vocabulary")?;
    let mut vocab = Vec::with_capacity((vocab_count as usize).min(1 << 20));
    let mut list_crcs = Vec::with_capacity((vocab_count as usize).min(1 << 20));
    let mut max_counts = (codec == ListCodec::Block)
        .then(|| Vec::with_capacity((vocab_count as usize).min(1 << 20)));
    let mut prev_code = 0u64;
    let mut offset = 0u64;
    for _ in 0..vocab_count {
        let gap = read_vu64(input, base, "vocabulary")?;
        if gap == 0 {
            return Err(IndexError::bad_at(
                "zero code gap",
                "vocabulary",
                base + input.pos(),
            ));
        }
        let code = prev_code.checked_add(gap - 1).ok_or_else(|| {
            IndexError::bad_at("interval code overflow", "vocabulary", base + input.pos())
        })?;
        prev_code = code;
        let len = u32::try_from(read_vu64(input, base, "vocabulary")?).map_err(|_| {
            IndexError::bad_at("list length overflow", "vocabulary", base + input.pos())
        })?;
        let df = u32::try_from(read_vu64(input, base, "vocabulary")?)
            .map_err(|_| IndexError::bad_at("df overflow", "vocabulary", base + input.pos()))?;
        let crc = u32::try_from(read_vu64(input, base, "vocabulary")?).map_err(|_| {
            IndexError::bad_at("list checksum overflow", "vocabulary", base + input.pos())
        })?;
        list_crcs.push(crc);
        if let Some(max_counts) = &mut max_counts {
            let max_count = u32::try_from(read_vu64(input, base, "vocabulary")?).map_err(|_| {
                IndexError::bad_at("max count overflow", "vocabulary", base + input.pos())
            })?;
            max_counts.push(max_count);
        }
        vocab.push(VocabEntry {
            code,
            offset,
            len,
            df,
        });
        offset += len as u64;
    }

    let blob_len = read_vu64(input, base, "blob")?;
    if blob_len != offset {
        return Err(IndexError::bad_at(
            "blob length disagrees with vocabulary",
            "blob",
            base + input.pos(),
        ));
    }

    let mut params = IndexParams::new(k).with_stride(stride);
    params.stopping = stopping;
    let index = CompressedIndex::bare(params, codec, record_lens, vocab, list_crcs, max_counts);
    Ok((index, blob_len))
}

/// Check the magic and the header CRC at the front of `bytes` (a file
/// image, or its header region) and parse the header: an index with no
/// image yet, and the blob length. `bytes` too short for the magic, the
/// prefix or the header it frames is refused at its end.
fn read_header(bytes: &[u8]) -> Result<(CompressedIndex, u64), IndexError> {
    let cut = |section| IndexError::bad_at("index file truncated", section, bytes.len() as u64);
    let magic_codec = match bytes.get(..8).ok_or_else(|| cut("magic"))? {
        m if m == MAGIC_V3 => ListCodec::Paper,
        m if m == MAGIC_V4 => ListCodec::Block,
        m if m == RETIRED_MAGIC_V2.as_bytes() => {
            return Err(IndexError::UnsupportedFormat(RETIRED_MAGIC_V2.to_string()));
        }
        _ => return Err(IndexError::bad_at("bad magic", "magic", 0)),
    };
    let prefix = bytes
        .get(..V3_PREFIX_LEN as usize)
        .ok_or_else(|| cut("header"))?;
    let word = |at: usize| u32::from_le_bytes(prefix[at..at + 4].try_into().expect("4 bytes"));
    let header_len = word(8) as usize;
    let header_bytes = (bytes[prefix.len()..].get(..header_len)).ok_or_else(|| cut("header"))?;
    let (expected, actual) = (word(12), crc32(header_bytes));
    if actual != expected {
        return Err(IndexError::checksum(
            "header",
            V3_PREFIX_LEN,
            expected,
            actual,
        ));
    }
    // The bytes are authenticated; parse errors past this point
    // would indicate a writer bug, but report them properly anyway.
    let mut fields = CountingReader::new(header_bytes);
    let (mut index, blob_len) = read_header_fields(&mut fields, V3_PREFIX_LEN, magic_codec)?;
    if fields.pos() != header_len as u64 {
        return Err(IndexError::bad_at(
            "trailing bytes in header",
            "header",
            V3_PREFIX_LEN + fields.pos(),
        ));
    }
    index.blob_start = V3_PREFIX_LEN + header_len as u64;
    Ok((index, blob_len))
}

impl CompressedIndex {
    /// Open an index file written by [`write_index`]: read its whole
    /// image once, parse the header, and check every list against every
    /// CRC covering it. The first damage is the typed error: a file
    /// truncated inside its blob or longer than its header declares, a
    /// list failing its vocabulary CRC, or a block failing its own, each
    /// at its absolute file offset.
    pub fn open(path: &Path) -> Result<CompressedIndex, IndexError> {
        CompressedIndex::open_with(path, None)
    }

    /// Open like [`CompressedIndex::open`], but read the image through a
    /// deterministic fault-injection shim: the header comes from the
    /// pristine file, and `plan` applies to every byte after it, at
    /// absolute offsets. This is the durability-test entry point.
    pub fn open_faulty(path: &Path, plan: FaultPlan) -> Result<CompressedIndex, IndexError> {
        CompressedIndex::open_with(path, Some(plan))
    }

    fn open_with(path: &Path, plan: Option<FaultPlan>) -> Result<CompressedIndex, IndexError> {
        let index = CompressedIndex::read(path, plan)?;
        for (idx, entry) in index.vocab.iter().enumerate() {
            index.check_list(idx, index.list_bytes(entry))?;
        }
        Ok(index)
    }

    /// Read the file's image and parse its header, checking no list.
    fn read(path: &Path, plan: Option<FaultPlan>) -> Result<CompressedIndex, IndexError> {
        let file = File::open(path)?;
        let mut image = read_image(&file, file.metadata()?.len() as usize)?;
        let (mut index, blob_len) = read_header(&image)?;
        let blob_start = index.blob_start as usize;
        if let Some(plan) = plan {
            let faulty = read_image(FaultyReader::new(&image[..], plan), image.len())?;
            image.truncate(blob_start);
            image.extend_from_slice(faulty.get(blob_start..).unwrap_or_default());
        }
        let (len, end) = (image.len() as u64, index.blob_start + blob_len);
        if len < end {
            return Err(IndexError::bad_at(
                "index file truncated inside its blob",
                "blob",
                len,
            ));
        }
        if len > end {
            return Err(IndexError::bad_at(
                "trailing bytes past the blob's declared end",
                "blob",
                end,
            ));
        }
        index.image = image;
        index.file = KeptFile::new(file);
        Ok(index)
    }

    /// `fsck`'s door: read the file at `path` and hand `each` every step
    /// of [`CompressedIndex::walk`] over it, damaged or not, instead of
    /// stopping at the first damage as [`CompressedIndex::open`] does.
    /// Returns the record count the header declares, or the error that
    /// keeps the file from opening at all (its header, or a length that
    /// disagrees with it), when no list is walked.
    pub fn fsck(
        path: &Path,
        each: impl FnMut(WalkStep, Result<u64, IndexError>) -> ControlFlow<()>,
    ) -> Result<u32, IndexError> {
        let index = CompressedIndex::read(path, None)?;
        index.walk(&index.image[..], each);
        Ok(index.num_records())
    }

    /// Check list `idx` against every CRC covering it: the vocabulary CRC
    /// (a paper list whole, a block list over its skip-table prefix), and
    /// a block list's every block payload against its skip-entry CRC, at
    /// their absolute file offsets.
    fn check_list(&self, idx: usize, list: &[u8]) -> Result<(), IndexError> {
        let entry = &self.vocab[idx];
        let at = self.blob_start + entry.offset;
        let covered = match self.codec {
            ListCodec::Paper => list,
            ListCodec::Block => list.get(..skip_table_len(entry.df)).ok_or_else(|| {
                IndexError::bad_at("list shorter than its skip table", "list", at)
            })?,
        };
        let (expected, actual) = (self.list_crcs[idx], crc32(covered));
        if actual != expected {
            return Err(IndexError::checksum("list", at, expected, actual));
        }
        match self.codec {
            ListCodec::Paper => Ok(()),
            ListCodec::Block => {
                verify_block_list(list, entry.df).map_err(|e| e.with_base_offset(at))
            }
        }
    }

    /// The one verification walk over a copy of this index's file, read
    /// from `input` in file order: the header region (magic, stored
    /// header CRC, full field structure), then every list through the
    /// check [`CompressedIndex::open`] runs. Touches no query I/O
    /// counter.
    pub fn walk(
        &self,
        input: impl Read,
        each: impl FnMut(WalkStep, Result<u64, IndexError>) -> ControlFlow<()>,
    ) {
        let header = |bytes: &[u8]| read_header(bytes).map(drop);
        let lens = self.vocab.iter().map(|e| e.len);
        let list = |idx: usize, list: &[u8]| self.check_list(idx, list);
        walk(input, self.blob_start, header, lens, list, each)
    }

    /// [`CompressedIndex::walk`] over the file as it is on disk now,
    /// through the handle `open` kept — rot since open shows up here,
    /// though queries never see it. An index that was never opened from
    /// a file has nothing on disk to scrub: the walk is empty.
    pub fn scrub(&self, each: impl FnMut(WalkStep, Result<u64, IndexError>) -> ControlFlow<()>) {
        self.file.scrub(each, |file, each| self.walk(file, each));
    }

    /// On-disk format name, from the magic the file was opened with.
    pub fn format(&self) -> &'static str {
        match self.codec {
            ListCodec::Paper => "NUCIDX03",
            ListCodec::Block => "NUCIDX04",
        }
    }

    /// Byte offset where the postings blob begins — equivalently, the
    /// size of the header region the walk's first step verifies.
    pub fn blob_start(&self) -> u64 {
        self.blob_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::compress::{FnVisitor, PostingsVisitor};
    use crate::postings::PostingsList;
    use crate::stopping::StopPolicy;
    use nucdb_seq::random::{CollectionSpec, SyntheticCollection};

    fn build_sample(seed: u64, params: IndexParams) -> CompressedIndex {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(seed));
        let mut builder = IndexBuilder::new(params);
        for record in &coll.records {
            builder.add_record(&record.seq.representative_bases());
        }
        builder.finish()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nucdb_disk_{}_{}", name, std::process::id()))
    }

    #[test]
    fn write_load_round_trip() {
        let index = build_sample(41, IndexParams::new(8));
        let path = temp_path("rt");
        write_index(&index, &path).unwrap();
        let loaded = CompressedIndex::open(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(loaded.params(), index.params());
        assert_eq!(loaded.num_records(), index.num_records());
        assert_eq!(loaded.record_lens(), index.record_lens());
        assert_eq!(loaded.vocab(), index.vocab());
        assert_eq!(loaded.blob(), index.blob());
    }

    #[test]
    fn round_trip_preserves_stopping_and_codec() {
        let params = IndexParams::new(6).with_stopping(StopPolicy::DfFraction(0.25));
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(42));
        let mut builder = IndexBuilder::new(params.clone()).with_codec(ListCodec::Block);
        for record in &coll.records {
            builder.add_record(&record.seq.representative_bases());
        }
        let index = builder.finish();
        let path = temp_path("meta");
        write_index(&index, &path).unwrap();
        let loaded = CompressedIndex::open(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.params().stopping, Some(StopPolicy::DfFraction(0.25)));
        assert_eq!(loaded.codec(), ListCodec::Block);
        assert_eq!(loaded.decode_all().unwrap(), index.decode_all().unwrap());
    }

    #[test]
    fn on_disk_postings_match_in_memory() {
        let index = build_sample(43, IndexParams::new(8));
        let path = temp_path("od");
        write_index(&index, &path).unwrap();
        let disk = CompressedIndex::open(&path).unwrap();

        assert_eq!(disk.num_records(), index.num_records());
        assert_eq!(disk.distinct_intervals(), index.distinct_intervals());
        for entry in index.vocab().iter().step_by(17) {
            let from_disk = disk.postings(entry.code).unwrap().unwrap();
            let from_mem = index.postings(entry.code).unwrap().unwrap();
            assert_eq!(from_disk, from_mem, "code {}", entry.code);
            assert_eq!(disk.df(entry.code), entry.df);
        }
        assert!(disk.postings(u64::MAX).unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn io_counters_track_reads() {
        let index = build_sample(44, IndexParams::new(8));
        let path = temp_path("ctr");
        write_index(&index, &path).unwrap();
        let disk = CompressedIndex::open(&path).unwrap();

        assert_eq!(disk.bytes_read(), 0);
        let entry = index.vocab()[0];
        disk.postings(entry.code).unwrap().unwrap();
        assert_eq!(disk.bytes_read(), entry.len as u64);
        assert_eq!(disk.lists_read(), 1);
        // Absent code costs nothing.
        disk.postings(u64::MAX).unwrap();
        assert_eq!(disk.lists_read(), 1);
        disk.reset_io_counters();
        assert_eq!(disk.bytes_read(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streaming_fetch_matches_materializing_fetch() {
        let index = build_sample(47, IndexParams::new(8));
        let path = temp_path("strm");
        write_index(&index, &path).unwrap();
        let disk = CompressedIndex::open(&path).unwrap();

        for entry in index.vocab().iter().step_by(13) {
            let materialized = disk.postings(entry.code).unwrap().unwrap();
            let mut streamed: Vec<(u32, u32)> = Vec::new();
            let stats = disk
                .postings_stream(entry.code, &mut FnVisitor(|r, o| streamed.push((r, o))))
                .unwrap()
                .unwrap();
            assert_eq!(stats.df, entry.df);
            let expect: Vec<(u32, u32)> = materialized
                .entries
                .iter()
                .flat_map(|p| p.offsets.iter().map(move |&o| (p.record, o)))
                .collect();
            assert_eq!(streamed, expect, "code {}", entry.code);

            let counts: Vec<(u32, u32)> = materialized
                .entries
                .iter()
                .map(|p| (p.record, p.offsets.len() as u32))
                .collect();
            assert_eq!(disk.counts(entry.code).unwrap().unwrap(), counts);
        }
        assert!(disk
            .postings_stream(u64::MAX, &mut FnVisitor(|_, _| {}))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_fetches_agree_with_sequential() {
        let index = build_sample(48, IndexParams::new(8));
        let path = temp_path("conc");
        write_index(&index, &path).unwrap();
        let disk = CompressedIndex::open(&path).unwrap();

        let codes: Vec<u64> = index.vocab().iter().step_by(7).map(|e| e.code).collect();
        let expected: Vec<PostingsList> = codes
            .iter()
            .map(|&c| index.postings(c).unwrap().unwrap())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (disk, codes, expected) = (&disk, &codes, &expected);
                scope.spawn(move || {
                    for (code, expect) in codes.iter().zip(expected) {
                        assert_eq!(&disk.postings(*code).unwrap().unwrap(), expect);
                    }
                });
            }
        });
        let _ = std::fs::remove_file(&path);
    }

    fn build_block_sample(seed: u64) -> CompressedIndex {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(seed));
        let mut builder = IndexBuilder::new(IndexParams::new(8)).with_codec(ListCodec::Block);
        for record in &coll.records {
            builder.add_record(&record.seq.representative_bases());
        }
        builder.finish()
    }

    #[test]
    fn block_index_round_trips_as_v4() {
        let index = build_block_sample(61);
        let path = temp_path("v4rt");
        write_index(&index, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V4);

        let loaded = CompressedIndex::open(&path).unwrap();
        assert_eq!(loaded.params(), index.params());
        assert_eq!(loaded.codec(), ListCodec::Block);
        assert_eq!(loaded.vocab(), index.vocab());
        assert_eq!(loaded.blob(), index.blob());
        assert_eq!(loaded.max_counts(), index.max_counts());
        assert!(loaded.max_counts().is_some());

        for entry in index.vocab().iter().step_by(11) {
            assert_eq!(
                loaded.postings(entry.code).unwrap().unwrap(),
                index.postings(entry.code).unwrap().unwrap()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_block_codecs_still_write_v3() {
        let index = build_sample(62, IndexParams::new(8));
        let path = temp_path("still_v3");
        write_index(&index, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_block_detected_at_load_and_fetch_names_the_block() {
        let index = build_block_sample(64);
        let path = temp_path("v4corr");
        write_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let blob_start = bytes.len() - index.blob().len();
        // Pick a list with at least one block and flip a payload byte
        // (past the skip table).
        let entry = *index
            .vocab()
            .iter()
            .max_by_key(|e| e.df)
            .expect("nonempty index");
        let skip_len = skip_table_len(entry.df);
        let victim = blob_start + entry.offset as usize + skip_len;
        bytes[victim] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // Open refuses it, naming the block at its absolute file offset.
        let at = (blob_start + entry.offset as usize + skip_len) as u64;
        match CompressedIndex::open(&path) {
            Err(IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "block");
                assert_eq!(offset, at);
            }
            other => panic!("expected block corruption, got {other:?}"),
        }
        // The fsck walk names that block and verifies every other list.
        let mut findings = Vec::new();
        let records = CompressedIndex::fsck(&path, |step, outcome| {
            findings.extend(outcome.err().map(|e| (step, e.to_string())));
            ControlFlow::Continue(())
        });
        assert_eq!(records.unwrap(), index.num_records());
        let list = index.vocab().iter().position(|e| e.code == entry.code);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].0, WalkStep::Item(list.unwrap()));
        assert!(
            findings[0].1.contains(&format!("byte {at}")),
            "{findings:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_skip_table_detected_as_list_corruption() {
        let index = build_block_sample(65);
        let path = temp_path("v4skip");
        write_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let blob_start = bytes.len() - index.blob().len();
        let entry = index.vocab()[0];
        // First byte of the first skip entry.
        bytes[blob_start + entry.offset as usize] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        match CompressedIndex::open(&path) {
            Err(IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "list");
                assert_eq!(offset, (blob_start + entry.offset as usize) as u64);
            }
            other => panic!("expected list corruption, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v4_streams_report_block_counters() {
        let index = build_block_sample(66);
        let path = temp_path("v4strm");
        write_index(&index, &path).unwrap();
        let disk = CompressedIndex::open(&path).unwrap();
        struct Collect(Vec<(u32, u32)>);
        impl PostingsVisitor for Collect {
            fn visit(&mut self, record: u32, value: u32) {
                self.0.push((record, value));
            }
        }
        for entry in index.vocab().iter().step_by(9) {
            let mut visitor = Collect(Vec::new());
            let stats = disk
                .postings_stream(entry.code, &mut visitor)
                .unwrap()
                .unwrap();
            assert_eq!(stats.df, entry.df);
            assert_eq!(stats.ids_decoded, entry.df as u64);
            assert_eq!(
                stats.blocks_decoded as usize,
                (entry.df as usize).div_ceil(crate::block::BLOCK_LEN)
            );
            assert_eq!(stats.bytes_read, entry.len as u64);
            let expect: Vec<(u32, u32)> = index
                .postings(entry.code)
                .unwrap()
                .unwrap()
                .entries
                .iter()
                .flat_map(|p| p.offsets.iter().map(move |&o| (p.record, o)))
                .collect();
            assert_eq!(visitor.0, expect);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let index = build_sample(45, IndexParams::new(6));
        let path = temp_path("mag");
        write_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            CompressedIndex::open(&path),
            Err(IndexError::BadFormat(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_header_detected_by_crc() {
        let index = build_sample(49, IndexParams::new(6));
        let path = temp_path("hcrc");
        write_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // First header byte (after the 16-byte prefix) is `k`.
        bytes[16] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match CompressedIndex::open(&path) {
            Err(IndexError::Corruption { section, .. }) => assert_eq!(section, "header"),
            other => panic!("expected header corruption, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_list_detected_on_load_and_on_fetch() {
        let index = build_sample(50, IndexParams::new(6));
        let path = temp_path("lcrc");
        write_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // final blob byte: inside the last list
        bytes[last] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        match CompressedIndex::open(&path) {
            Err(IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "list");
                assert!(offset <= last as u64);
            }
            other => panic!("expected list corruption, got {other:?}"),
        }

        // A list whose bytes break the codec under intact CRCs opens,
        // and its fetch fails the decode instead of answering: here the
        // header says a record the list holds past offset 0 is one base
        // long.
        let longest = index.vocab().iter().max_by_key(|e| e.df).unwrap();
        let list = index.postings(longest.code).unwrap().unwrap();
        let held = list.entries.iter().find(|p| p.offsets.last() > Some(&0));
        write_index(&index, &path).unwrap();
        crate::fault::forge_short_record(&path, held.unwrap().record).unwrap();
        let disk = CompressedIndex::open(&path).unwrap();
        match disk.postings(longest.code) {
            Err(IndexError::BadFormat(v)) => assert_eq!(v.section, "postings"),
            other => panic!("expected a fetch-time decode error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_rejected() {
        let index = build_sample(46, IndexParams::new(6));
        let path = temp_path("trunc");
        write_index(&index, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(CompressedIndex::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_index_round_trips() {
        let index = IndexBuilder::new(IndexParams::new(8)).finish();
        let path = temp_path("empty");
        write_index(&index, &path).unwrap();
        let loaded = CompressedIndex::open(&path).unwrap();
        assert_eq!(loaded.num_records(), 0);
        assert_eq!(loaded.distinct_intervals(), 0);
        let disk = CompressedIndex::open(&path).unwrap();
        assert!(disk.postings(0).unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }
}
