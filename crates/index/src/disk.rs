//! The on-disk index format and the on-demand list reader.
//!
//! The paper's setting is explicit: the collection (and its index) live on
//! disk, and *disk costs dominate query evaluation*. The on-disk layout
//! therefore keeps the vocabulary and record-length table small enough to
//! hold in memory, while postings lists are fetched individually — one
//! seek + one contiguous read per query interval. [`OnDiskIndex`] counts
//! the bytes it reads so experiments can report I/O volume alongside wall
//! time (wall time alone understates the win on a machine whose page
//! cache swallows the collection).
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
//! payload by its skip-entry CRC — so any single corrupted byte is
//! detected at load, and on the pread path the moment the affected list
//! (v4: block) is fetched and decoded. Files are written through
//! [`AtomicFile`], so a crashed build never leaves a torn index.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use nucdb_obs::{Counter, MetricsRegistry};

use crate::block::{decode_block_stream, skip_table_len, verify_block_list, Emit};
use crate::compress::{
    decode_postings, decode_postings_with, CompressedIndex, FetchStats, ListCodec, PostingsVisitor,
    VocabEntry,
};
use crate::durable::{crc32, read_exact_chunked, AtomicFile, CountingReader};
use crate::error::IndexError;
use crate::fault::{FaultPlan, FaultyFile};
use crate::interval::IndexParams;
use crate::postings::PostingsList;
use crate::pread::PositionalReader;
use crate::stopping::StopPolicy;

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
fn encode_header_fields(out: &mut Vec<u8>, index: &CompressedIndex) -> Result<(), IndexError> {
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
    let blob = index.blob();
    let mut prev_code = 0u64;
    for (idx, entry) in index.vocab().iter().enumerate() {
        write_vu64(out, entry.code - prev_code + 1)?;
        prev_code = entry.code;
        write_vu64(out, entry.len as u64)?;
        write_vu64(out, entry.df as u64)?;
        let list = &blob[entry.offset as usize..][..entry.len as usize];
        match index.codec() {
            ListCodec::Paper => write_vu64(out, crc32(list) as u64)?,
            ListCodec::Block => {
                let skip_len = skip_table_len(entry.df).min(list.len());
                write_vu64(out, crc32(&list[..skip_len]) as u64)?;
                let max_counts = index.max_counts().expect("block indexes carry max counts");
                write_vu64(out, max_counts[idx] as u64)?;
            }
        }
    }

    write_vu64(out, blob.len() as u64)?;
    Ok(())
}

/// Serialize a [`CompressedIndex`] to `path`, atomically: the file is
/// staged in a temp file, `fsync`ed, and renamed into place, so a crash
/// mid-write never leaves a torn index.
///
/// Block-codec indexes are written as `NUCIDX04` (per-block CRCs, stored
/// max counts), paper-codec indexes as `NUCIDX03`.
pub fn write_index(index: &CompressedIndex, path: &Path) -> Result<(), IndexError> {
    let magic = match index.codec() {
        ListCodec::Paper => MAGIC_V3,
        ListCodec::Block => MAGIC_V4,
    };
    let mut header = Vec::new();
    encode_header_fields(&mut header, index)?;
    let header_len = u32::try_from(header.len())
        .map_err(|_| IndexError::Unsupported("index header exceeds 4 GiB"))?;

    let mut out = AtomicFile::create(path)?;
    out.write_all(magic)?;
    out.write_all(&header_len.to_le_bytes())?;
    out.write_all(&crc32(&header).to_le_bytes())?;
    out.write_all(&header)?;
    out.write_all(index.blob())?;
    out.commit()?;
    Ok(())
}

/// Shared header contents (everything except the blob).
struct Header {
    params: IndexParams,
    codec: ListCodec,
    record_lens: Vec<u32>,
    vocab: Vec<VocabEntry>,
    /// Per-list CRC-32s, parallel to `vocab`. In v4 files each CRC
    /// covers only the list's skip-table prefix (block payloads
    /// self-checksum).
    list_crcs: Vec<u32>,
    /// Per-list max per-record occurrence counts (v4 only).
    max_counts: Option<Vec<u32>>,
    blob_len: u64,
    /// Byte position of the blob within the file.
    blob_start: u64,
}

/// Parse the header fields of a file whose magic promised `magic_codec`.
/// `base` is the absolute file offset of `input`'s first byte, used to
/// locate violations. The returned header's `blob_start` is a
/// placeholder the caller fills in.
fn read_header_fields<R: Read>(
    input: &mut CountingReader<R>,
    base: u64,
    magic_codec: ListCodec,
) -> Result<Header, IndexError> {
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
        let code = prev_code + gap - 1;
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
    Ok(Header {
        params,
        codec,
        record_lens,
        vocab,
        list_crcs,
        max_counts,
        blob_len,
        blob_start: 0,
    })
}

fn read_header<R: Read>(input: &mut CountingReader<R>) -> Result<Header, IndexError> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    let magic_codec = match &magic {
        m if m == MAGIC_V3 => ListCodec::Paper,
        m if m == MAGIC_V4 => ListCodec::Block,
        m if m == RETIRED_MAGIC_V2.as_bytes() => {
            return Err(IndexError::UnsupportedFormat(RETIRED_MAGIC_V2.to_string()));
        }
        _ => return Err(IndexError::bad_at("bad magic", "magic", 0)),
    };
    let mut word = [0u8; 4];
    input.read_exact(&mut word)?;
    let header_len = u32::from_le_bytes(word) as usize;
    input.read_exact(&mut word)?;
    let expected = u32::from_le_bytes(word);
    let header_bytes = read_exact_chunked(input, header_len)?;
    let actual = crc32(&header_bytes);
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
    let mut fields = CountingReader::new(&header_bytes[..]);
    let mut header = read_header_fields(&mut fields, V3_PREFIX_LEN, magic_codec)?;
    if fields.pos() != header_len as u64 {
        return Err(IndexError::bad_at(
            "trailing bytes in header",
            "header",
            V3_PREFIX_LEN + fields.pos(),
        ));
    }
    header.blob_start = V3_PREFIX_LEN + header_len as u64;
    Ok(header)
}

/// Check one fetched list against its vocabulary CRC. A paper list is
/// covered whole; a block list only over its skip-table prefix — each
/// block payload is verified against its own skip-entry CRC when it is
/// decoded, so a corrupt block costs one block. `at` is the list's
/// absolute file offset.
fn check_list_crc(
    codec: ListCodec,
    list: &[u8],
    df: u32,
    expected: u32,
    at: u64,
) -> Result<(), IndexError> {
    let covered = match codec {
        ListCodec::Paper => list,
        ListCodec::Block => list
            .get(..skip_table_len(df))
            .ok_or_else(|| IndexError::bad_at("list shorter than its skip table", "list", at))?,
    };
    let actual = crc32(covered);
    if actual != expected {
        return Err(IndexError::checksum("list", at, expected, actual));
    }
    Ok(())
}

/// Verify every byte of one list: [`check_list_crc`], plus every block
/// payload of a block list against its skip-entry CRC.
fn verify_list(
    codec: ListCodec,
    list: &[u8],
    df: u32,
    expected: u32,
    at: u64,
) -> Result<(), IndexError> {
    check_list_crc(codec, list, df, expected, at)?;
    if codec == ListCodec::Block {
        verify_block_list(list, df).map_err(|e| e.with_base_offset(at))?;
    }
    Ok(())
}

/// Verify every list in a fully loaded blob, so whole-file loads check
/// every blob byte.
fn verify_blob(header: &Header, blob: &[u8]) -> Result<(), IndexError> {
    for (entry, &expected) in header.vocab.iter().zip(&header.list_crcs) {
        let list = &blob[entry.offset as usize..][..entry.len as usize];
        let at = header.blob_start + entry.offset;
        verify_list(header.codec, list, entry.df, expected, at)?;
    }
    Ok(())
}

/// Load a whole index from any byte stream; every byte is
/// checksum-verified before the index is returned.
pub fn load_index_from(reader: impl Read) -> Result<CompressedIndex, IndexError> {
    let mut input = CountingReader::new(reader);
    let header = read_header(&mut input)?;
    let blob = read_exact_chunked(&mut input, header.blob_len as usize)?;
    verify_blob(&header, &blob)?;
    Ok(CompressedIndex::from_parts(
        header.params,
        header.codec,
        header.record_lens,
        header.vocab,
        header.max_counts,
        blob,
    ))
}

/// Load a whole index file into memory.
pub fn load_index(path: &Path) -> Result<CompressedIndex, IndexError> {
    load_index_from(BufReader::new(File::open(path)?))
}

/// An index whose postings stay on disk: the vocabulary and record-length
/// table are memory-resident, each list is fetched with one positional
/// read (`pread`-style, no shared cursor) when asked for. All methods take
/// `&self` and concurrent fetches from multiple threads proceed without
/// contention; the I/O counters are atomics.
///
/// Every fetched list is verified against its stored CRC-32; a mismatch
/// surfaces as [`IndexError::Corruption`] naming the file
/// offset, and no decoded (potentially wrong) postings escape.
pub struct OnDiskIndex {
    file: PositionalReader,
    params: IndexParams,
    codec: ListCodec,
    record_lens: Vec<u32>,
    vocab: Vec<VocabEntry>,
    list_crcs: Vec<u32>,
    blob_start: u64,
    bytes_read: Counter,
    lists_read: Counter,
}

impl OnDiskIndex {
    /// Open an index file written by [`write_index`].
    pub fn open(path: &Path) -> Result<OnDiskIndex, IndexError> {
        let mut input = CountingReader::new(BufReader::new(File::open(path)?));
        let header = read_header(&mut input)?;
        let file = PositionalReader::new(input.into_inner().into_inner());
        Ok(OnDiskIndex::from_header(header, file))
    }

    /// Open like [`OnDiskIndex::open`], but serve all postings reads
    /// through a deterministic fault-injection shim. The header is parsed
    /// from the pristine file; only the pread path sees `plan`'s faults.
    /// This is the durability-test entry point.
    pub fn open_faulty(path: &Path, plan: FaultPlan) -> Result<OnDiskIndex, IndexError> {
        let mut input = CountingReader::new(BufReader::new(File::open(path)?));
        let header = read_header(&mut input)?;
        let file = PositionalReader::faulty(FaultyFile::from_path(path, plan)?);
        Ok(OnDiskIndex::from_header(header, file))
    }

    fn from_header(header: Header, file: PositionalReader) -> OnDiskIndex {
        OnDiskIndex {
            file,
            params: header.params,
            codec: header.codec,
            record_lens: header.record_lens,
            vocab: header.vocab,
            list_crcs: header.list_crcs,
            blob_start: header.blob_start,
            bytes_read: Counter::new(),
            lists_read: Counter::new(),
        }
    }

    /// Index parameters.
    pub fn params(&self) -> &IndexParams {
        &self.params
    }

    /// List codec.
    pub fn codec(&self) -> ListCodec {
        self.codec
    }

    /// Number of records indexed.
    pub fn num_records(&self) -> u32 {
        self.record_lens.len() as u32
    }

    /// Record length table.
    pub fn record_lens(&self) -> &[u32] {
        &self.record_lens
    }

    /// Number of distinct intervals.
    pub fn distinct_intervals(&self) -> usize {
        self.vocab.len()
    }

    /// Document frequency of `code` (0 if absent) — answered from the
    /// in-memory vocabulary, no I/O.
    pub fn df(&self, code: u64) -> u32 {
        self.entry(code).map_or(0, |(_, e)| e.df)
    }

    fn entry(&self, code: u64) -> Option<(usize, &VocabEntry)> {
        self.vocab
            .binary_search_by_key(&code, |e| e.code)
            .ok()
            .map(|idx| (idx, &self.vocab[idx]))
    }

    /// Fetch the raw list bytes for a vocab entry into a caller-provided
    /// buffer (one positional read, no lock, no allocation once the buffer
    /// has grown to the working-set maximum), then verify them against the
    /// stored checksum.
    fn fetch_bytes_into(
        &self,
        idx: usize,
        entry: &VocabEntry,
        buf: &mut Vec<u8>,
    ) -> Result<(), IndexError> {
        buf.clear();
        self.append_bytes(idx, entry, buf)
    }

    /// [`OnDiskIndex::fetch_bytes_into`] without the clear: the list's
    /// verified bytes land after whatever `buf` already holds.
    fn append_bytes(
        &self,
        idx: usize,
        entry: &VocabEntry,
        buf: &mut Vec<u8>,
    ) -> Result<(), IndexError> {
        let list_at = buf.len();
        buf.resize(list_at + entry.len as usize, 0);
        let list = &mut buf[list_at..];
        let at = self.blob_start + entry.offset;
        self.file.read_exact_at(list, at)?;
        check_list_crc(self.codec, list, entry.df, self.list_crcs[idx], at)?;
        self.bytes_read.add(entry.len as u64);
        self.lists_read.inc();
        Ok(())
    }

    /// Fetch the raw list bytes for a vocab entry (one positional read).
    fn fetch_bytes(&self, idx: usize, entry: &VocabEntry) -> Result<Vec<u8>, IndexError> {
        let mut bytes = Vec::new();
        self.fetch_bytes_into(idx, entry, &mut bytes)?;
        Ok(bytes)
    }

    /// Fetch and decode the list for `code`.
    pub fn postings(&self, code: u64) -> Result<Option<PostingsList>, IndexError> {
        let Some((idx, entry)) = self.entry(code) else {
            return Ok(None);
        };
        let bytes = self.fetch_bytes(idx, entry)?;
        decode_postings(
            &bytes,
            entry.df,
            self.num_records(),
            &self.record_lens,
            self.codec,
        )
        .map_err(|e| e.with_base_offset(self.blob_start + entry.offset))
        .map(Some)
    }

    /// Fetch and decode `(record, count)` pairs for `code`.
    pub fn counts(&self, code: u64) -> Result<Option<Vec<(u32, u32)>>, IndexError> {
        let Some((idx, entry)) = self.entry(code) else {
            return Ok(None);
        };
        let bytes = self.fetch_bytes(idx, entry)?;
        crate::compress::decode_counts(
            &bytes,
            entry.df,
            self.num_records(),
            &self.record_lens,
            self.codec,
        )
        .map_err(|e| e.with_base_offset(self.blob_start + entry.offset))
        .map(Some)
    }

    /// Streaming postings fetch driving a [`PostingsVisitor`], reporting
    /// per-list work counters; on a block (v4) index the visitor's
    /// `skip_block` may refuse blocks before they are verified or
    /// unpacked. `Ok(None)` if the interval is absent.
    pub fn postings_stream(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        let Some((idx, entry)) = self.entry(code) else {
            return Ok(None);
        };
        self.fetch_bytes_into(idx, entry, io_buf)?;
        if self.codec == ListCodec::Block {
            return self.stream_block_list(io_buf, entry, Emit::Offsets, visitor);
        }
        decode_postings_with(
            io_buf,
            entry.df,
            self.num_records(),
            &self.record_lens,
            self.codec,
            |record, offset| visitor.visit(record, offset),
        )?;
        Ok(Some(FetchStats::paper(entry)))
    }

    /// Coarse search's first pass over one list: append `code`'s verified
    /// list bytes to the end of `buf` and walk them as counts, one
    /// [`PostingsVisitor::visit_block`] per decoded block with the
    /// block's offsets located in `buf`. A Paper list, whose bit-serial
    /// offsets cannot be stepped over, streams `(record, offset)` pairs as
    /// [`OnDiskIndex::postings_stream`] does, and its bytes do not stay in
    /// `buf`.
    pub fn append_stream(
        &self,
        code: u64,
        buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        let Some((idx, entry)) = self.entry(code) else {
            return Ok(None);
        };
        let list_at = buf.len();
        self.append_bytes(idx, entry, buf)?;
        if self.codec == ListCodec::Block {
            let emit = Emit::Counts { list_at };
            return self.stream_block_list(&buf[list_at..], entry, emit, visitor);
        }
        decode_postings_with(
            &buf[list_at..],
            entry.df,
            self.num_records(),
            &self.record_lens,
            self.codec,
            |record, offset| visitor.visit(record, offset),
        )?;
        buf.truncate(list_at);
        Ok(Some(FetchStats::paper(entry)))
    }

    /// Decode one fetched block list, lifting corruption offsets to the
    /// file.
    fn stream_block_list(
        &self,
        list: &[u8],
        entry: &VocabEntry,
        emit: Emit,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        let block = decode_block_stream(
            list,
            entry.df,
            self.num_records(),
            &self.record_lens,
            emit,
            visitor,
        )
        .map_err(|e| e.with_base_offset(self.blob_start + entry.offset))?;
        Ok(Some(FetchStats::block(entry, block)))
    }

    /// Postings bytes fetched since the last reset.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Lists fetched since the last reset.
    pub fn lists_read(&self) -> u64 {
        self.lists_read.get()
    }

    /// Reset the I/O counters (between experiment runs).
    pub fn reset_io_counters(&self) {
        self.bytes_read.reset();
        self.lists_read.reset();
    }

    /// Re-home the I/O counters in `registry` so they appear in metric
    /// snapshots. Counts accumulated so far carry over; the legacy
    /// accessors above keep working against the registered counters.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        let bytes_read = registry.counter(
            "nucdb_index_bytes_read_total",
            "Postings bytes fetched from the on-disk index",
        );
        let lists_read = registry.counter(
            "nucdb_index_lists_read_total",
            "Inverted lists fetched from the on-disk index",
        );
        bytes_read.add(self.bytes_read.get());
        lists_read.add(self.lists_read.get());
        self.bytes_read = bytes_read;
        self.lists_read = lists_read;
    }

    /// The in-memory vocabulary, sorted by interval code. Exposed for
    /// introspection (`nucdb stat`) and health walks (`nucdb fsck`, the
    /// background scrubber); query paths go through the typed accessors.
    pub fn vocab(&self) -> &[VocabEntry] {
        &self.vocab
    }

    /// On-disk format name, from the magic the file was opened with.
    pub fn format(&self) -> &'static str {
        match self.codec {
            ListCodec::Paper => "NUCIDX03",
            ListCodec::Block => "NUCIDX04",
        }
    }

    /// Byte offset where the postings blob begins — equivalently, the
    /// size of the header region a [`OnDiskIndex::scrub_header`] pass
    /// re-reads.
    pub fn blob_start(&self) -> u64 {
        self.blob_start
    }

    /// Re-read the header region (`[0, blob_start)`) from disk and
    /// re-verify it: magic, stored header CRC, and full field
    /// structure. Returns the bytes verified. Unlike
    /// [`OnDiskIndex::open`] — which parses the header once — this reads
    /// through the live file handle, so it observes damage that arrived
    /// after open (and injected faults under
    /// [`OnDiskIndex::open_faulty`]). Does not touch the query I/O
    /// counters.
    pub fn scrub_header(&self) -> Result<u64, IndexError> {
        let mut buf = vec![0u8; self.blob_start as usize];
        self.file.read_exact_at(&mut buf, 0)?;
        let mut input = CountingReader::new(&buf[..]);
        read_header(&mut input)?;
        Ok(self.blob_start)
    }

    /// Fetch and fully verify the list at vocabulary position `idx`
    /// (panics if out of range — callers iterate `0..vocab().len()`).
    /// Checks the stored list CRC (v3), or the skip-table CRC plus every
    /// block payload CRC (v4). Returns the list bytes verified.
    /// Does not touch the query I/O counters, so a background scrub
    /// never distorts `nucdb_index_bytes_read_total`.
    pub fn verify_list_at(&self, idx: usize) -> Result<u64, IndexError> {
        let entry = &self.vocab[idx];
        let mut buf = vec![0u8; entry.len as usize];
        let at = self.blob_start + entry.offset;
        self.file.read_exact_at(&mut buf, at)?;
        verify_list(self.codec, &buf, entry.df, self.list_crcs[idx], at)?;
        Ok(entry.len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::compress::FnVisitor;
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
        let loaded = load_index(&path).unwrap();
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
        let loaded = load_index(&path).unwrap();
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
        let disk = OnDiskIndex::open(&path).unwrap();

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
        let disk = OnDiskIndex::open(&path).unwrap();

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
        let disk = OnDiskIndex::open(&path).unwrap();

        let mut io_buf = Vec::new();
        for entry in index.vocab().iter().step_by(13) {
            let materialized = disk.postings(entry.code).unwrap().unwrap();
            let mut streamed: Vec<(u32, u32)> = Vec::new();
            let stats = disk
                .postings_stream(
                    entry.code,
                    &mut io_buf,
                    &mut FnVisitor(|r, o| streamed.push((r, o))),
                )
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
            .postings_stream(u64::MAX, &mut io_buf, &mut FnVisitor(|_, _| {}))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_fetches_agree_with_sequential() {
        let index = build_sample(48, IndexParams::new(8));
        let path = temp_path("conc");
        write_index(&index, &path).unwrap();
        let disk = OnDiskIndex::open(&path).unwrap();

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

        let loaded = load_index(&path).unwrap();
        assert_eq!(loaded.params(), index.params());
        assert_eq!(loaded.codec(), ListCodec::Block);
        assert_eq!(loaded.vocab(), index.vocab());
        assert_eq!(loaded.blob(), index.blob());
        assert_eq!(loaded.max_counts(), index.max_counts());
        assert!(loaded.max_counts().is_some());

        let disk = OnDiskIndex::open(&path).unwrap();
        for entry in index.vocab().iter().step_by(11) {
            assert_eq!(
                disk.postings(entry.code).unwrap().unwrap(),
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

        // Whole-file load: rejected, naming the block at its absolute
        // file offset.
        match load_index(&path) {
            Err(IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "block");
                assert_eq!(
                    offset,
                    (blob_start + entry.offset as usize + skip_len) as u64
                );
            }
            other => panic!("expected block corruption, got {other:?}"),
        }

        // pread path: the skip table verifies at fetch, the corrupt
        // payload is caught at decode.
        let disk = OnDiskIndex::open(&path).unwrap();
        match disk.postings(entry.code) {
            Err(IndexError::Corruption { section, .. }) => assert_eq!(section, "block"),
            other => panic!("expected fetch-time block corruption, got {other:?}"),
        }
        // Other lists are unaffected.
        let other = index.vocab().iter().find(|e| e.code != entry.code).unwrap();
        assert_eq!(
            disk.postings(other.code).unwrap(),
            index.postings(other.code).unwrap()
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
        match load_index(&path) {
            Err(IndexError::Corruption { section, .. }) => assert_eq!(section, "list"),
            other => panic!("expected list corruption, got {other:?}"),
        }
        let disk = OnDiskIndex::open(&path).unwrap();
        match disk.postings(entry.code) {
            Err(IndexError::Corruption { section, .. }) => assert_eq!(section, "list"),
            other => panic!("expected fetch-time list corruption, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v4_streams_report_block_counters() {
        let index = build_block_sample(66);
        let path = temp_path("v4strm");
        write_index(&index, &path).unwrap();
        let disk = OnDiskIndex::open(&path).unwrap();
        struct Collect(Vec<(u32, u32)>);
        impl PostingsVisitor for Collect {
            fn visit(&mut self, record: u32, value: u32) {
                self.0.push((record, value));
            }
        }
        let mut io_buf = Vec::new();
        for entry in index.vocab().iter().step_by(9) {
            let mut visitor = Collect(Vec::new());
            let stats = disk
                .postings_stream(entry.code, &mut io_buf, &mut visitor)
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
        assert!(matches!(load_index(&path), Err(IndexError::BadFormat(_))));
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
        match load_index(&path) {
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

        match load_index(&path) {
            Err(IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "list");
                assert!(offset <= last as u64);
            }
            other => panic!("expected list corruption, got {other:?}"),
        }

        // The pread path opens fine (header intact) but must refuse the
        // corrupt list the moment it is fetched.
        let disk = OnDiskIndex::open(&path).unwrap();
        let last_entry = index.vocab().last().unwrap();
        match disk.counts(last_entry.code) {
            Err(IndexError::Corruption { section, .. }) => assert_eq!(section, "list"),
            other => panic!("expected fetch-time corruption, got {other:?}"),
        }
        // Untouched lists still fetch and decode.
        let first_entry = index.vocab().first().unwrap();
        assert_eq!(
            disk.counts(first_entry.code).unwrap(),
            index.counts(first_entry.code).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_rejected() {
        let index = build_sample(46, IndexParams::new(6));
        let path = temp_path("trunc");
        write_index(&index, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_index(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_index_round_trips() {
        let index = IndexBuilder::new(IndexParams::new(8)).finish();
        let path = temp_path("empty");
        write_index(&index, &path).unwrap();
        let loaded = load_index(&path).unwrap();
        assert_eq!(loaded.num_records(), 0);
        assert_eq!(loaded.distinct_intervals(), 0);
        let disk = OnDiskIndex::open(&path).unwrap();
        assert!(disk.postings(0).unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }
}
