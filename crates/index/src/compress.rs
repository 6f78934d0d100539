//! The compressed inverted index: per-interval postings lists stored as
//! gap-coded bit streams.
//!
//! The paper's layout (per list, for an interval occurring in `df` of the
//! collection's `N` records):
//!
//! ```text
//! for each record, ascending:
//!     record gap      Golomb, parameter fitted to (N, df)
//!     offset count-1  Elias gamma
//!     offset gaps     Golomb, parameter fitted to (record length, count)
//! ```
//!
//! The Golomb parameters are *derived*, not stored: both are functions of
//! values the index already holds (`N`, `df`, the record-length table), so
//! encode and decode always agree. Lists are byte-aligned so each can be
//! fetched independently from disk — the property that lets fine search
//! visit records in relevance order.
//!
//! [`ListCodec::Block`] is the one other layout (see [`crate::block`]).
//! The comparison experiment E5 measures the remaining integer codes by
//! applying `nucdb-codec` to these three streams itself; nothing but
//! these two layouts is ever written or opened. Both always carry the
//! offsets: record-level lists (ids and counts only) exist only as the
//! E12 row the bench crate builds.

use nucdb_codec::{BitReader, BitWriter, Gamma, Golomb, IntCodec};
use nucdb_obs::{Counter, MetricsRegistry};

use crate::block::{decode_block_stream, BlockDecodeStats, Emit, OffsetSection};
use crate::durable::KeptFile;
use crate::error::IndexError;
use crate::interval::IndexParams;
use crate::postings::{Posting, PostingsList};
use crate::stats::IndexStats;

/// Which layout a postings list uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ListCodec {
    /// The paper's scheme: fitted Golomb gaps, gamma counts.
    #[default]
    Paper,
    /// Fixed 128-posting blocks, each bitpacked at its own width and
    /// fronted by a skip entry (max record id, byte extent, CRC-32): the
    /// fast-decode tier, serialized on disk as `NUCIDX04`. See
    /// [`crate::block`].
    Block,
}

impl ListCodec {
    /// Stable on-disk tag. Tags 1–5 belonged to the retired ablation
    /// codecs and are never reissued.
    pub(crate) fn tag(self) -> u8 {
        match self {
            ListCodec::Paper => 0,
            ListCodec::Block => 6,
        }
    }

    /// Inverse of [`ListCodec::tag`]; a retired tag is refused by name.
    pub(crate) fn from_tag(tag: u8) -> Result<ListCodec, IndexError> {
        match tag {
            0 => Ok(ListCodec::Paper),
            6 => Ok(ListCodec::Block),
            1..=5 => Err(IndexError::UnsupportedFormat(format!(
                "list codec tag {tag}"
            ))),
            _ => Err(IndexError::bad_in("unknown list codec tag", "params")),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ListCodec::Paper => "golomb+gamma (paper)",
            ListCodec::Block => "block-128",
        }
    }
}

/// Per-list work counters reported by the streaming fetch paths: how
/// much the caller actually paid to evaluate one list. `bytes_read` is
/// the list's full byte length, even when a visitor skips blocks;
/// `blocks_decoded`/`blocks_skipped` are zero for non-block codecs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// The list's document frequency.
    pub df: u32,
    /// Compressed bytes fetched for the list.
    pub bytes_read: u64,
    /// Record ids actually decoded (skipped blocks excluded).
    pub ids_decoded: u64,
    /// Blocks CRC-verified and unpacked (block codec only).
    pub blocks_decoded: u32,
    /// Blocks refused by the visitor's skip callback (block codec only).
    pub blocks_skipped: u32,
}

impl FetchStats {
    /// Counters for a fully-decoded non-block list of `df` entries.
    pub fn plain(df: u32) -> FetchStats {
        FetchStats {
            df,
            bytes_read: 0,
            ids_decoded: df as u64,
            blocks_decoded: 0,
            blocks_skipped: 0,
        }
    }

    /// Counters for a fetched Paper list: read whole, decoded whole.
    pub(crate) fn paper(entry: &VocabEntry) -> FetchStats {
        FetchStats {
            bytes_read: entry.len as u64,
            ..FetchStats::plain(entry.df)
        }
    }

    /// Counters for a fetched block list: read whole, decoded as far as
    /// `block` says.
    pub(crate) fn block(entry: &VocabEntry, block: BlockDecodeStats) -> FetchStats {
        FetchStats {
            df: entry.df,
            bytes_read: entry.len as u64,
            ids_decoded: block.ids_decoded,
            blocks_decoded: block.blocks_decoded,
            blocks_skipped: block.blocks_skipped,
        }
    }
}

/// Visitor driven by the streaming fetch paths. `visit` receives
/// `(record, offset)` pairs on the postings paths and `(record, count)`
/// pairs on the counts paths, always in ascending record order. On the
/// counts paths a block-coded list hands over whole blocks through
/// `visit_block` instead.
///
/// On a block-coded list, `skip_block(lo, hi)` is consulted before each
/// block is checksummed or unpacked: `lo..=hi` bounds every record id
/// the block can contain, and returning `true` skips the block entirely.
/// Non-block codecs never call it — implementations must stay correct
/// when every block is visited.
pub trait PostingsVisitor {
    /// One posting (or one record's count).
    fn visit(&mut self, record: u32, value: u32);

    /// May the decoder drop the block covering records `lo..=hi`?
    fn skip_block(&mut self, lo: u32, hi: u32) -> bool {
        let _ = (lo, hi);
        false
    }

    /// One decoded block of a counts walk: at most [`BLOCK_LEN`] records
    /// ascending, with `counts[i]` the occurrences of `records[i]`.
    /// `offsets` locates the block's packed offsets in the buffer the list
    /// was decoded from (see [`OffsetSection::visit_offsets`]). The
    /// default hands each entry to [`visit`](PostingsVisitor::visit).
    ///
    /// [`BLOCK_LEN`]: crate::block::BLOCK_LEN
    fn visit_block(&mut self, records: &[u32], counts: &[u32], offsets: OffsetSection) {
        let _ = offsets;
        for (&record, &count) in records.iter().zip(counts) {
            self.visit(record, count);
        }
    }
}

/// Adapter presenting a plain closure as a never-skipping
/// [`PostingsVisitor`].
pub(crate) struct FnVisitor<F>(pub(crate) F);

impl<F: FnMut(u32, u32)> PostingsVisitor for FnVisitor<F> {
    fn visit(&mut self, record: u32, value: u32) {
        (self.0)(record, value)
    }
}

/// Encode one postings list into a byte-aligned blob.
///
/// `record_lens` must cover every record id in the list.
/// `ListCodec::Block` ignores `record_lens` (its widths are stored, not
/// fitted).
pub fn encode_postings(
    list: &PostingsList,
    num_records: u32,
    record_lens: &[u32],
    codec: ListCodec,
) -> Vec<u8> {
    debug_assert!(list.is_well_formed());
    if codec == ListCodec::Block {
        return crate::block::encode_block_postings(list);
    }
    let record_gaps = Golomb::fit((num_records as u64).max(1), list.df() as u64);

    let mut w = BitWriter::with_capacity_bits(list.total_occurrences() * 12);
    let mut prev_record: i64 = -1;
    for posting in &list.entries {
        record_gaps.encode((posting.record as i64 - prev_record - 1) as u64, &mut w);
        prev_record = posting.record as i64;

        let count = posting.offsets.len() as u64;
        Gamma.encode(count - 1, &mut w);

        let len = record_lens[posting.record as usize] as u64;
        let offset_gaps = Golomb::fit(len.max(1), count);
        let mut prev_off: i64 = -1;
        for &off in &posting.offsets {
            offset_gaps.encode((off as i64 - prev_off - 1) as u64, &mut w);
            prev_off = off as i64;
        }
    }
    w.into_bytes()
}

/// Streaming decode of a blob produced by [`encode_postings`]:
/// `visit(record, offset)` is called for every posting, in record order,
/// offsets ascending within a record — no `PostingsList` is materialised.
/// `df` is the list's record count (stored in the vocabulary, not in the
/// blob).
///
/// On a decode error some prefix of the entries may already have been
/// visited; callers must treat the visited data as void when `Err` is
/// returned.
pub fn decode_postings_with<F: FnMut(u32, u32)>(
    bytes: &[u8],
    df: u32,
    num_records: u32,
    record_lens: &[u32],
    codec: ListCodec,
    mut visit: F,
) -> Result<(), IndexError> {
    if codec == ListCodec::Block {
        let mut visitor = FnVisitor(&mut visit);
        decode_block_stream(
            bytes,
            df,
            num_records,
            record_lens,
            Emit::Offsets,
            &mut visitor,
        )?;
        return Ok(());
    }
    let record_gaps = Golomb::fit((num_records as u64).max(1), df as u64);

    let mut r = BitReader::new(bytes);
    let mut prev_record: i64 = -1;
    for _ in 0..df {
        let record = (prev_record + 1 + record_gaps.decode(&mut r)? as i64) as u64;
        if record >= num_records as u64 {
            return Err(IndexError::bad_format("decoded record id out of range"));
        }
        let record = record as u32;
        prev_record = record as i64;

        let count = Gamma.decode(&mut r)? + 1;
        let len = record_lens[record as usize] as u64;
        if count > len {
            return Err(IndexError::bad_format("offset count exceeds record length"));
        }
        let offset_gaps = Golomb::fit(len.max(1), count);
        let mut prev_off: i64 = -1;
        for _ in 0..count {
            let off = prev_off + 1 + offset_gaps.decode(&mut r)? as i64;
            if off >= len as i64 {
                return Err(IndexError::bad_format("decoded offset out of range"));
            }
            visit(record, off as u32);
            prev_off = off;
        }
    }
    Ok(())
}

/// Streaming decode of `(record, occurrence count)` pairs from a blob,
/// walking past the offsets without materialising them. Same visitor
/// contract as [`decode_postings_with`].
pub fn decode_counts_with<F: FnMut(u32, u32)>(
    bytes: &[u8],
    df: u32,
    num_records: u32,
    record_lens: &[u32],
    codec: ListCodec,
    mut visit: F,
) -> Result<(), IndexError> {
    if codec == ListCodec::Block {
        let mut visitor = FnVisitor(&mut visit);
        decode_block_stream(
            bytes,
            df,
            num_records,
            record_lens,
            Emit::Counts { list_at: 0 },
            &mut visitor,
        )?;
        return Ok(());
    }
    let record_gaps = Golomb::fit((num_records as u64).max(1), df as u64);

    let mut r = BitReader::new(bytes);
    let mut prev_record: i64 = -1;
    for _ in 0..df {
        let record = (prev_record + 1 + record_gaps.decode(&mut r)? as i64) as u64;
        if record >= num_records as u64 {
            return Err(IndexError::bad_format("decoded record id out of range"));
        }
        let record = record as u32;
        prev_record = record as i64;

        let count = Gamma.decode(&mut r)? + 1;
        let len = record_lens[record as usize] as u64;
        if count > len {
            return Err(IndexError::bad_format("offset count exceeds record length"));
        }
        let offset_gaps = Golomb::fit(len.max(1), count);
        for _ in 0..count {
            offset_gaps.decode(&mut r)?;
        }
        visit(record, count as u32);
    }
    Ok(())
}

/// Decode a blob produced by [`encode_postings`]. `df` is the list's
/// record count (stored in the vocabulary, not in the blob). The hot path
/// streams instead: see [`decode_postings_with`].
pub fn decode_postings(
    bytes: &[u8],
    df: u32,
    num_records: u32,
    record_lens: &[u32],
    codec: ListCodec,
) -> Result<PostingsList, IndexError> {
    let mut entries: Vec<Posting> = Vec::with_capacity(df as usize);
    decode_postings_with(
        bytes,
        df,
        num_records,
        record_lens,
        codec,
        |record, offset| {
            // Counts are >= 1, so every record's first offset arrives before
            // any of its later ones and grouping on the tail entry is exact.
            match entries.last_mut() {
                Some(posting) if posting.record == record => posting.offsets.push(offset),
                _ => entries.push(Posting {
                    record,
                    offsets: vec![offset],
                }),
            }
        },
    )?;
    Ok(PostingsList { entries })
}

/// Decode `(record, occurrence count)` pairs from a blob, its offsets
/// decoded and discarded (offline statistics).
pub fn decode_counts(
    bytes: &[u8],
    df: u32,
    num_records: u32,
    record_lens: &[u32],
    codec: ListCodec,
) -> Result<Vec<(u32, u32)>, IndexError> {
    let mut out = Vec::with_capacity(df as usize);
    decode_counts_with(
        bytes,
        df,
        num_records,
        record_lens,
        codec,
        |record, count| {
            out.push((record, count));
        },
    )?;
    Ok(out)
}

/// Vocabulary entry: where one interval's list lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VocabEntry {
    /// Packed interval code.
    pub code: u64,
    /// Byte offset of the list within the blob.
    pub offset: u64,
    /// Length of the list in bytes.
    pub len: u32,
    /// Document frequency (records containing the interval).
    pub df: u32,
}

/// A compressed inverted index: its vocabulary, the per-list CRCs, and
/// one byte image of the index file — exactly what
/// [`write_index`](crate::disk::write_index) writes, built in memory by
/// [`crate::builder::IndexBuilder`] or read once by
/// [`CompressedIndex::open`].
///
/// Every fetch slices the image, checks the list against its stored
/// CRC-32 at its absolute file offset (a block list over its skip table;
/// each block payload is checked as it decodes), counts the bytes and
/// the list as read, and decodes. A mismatch surfaces as
/// [`IndexError::Corruption`] naming the offset, and no decoded
/// (potentially wrong) postings escape. All methods take `&self`;
/// concurrent fetches proceed without contention and the I/O counters
/// are atomics.
#[derive(Clone)]
pub struct CompressedIndex {
    pub(crate) params: IndexParams,
    pub(crate) codec: ListCodec,
    pub(crate) record_lens: Vec<u32>,
    /// Sorted by code for binary-search lookup.
    pub(crate) vocab: Vec<VocabEntry>,
    /// Per-list CRC-32s, parallel to `vocab`. A block list's covers only
    /// its skip-table prefix (block payloads self-checksum).
    pub(crate) list_crcs: Vec<u32>,
    /// Per-list maximum per-record occurrence count, parallel to `vocab`.
    /// Present only for the block codec, whose `NUCIDX04` header stores
    /// it.
    pub(crate) max_counts: Option<Vec<u32>>,
    /// The file's bytes: magic, header, then the postings blob.
    pub(crate) image: Vec<u8>,
    /// Where the blob begins in `image` (and in the file).
    pub(crate) blob_start: u64,
    /// The file the image was read from, kept for the scrub walk.
    pub(crate) file: KeptFile,
    pub(crate) bytes_read: Counter,
    pub(crate) lists_read: Counter,
}

impl std::fmt::Debug for CompressedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedIndex")
            .field("params", &self.params)
            .field("codec", &self.codec)
            .field("records", &self.num_records())
            .field("intervals", &self.vocab.len())
            .field("image_bytes", &self.image.len())
            .finish_non_exhaustive()
    }
}

impl CompressedIndex {
    /// Assemble from already-grouped lists, which must arrive in strictly
    /// ascending code order.
    pub(crate) fn from_sorted_lists(
        params: IndexParams,
        codec: ListCodec,
        record_lens: Vec<u32>,
        lists: impl Iterator<Item = (u64, PostingsList)>,
    ) -> CompressedIndex {
        let num_records = record_lens.len() as u32;
        let mut vocab = Vec::new();
        let mut blob = Vec::new();
        let mut max_counts = (codec == ListCodec::Block).then(Vec::new);
        let mut prev_code: Option<u64> = None;
        for (code, list) in lists {
            assert!(
                prev_code.is_none_or(|p| p < code),
                "lists must arrive in ascending code order"
            );
            prev_code = Some(code);
            if list.df() == 0 {
                continue;
            }
            let bytes = encode_postings(&list, num_records, &record_lens, codec);
            vocab.push(VocabEntry {
                code,
                offset: blob.len() as u64,
                len: bytes.len() as u32,
                df: list.df() as u32,
            });
            if let Some(max_counts) = &mut max_counts {
                max_counts.push(
                    list.entries
                        .iter()
                        .map(|p| p.offsets.len() as u32)
                        .max()
                        .unwrap_or(0),
                );
            }
            blob.extend_from_slice(&bytes);
        }
        CompressedIndex::from_parts(params, codec, record_lens, vocab, max_counts, blob)
    }

    /// Index parameters.
    pub fn params(&self) -> &IndexParams {
        &self.params
    }

    /// The list codec in use.
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

    /// Number of distinct intervals present.
    pub fn distinct_intervals(&self) -> usize {
        self.vocab.len()
    }

    /// Vocabulary entries in ascending code order.
    pub fn vocab(&self) -> &[VocabEntry] {
        &self.vocab
    }

    /// The concatenated compressed lists.
    pub fn blob(&self) -> &[u8] {
        &self.image[self.blob_start as usize..]
    }

    /// Document frequency of an interval, 0 if absent — answered from
    /// the vocabulary, no fetch.
    pub fn df(&self, code: u64) -> u32 {
        self.entry(code).map_or(0, |e| e.df)
    }

    /// The vocabulary entry for `code`, if present.
    pub fn entry(&self, code: u64) -> Option<&VocabEntry> {
        self.find(code).map(|idx| &self.vocab[idx])
    }

    fn find(&self, code: u64) -> Option<usize> {
        self.vocab.binary_search_by_key(&code, |e| e.code).ok()
    }

    /// Per-list maximum per-record occurrence counts, parallel to the
    /// vocabulary — present only on block-codec indexes.
    pub fn max_counts(&self) -> Option<&[u32]> {
        self.max_counts.as_deref()
    }

    /// The stored bytes of one vocabulary entry's list, unchecked.
    fn list_bytes(&self, entry: &VocabEntry) -> &[u8] {
        &self.blob()[entry.offset as usize..][..entry.len as usize]
    }

    /// Fetch the list at vocabulary position `idx`: its bytes, checked
    /// against the stored CRC at their absolute file offset and counted
    /// as read.
    fn fetch(&self, idx: usize) -> Result<(&VocabEntry, &[u8]), IndexError> {
        let entry = &self.vocab[idx];
        let list = self.list_bytes(entry);
        let at = self.blob_start + entry.offset;
        crate::disk::check_list_crc(self.codec, list, entry.df, self.list_crcs[idx], at)?;
        self.bytes_read.add(entry.len as u64);
        self.lists_read.inc();
        Ok((entry, list))
    }

    /// Decode one fetched list through `visitor`, lifting corruption
    /// offsets to the file.
    fn stream(
        &self,
        entry: &VocabEntry,
        list: &[u8],
        emit: Emit,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<FetchStats, IndexError> {
        let at = self.blob_start + entry.offset;
        if self.codec == ListCodec::Block {
            let (n, lens) = (self.num_records(), &self.record_lens);
            let block = decode_block_stream(list, entry.df, n, lens, emit, visitor)
                .map_err(|e| e.with_base_offset(at))?;
            return Ok(FetchStats::block(entry, block));
        }
        decode_postings_with(
            list,
            entry.df,
            self.num_records(),
            &self.record_lens,
            self.codec,
            |record, offset| visitor.visit(record, offset),
        )
        .map_err(|e| e.with_base_offset(at))?;
        Ok(FetchStats::paper(entry))
    }

    /// Streaming postings fetch driving a [`PostingsVisitor`] and
    /// reporting work counters; on a block-codec index the visitor's
    /// `skip_block` may refuse blocks. `Ok(None)` if the interval is
    /// absent.
    pub fn postings_stream(
        &self,
        code: u64,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        let Some(idx) = self.find(code) else {
            return Ok(None);
        };
        let (entry, list) = self.fetch(idx)?;
        self.stream(entry, list, Emit::Offsets, visitor).map(Some)
    }

    /// Coarse search's first pass over one list: append `code`'s list to
    /// the end of `buf` and walk it as counts, one
    /// [`PostingsVisitor::visit_block`] per decoded block with the
    /// block's offsets located in `buf`. A Paper list, whose bit-serial
    /// offsets cannot be stepped over, streams `(record, offset)` pairs as
    /// [`CompressedIndex::postings_stream`] does and leaves `buf` alone.
    pub fn append_stream(
        &self,
        code: u64,
        buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        if self.codec != ListCodec::Block {
            return self.postings_stream(code, visitor);
        }
        let Some(idx) = self.find(code) else {
            return Ok(None);
        };
        let (entry, list) = self.fetch(idx)?;
        let list_at = buf.len();
        buf.extend_from_slice(list);
        let emit = Emit::Counts { list_at };
        self.stream(entry, &buf[list_at..], emit, visitor).map(Some)
    }

    /// Fetch and decode the postings list for `code`; `Ok(None)` if the
    /// interval is absent (never indexed, or stopped).
    pub fn postings(&self, code: u64) -> Result<Option<PostingsList>, IndexError> {
        let Some(idx) = self.find(code) else {
            return Ok(None);
        };
        let (entry, list) = self.fetch(idx)?;
        decode_postings(
            list,
            entry.df,
            self.num_records(),
            &self.record_lens,
            self.codec,
        )
        .map_err(|e| e.with_base_offset(self.blob_start + entry.offset))
        .map(Some)
    }

    /// Fetch and decode `(record, occurrence count)` pairs for `code`;
    /// `Ok(None)` if the interval is absent.
    pub fn counts(&self, code: u64) -> Result<Option<Vec<(u32, u32)>>, IndexError> {
        let Some(idx) = self.find(code) else {
            return Ok(None);
        };
        let (entry, list) = self.fetch(idx)?;
        decode_counts(
            list,
            entry.df,
            self.num_records(),
            &self.record_lens,
            self.codec,
        )
        .map_err(|e| e.with_base_offset(self.blob_start + entry.offset))
        .map(Some)
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
    /// snapshots. Counts accumulated so far carry over; the accessors
    /// above keep working against the registered counters.
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

    /// Size accounting for the experiments.
    pub fn stats(&self) -> IndexStats {
        let mut postings_entries = 0u64;
        let mut total_offsets = 0u64;
        // df is per-list; total occurrences require decoding, which stats
        // callers accept (it is an offline measurement, not a fetch).
        for entry in &self.vocab {
            postings_entries += entry.df as u64;
            let list = self.list_bytes(entry);
            let (n, lens) = (self.num_records(), &self.record_lens);
            if let Ok(counts) = decode_counts(list, entry.df, n, lens, self.codec) {
                total_offsets += counts.iter().map(|&(_, c)| c as u64).sum::<u64>();
            }
        }
        IndexStats {
            records: self.num_records() as u64,
            total_bases: self.record_lens.iter().map(|&l| l as u64).sum(),
            distinct_intervals: self.vocab.len() as u64,
            postings_entries,
            total_offsets,
            blob_bytes: self.blob().len() as u64,
            vocab_bytes: self.serialized_vocab_bytes(),
        }
    }

    /// Bytes the vocabulary occupies in the on-disk format (delta-coded
    /// codes, varint lengths and dfs) — the size that counts against the
    /// paper's index-overhead budget.
    fn serialized_vocab_bytes(&self) -> u64 {
        let varint_len = |v: u64| -> u64 { (64 - v.max(1).leading_zeros() as u64).div_ceil(7) };
        let mut total = 0u64;
        let mut prev_code = 0u64;
        for entry in &self.vocab {
            total += varint_len(entry.code - prev_code + 1)
                + varint_len(entry.len as u64)
                + varint_len(entry.df as u64);
            prev_code = entry.code;
        }
        if let Some(max_counts) = &self.max_counts {
            total += max_counts
                .iter()
                .map(|&m| varint_len(m as u64))
                .sum::<u64>();
        }
        total
    }

    /// Decode every list (for merging and tests).
    pub fn decode_all(&self) -> Result<Vec<(u64, PostingsList)>, IndexError> {
        self.vocab
            .iter()
            .map(|e| Ok((e.code, self.postings(e.code)?.expect("entry exists"))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_list() -> PostingsList {
        PostingsList {
            entries: vec![
                Posting {
                    record: 0,
                    offsets: vec![0, 1, 7],
                },
                Posting {
                    record: 3,
                    offsets: vec![99],
                },
                Posting {
                    record: 4,
                    offsets: vec![5, 50, 500],
                },
                Posting {
                    record: 90,
                    offsets: vec![1023],
                },
            ],
        }
    }

    fn lens() -> Vec<u32> {
        let mut lens = vec![64u32; 100];
        lens[0] = 10;
        lens[3] = 100;
        lens[4] = 600;
        lens[90] = 1024;
        lens
    }

    const ALL_CODECS: [ListCodec; 2] = [ListCodec::Paper, ListCodec::Block];

    #[test]
    fn encode_decode_round_trip_all_codecs() {
        let list = sample_list();
        let lens = lens();
        for codec in ALL_CODECS {
            let bytes = encode_postings(&list, 100, &lens, codec);
            let back = decode_postings(&bytes, list.df() as u32, 100, &lens, codec).unwrap();
            assert_eq!(back, list, "{}", codec.name());
            // Counts decode agrees for every codec too.
            let counts = decode_counts(&bytes, list.df() as u32, 100, &lens, codec).unwrap();
            let expect: Vec<(u32, u32)> = list
                .entries
                .iter()
                .map(|p| (p.record, p.offsets.len() as u32))
                .collect();
            assert_eq!(counts, expect, "{}", codec.name());
        }
    }

    #[test]
    fn paper_codec_is_smallest_on_typical_lists() {
        // A dense-ish list with small gaps: the fitted Golomb layout must
        // beat the block layout, which pays for skip entries and whole
        // per-block widths.
        let list = PostingsList {
            entries: (0..200)
                .map(|i| Posting {
                    record: i * 3,
                    offsets: vec![(i * 7) % 900],
                })
                .collect(),
        };
        let lens = vec![1000u32; 600];
        let paper = encode_postings(&list, 600, &lens, ListCodec::Paper).len();
        let block = encode_postings(&list, 600, &lens, ListCodec::Block).len();
        assert!(paper < block, "paper {paper} >= block {block}");
    }

    #[test]
    fn adjacent_offsets_zero_gaps() {
        // Overlapping intervals produce adjacent offsets (gap-1 = 0).
        let list = PostingsList {
            entries: vec![Posting {
                record: 0,
                offsets: vec![4, 5, 6, 7, 8],
            }],
        };
        let lens = vec![32u32];
        for codec in ALL_CODECS {
            let bytes = encode_postings(&list, 1, &lens, codec);
            let back = decode_postings(&bytes, 1, 1, &lens, codec).unwrap();
            assert_eq!(back, list);
        }
    }

    #[test]
    fn decode_rejects_corrupt_record_id() {
        let list = sample_list();
        let lens = lens();
        let bytes = encode_postings(&list, 100, &lens, ListCodec::Paper);
        // Lie about df: decoder walks past the real entries into padding
        // and must fail, not panic.
        let result = decode_postings(&bytes, 60, 100, &lens, ListCodec::Paper);
        assert!(result.is_err());
    }

    #[test]
    fn index_lookup_and_postings() {
        let lens = vec![40u32; 10];
        let lists = vec![
            (
                7u64,
                PostingsList {
                    entries: vec![Posting {
                        record: 1,
                        offsets: vec![3],
                    }],
                },
            ),
            (
                9u64,
                PostingsList {
                    entries: vec![
                        Posting {
                            record: 0,
                            offsets: vec![0, 8],
                        },
                        Posting {
                            record: 9,
                            offsets: vec![31],
                        },
                    ],
                },
            ),
        ];
        let index = CompressedIndex::from_sorted_lists(
            IndexParams::new(4),
            ListCodec::Paper,
            lens,
            lists.clone().into_iter(),
        );
        assert_eq!(index.distinct_intervals(), 2);
        assert_eq!(index.df(7), 1);
        assert_eq!(index.df(9), 2);
        assert_eq!(index.df(8), 0);
        assert_eq!(index.postings(9).unwrap().unwrap(), lists[1].1);
        assert!(index.postings(12345).unwrap().is_none());
        let all = index.decode_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 7);
    }

    #[test]
    #[should_panic(expected = "ascending code order")]
    fn unsorted_lists_rejected() {
        let l = PostingsList {
            entries: vec![Posting {
                record: 0,
                offsets: vec![0],
            }],
        };
        let _ = CompressedIndex::from_sorted_lists(
            IndexParams::new(4),
            ListCodec::Paper,
            vec![8u32],
            vec![(9u64, l.clone()), (7u64, l)].into_iter(),
        );
    }

    #[test]
    fn block_index_exposes_max_counts_and_streams() {
        let lens = lens();
        let lists = vec![(3u64, sample_list())];
        let index = CompressedIndex::from_sorted_lists(
            IndexParams::new(4),
            ListCodec::Block,
            lens.clone(),
            lists.into_iter(),
        );
        // Largest per-record offset count in the sample list is 3.
        assert_eq!(index.max_counts(), Some(&[3u32][..]));

        let mut streamed = Vec::new();
        let mut visitor = FnVisitor(|r, o| streamed.push((r, o)));
        let stats = index.postings_stream(3, &mut visitor).unwrap().unwrap();
        assert_eq!(stats.df, 4);
        assert_eq!(stats.ids_decoded, 4);
        assert_eq!(stats.blocks_decoded, 1);
        assert_eq!(stats.blocks_skipped, 0);
        assert_eq!(stats.bytes_read, index.blob().len() as u64);
        let expect: Vec<(u32, u32)> = sample_list()
            .entries
            .iter()
            .flat_map(|p| p.offsets.iter().map(|&o| (p.record, o)))
            .collect();
        assert_eq!(streamed, expect);

        // A paper-codec build has no max counts but still streams.
        let paper = CompressedIndex::from_sorted_lists(
            IndexParams::new(4),
            ListCodec::Paper,
            lens,
            vec![(3u64, sample_list())].into_iter(),
        );
        assert_eq!(paper.max_counts(), None);
        let mut streamed = Vec::new();
        let mut visitor = FnVisitor(|r, o| streamed.push((r, o)));
        let stats = paper.postings_stream(3, &mut visitor).unwrap().unwrap();
        assert_eq!(stats.ids_decoded, 4);
        assert_eq!(stats.blocks_decoded, 0);
        assert_eq!(streamed, expect);
    }

    #[test]
    fn stats_account_sizes() {
        let lens = vec![100u32; 50];
        let lists = vec![(
            1u64,
            PostingsList {
                entries: (0..50u32)
                    .map(|r| Posting {
                        record: r,
                        offsets: vec![r, r + 20],
                    })
                    .collect(),
            },
        )];
        let index = CompressedIndex::from_sorted_lists(
            IndexParams::new(4),
            ListCodec::Paper,
            lens,
            lists.into_iter(),
        );
        let stats = index.stats();
        assert_eq!(stats.records, 50);
        assert_eq!(stats.total_bases, 5000);
        assert_eq!(stats.distinct_intervals, 1);
        assert_eq!(stats.postings_entries, 50);
        assert_eq!(stats.total_offsets, 100);
        assert_eq!(stats.blob_bytes, index.blob().len() as u64);
        assert!(stats.blob_bytes > 0);
    }
}
