//! Block-structured bitpacked postings: the fast-decode list tier.
//!
//! The bit-serial codecs in [`crate::compress`] are the space-optimal
//! choice from the paper, but they decode one bit at a time. This module
//! trades a little space for a decode loop the compiler can unroll and
//! vectorise, plus *skip entries* that give each block its own record
//! range and checksum. On disk this tier is the `NUCIDX04` format (see
//! [`crate::disk`]).
//!
//! Per-list layout:
//!
//! ```text
//! list       := skip_table block*
//! skip_table := (max_record:u32le end:u32le crc:u32le) * num_blocks
//! block      := id_width:u8 count_width:u8 off_width:u8
//!               packed id gaps   packed (count-1)s   packed offset gaps
//! ```
//!
//! `num_blocks = ceil(df / 128)`; `end` is the byte offset one past the
//! block's payload relative to the first payload byte; `crc` is the IEEE
//! CRC-32 of the payload bytes.
//!
//! Values are packed LSB-first in the classic horizontal layout: 32
//! values per group of `width` little-endian 32-bit words, arrays padded
//! with zeros to whole groups. Record gaps are `record − prev − 1`
//! chained across the whole list, but a block's seed `prev` is the
//! *previous skip entry's* `max_record`, so any block decodes without
//! touching the ones before it. Offsets are gap-coded per record exactly
//! like the bit-serial codecs.
//!
//! Decoding verifies each block's CRC just before unpacking it, so a
//! point corruption costs one block, not the list. A visitor may still
//! refuse a block through `skip_block`; such a block is never
//! checksummed. Coarse search refuses none. The unpack kernel is one
//! monomorphised straight-line loop per width — shifts and masks over
//! word loads, no per-bit work, no data-dependent branches.
//!
//! A counts decode hands each block to the visitor whole, with the
//! position of its offset section in the caller's buffer
//! ([`OffsetSection`]), from which the offsets of chosen postings can
//! later be unpacked, one 32-value group at a time.

use crate::compress::PostingsVisitor;
use crate::durable::crc32;
use crate::error::IndexError;
use crate::postings::PostingsList;

/// Postings per block.
pub const BLOCK_LEN: usize = 128;
/// Bytes per skip entry: max record id, end offset, CRC-32.
pub const SKIP_ENTRY_BYTES: usize = 12;
/// Values per packed group (one group occupies `width` u32 words).
const LANES: usize = 32;

/// Byte length of the skip table fronting a block-coded list of `df`
/// postings.
pub fn skip_table_len(df: u32) -> usize {
    (df as usize).div_ceil(BLOCK_LEN) * SKIP_ENTRY_BYTES
}

/// What a block-list decode hands its visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Emit {
    /// `visit(record, offset)` per occurrence.
    Offsets,
    /// One [`PostingsVisitor::visit_block`] per decoded block. The list
    /// starts at byte `list_at` of the caller's buffer, and offset
    /// sections are located in that buffer.
    Counts {
        /// Position of the list's first byte in the caller's buffer.
        list_at: usize,
    },
}

/// Where one decoded block's packed offsets sit in the buffer its list
/// was decoded from. The section holds the block's offsets as
/// per-record gaps in posting order, 32 values to a group of `width`
/// little-endian words, so one posting's offsets unpack from the group
/// or two they fall in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetSection {
    /// Byte position of the section's first group in the buffer.
    start: usize,
    /// Bit width of every packed gap.
    width: u8,
}

impl OffsetSection {
    /// Walk the postings of this section's block, `(record, count)` in
    /// block order, and call `visit(record, offset)` for every offset of
    /// the postings `wanted` accepts, ascending per posting. Only the
    /// 32-value groups those offsets sit in are unpacked. `buf` must be
    /// the buffer the section was located in, unchanged since. An offset
    /// at or past its record's length is a format error, as on every
    /// other decode path.
    pub fn visit_offsets(
        self,
        buf: &[u8],
        postings: &[(u32, u32)],
        record_lens: &[u32],
        mut wanted: impl FnMut(u32) -> bool,
        mut visit: impl FnMut(u32, u32),
    ) -> Result<(), IndexError> {
        let group_bytes = self.width as usize * 4;
        let mut lanes = [0u32; LANES];
        let mut unpacked = usize::MAX;
        let mut first = 0usize;
        for &(record, count) in postings {
            let end = first + count as usize;
            if wanted(record) {
                let len = record_lens
                    .get(record as usize)
                    .map_or(i64::from(u32::MAX), |&len| i64::from(len.max(1)));
                let mut prev_off: i64 = -1;
                for i in first..end {
                    let group = i / LANES;
                    if group != unpacked {
                        let at = self.start + group * group_bytes;
                        unpack_group_dyn(self.width, &buf[at..], &mut lanes);
                        unpacked = group;
                    }
                    let off = prev_off + 1 + lanes[i % LANES] as i64;
                    if off >= len {
                        return Err(IndexError::bad_format("decoded offset out of range"));
                    }
                    visit(record, off as u32);
                    prev_off = off;
                }
            }
            first = end;
        }
        Ok(())
    }
}

/// Work counters from one streamed block-list decode.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockDecodeStats {
    /// Record ids actually unpacked (skipped blocks excluded).
    pub ids_decoded: u64,
    /// Blocks CRC-verified and unpacked.
    pub blocks_decoded: u32,
    /// Blocks refused by the visitor's `skip_block`.
    pub blocks_skipped: u32,
}

/// Smallest bit width that can hold `max`.
fn width_for(max: u32) -> u8 {
    (32 - max.leading_zeros()) as u8
}

/// Packed bytes for `n` values at `width` bits, padded to whole groups.
fn packed_len(width: u8, n: u64) -> u64 {
    n.div_ceil(LANES as u64) * width as u64 * 4
}

/// Pack 32 `width`-bit values into `width` little-endian u32 words.
fn pack_group(width: u8, values: &[u32; LANES], out: &mut Vec<u8>) {
    let width = width as u64;
    let mut acc = 0u64;
    let mut bits = 0u64;
    for &v in values {
        acc |= (v as u64) << bits;
        bits += width;
        while bits >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            bits -= 32;
        }
    }
    debug_assert_eq!(bits, 0, "32 values at any width fill whole words");
}

/// Pack a value array (any length) as zero-padded 32-value groups.
fn pack_values(width: u8, values: &[u32], out: &mut Vec<u8>) {
    let mut group = [0u32; LANES];
    for chunk in values.chunks(LANES) {
        group[..chunk.len()].copy_from_slice(chunk);
        group[chunk.len()..].fill(0);
        pack_group(width, &group, out);
    }
}

/// Unpack one 32-value group packed at constant width `W` from `4*W`
/// bytes. With `W` a compile-time constant the loop fully unrolls into
/// straight-line shifts and masks over unaligned word loads — every
/// `if` below is decided per-lane at compile time, so the generated code
/// is branchless and autovectorisable.
fn unpack_group<const W: u32>(bytes: &[u8], out: &mut [u32; LANES]) {
    if W == 0 {
        out.fill(0);
        return;
    }
    let mask: u32 = if W == 32 { u32::MAX } else { (1u32 << W) - 1 };
    let bytes = &bytes[..4 * W as usize];
    let word = |i: usize| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap());
    for (i, lane) in out.iter_mut().enumerate() {
        let bit = i * W as usize;
        let w = bit >> 5;
        let s = (bit & 31) as u32;
        let mut v = word(w) >> s;
        if s + W > 32 {
            v |= word(w + 1) << (32 - s);
        }
        *lane = v & mask;
    }
}

/// Width dispatch for [`unpack_group`]: one monomorphised unpacker per
/// width, selected by a single match.
fn unpack_group_dyn(width: u8, bytes: &[u8], out: &mut [u32; LANES]) {
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width as u32 {
                $($w => unpack_group::<$w>(bytes, out),)*
                _ => unreachable!("width validated <= 32"),
            }
        };
    }
    dispatch!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23
              24 25 26 27 28 29 30 31 32)
}

/// Unpack `n <= BLOCK_LEN` values from zero-padded groups into
/// `out[..n]` (the pad lanes beyond `n` are also written, with zeros).
fn unpack_values(width: u8, bytes: &[u8], n: usize, out: &mut [u32; BLOCK_LEN]) {
    let group_bytes = width as usize * 4;
    for g in 0..n.div_ceil(LANES) {
        let lanes: &mut [u32; LANES] = (&mut out[g * LANES..(g + 1) * LANES])
            .try_into()
            .expect("LANES-sized chunk");
        unpack_group_dyn(width, &bytes[g * group_bytes..], lanes);
    }
}

/// Sequential value reader over a packed section, unpacking one group at
/// a time into a lane buffer. Offset sections can hold far more than
/// [`BLOCK_LEN`] values (one per occurrence), so they stream through
/// this instead of a fixed block array.
struct GroupReader<'a> {
    bytes: &'a [u8],
    width: u8,
    lanes: [u32; LANES],
    pos: usize,
    group: usize,
}

impl<'a> GroupReader<'a> {
    fn new(width: u8, bytes: &'a [u8]) -> GroupReader<'a> {
        GroupReader {
            bytes,
            width,
            lanes: [0; LANES],
            pos: LANES,
            group: 0,
        }
    }

    /// Next value. The caller must not read past the section's padded
    /// capacity (enforced by the block's exact-length check).
    #[inline]
    fn next(&mut self) -> u32 {
        if self.pos == LANES {
            let start = self.group * self.width as usize * 4;
            unpack_group_dyn(self.width, &self.bytes[start..], &mut self.lanes);
            self.group += 1;
            self.pos = 0;
        }
        let v = self.lanes[self.pos];
        self.pos += 1;
        v
    }
}

/// Encode one list in the block layout. Unlike the Golomb tiers the block
/// codec needs no record-length table: widths are stored per block, never
/// derived.
pub(crate) fn encode_block_postings(list: &PostingsList) -> Vec<u8> {
    let df = list.entries.len();
    let num_blocks = df.div_ceil(BLOCK_LEN);
    let mut out = vec![0u8; num_blocks * SKIP_ENTRY_BYTES];
    let payload_start = out.len();

    let mut ids: Vec<u32> = Vec::with_capacity(BLOCK_LEN);
    let mut counts: Vec<u32> = Vec::with_capacity(BLOCK_LEN);
    let mut offs: Vec<u32> = Vec::new();
    let mut prev_record: i64 = -1;
    for (b, block) in list.entries.chunks(BLOCK_LEN).enumerate() {
        ids.clear();
        counts.clear();
        offs.clear();
        for posting in block {
            ids.push((posting.record as i64 - prev_record - 1) as u32);
            prev_record = posting.record as i64;
            counts.push(posting.offsets.len() as u32 - 1);
            let mut prev_off: i64 = -1;
            for &off in &posting.offsets {
                offs.push((off as i64 - prev_off - 1) as u32);
                prev_off = off as i64;
            }
        }
        let id_w = width_for(ids.iter().copied().max().unwrap_or(0));
        let count_w = width_for(counts.iter().copied().max().unwrap_or(0));
        let off_w = width_for(offs.iter().copied().max().unwrap_or(0));
        let block_start = out.len();
        out.extend_from_slice(&[id_w, count_w, off_w]);
        pack_values(id_w, &ids, &mut out);
        pack_values(count_w, &counts, &mut out);
        pack_values(off_w, &offs, &mut out);
        let end = (out.len() - payload_start) as u32;
        let crc = crc32(&out[block_start..]);
        let entry = &mut out[b * SKIP_ENTRY_BYTES..(b + 1) * SKIP_ENTRY_BYTES];
        entry[0..4].copy_from_slice(&(prev_record as u32).to_le_bytes());
        entry[4..8].copy_from_slice(&end.to_le_bytes());
        entry[8..12].copy_from_slice(&crc.to_le_bytes());
    }
    out
}

fn read_skip_entry(bytes: &[u8], b: usize) -> (u32, usize, u32) {
    let entry = &bytes[b * SKIP_ENTRY_BYTES..(b + 1) * SKIP_ENTRY_BYTES];
    (
        u32::from_le_bytes(entry[0..4].try_into().unwrap()),
        u32::from_le_bytes(entry[4..8].try_into().unwrap()) as usize,
        u32::from_le_bytes(entry[8..12].try_into().unwrap()),
    )
}

/// Stream one block-coded list through `visitor`.
///
/// With [`Emit::Offsets`] the visitor sees `(record, offset)` per
/// occurrence. With [`Emit::Counts`] it sees each block's ids and counts
/// in one `visit_block` call — and the offset sections are *not unpacked
/// at all*: the length-delimited layout just steps over them and reports
/// where each one sits. The visitor's `skip_block(lo, hi)` is consulted
/// per block before CRC verification and unpacking; `lo..=hi` bounds
/// every record id the block can hold.
///
/// Corruption offsets in errors are relative to the list's first byte;
/// callers that know the list's file position rebase them (see
/// [`IndexError::with_base_offset`]). The record-length table may be
/// shorter than the id space (synthetic full-universe tests); counts and
/// offsets are validated whenever a length is known.
pub(crate) fn decode_block_stream(
    bytes: &[u8],
    df: u32,
    num_records: u32,
    record_lens: &[u32],
    emit: Emit,
    visitor: &mut dyn PostingsVisitor,
) -> Result<BlockDecodeStats, IndexError> {
    let mut stats = BlockDecodeStats::default();
    let num_blocks = (df as usize).div_ceil(BLOCK_LEN);
    let skip_len = num_blocks * SKIP_ENTRY_BYTES;
    if bytes.len() < skip_len {
        return Err(IndexError::bad_format(
            "block list shorter than its skip table",
        ));
    }
    if num_blocks == 0 {
        if !bytes.is_empty() {
            return Err(IndexError::bad_format("trailing bytes in empty block list"));
        }
        return Ok(stats);
    }
    let payload = &bytes[skip_len..];
    const WIDTH_BYTES: usize = 3;

    let mut idbuf = [0u32; BLOCK_LEN];
    let mut countbuf = [0u32; BLOCK_LEN];

    let mut prev_record: i64 = -1;
    let mut block_start = 0usize;
    let mut remaining = df as usize;
    for b in 0..num_blocks {
        let (max_record, end, expected_crc) = read_skip_entry(bytes, b);
        if end <= block_start || end > payload.len() {
            return Err(IndexError::bad_format("block extent out of order"));
        }
        if b + 1 == num_blocks && end != payload.len() {
            return Err(IndexError::bad_format("trailing bytes after last block"));
        }
        if max_record as u64 >= num_records as u64 || max_record as i64 <= prev_record {
            return Err(IndexError::bad_format("block max record out of range"));
        }
        let n = remaining.min(BLOCK_LEN);
        remaining -= n;
        if visitor.skip_block((prev_record + 1) as u32, max_record) {
            stats.blocks_skipped += 1;
            prev_record = max_record as i64;
            block_start = end;
            continue;
        }

        let blk = &payload[block_start..end];
        let actual_crc = crc32(blk);
        if actual_crc != expected_crc {
            return Err(IndexError::checksum(
                "block",
                (skip_len + block_start) as u64,
                expected_crc,
                actual_crc,
            ));
        }
        if blk.len() < WIDTH_BYTES {
            return Err(IndexError::bad_format("block too short for its widths"));
        }
        let (id_w, count_w, off_w) = (blk[0], blk[1], blk[2]);
        if id_w > 32 || count_w > 32 || off_w > 32 {
            return Err(IndexError::bad_format("block width exceeds 32 bits"));
        }
        let id_bytes = packed_len(id_w, n as u64) as usize;
        let count_bytes = packed_len(count_w, n as u64) as usize;
        let fixed = WIDTH_BYTES + id_bytes + count_bytes;
        if blk.len() < fixed {
            return Err(IndexError::bad_format(
                "block shorter than its packed sections",
            ));
        }

        unpack_values(id_w, &blk[WIDTH_BYTES..], n, &mut idbuf);
        let mut prev = prev_record;
        for gap in idbuf.iter_mut().take(n) {
            let record = prev + 1 + *gap as i64;
            if record >= num_records as i64 {
                return Err(IndexError::bad_format("decoded record id out of range"));
            }
            *gap = record as u32;
            prev = record;
        }
        if prev != max_record as i64 {
            return Err(IndexError::bad_format(
                "block contents disagree with skip entry",
            ));
        }

        unpack_values(count_w, &blk[WIDTH_BYTES + id_bytes..], n, &mut countbuf);
        let mut total_offs = 0u64;
        for i in 0..n {
            let count = countbuf[i] as u64 + 1;
            let len = record_lens
                .get(idbuf[i] as usize)
                .copied()
                .unwrap_or(u32::MAX) as u64;
            if count > len.max(1) {
                return Err(IndexError::bad_format("offset count exceeds record length"));
            }
            countbuf[i] = count as u32;
            total_offs += count;
        }

        if blk.len() as u64 != fixed as u64 + packed_len(off_w, total_offs) {
            return Err(IndexError::bad_format("block offset section missized"));
        }
        match emit {
            Emit::Offsets => {
                let mut reader = GroupReader::new(off_w, &blk[fixed..]);
                for i in 0..n {
                    let record = idbuf[i];
                    let len = record_lens
                        .get(record as usize)
                        .copied()
                        .unwrap_or(u32::MAX);
                    let mut prev_off: i64 = -1;
                    for _ in 0..countbuf[i] {
                        let off = prev_off + 1 + reader.next() as i64;
                        if off >= len.max(1) as i64 {
                            return Err(IndexError::bad_format("decoded offset out of range"));
                        }
                        visitor.visit(record, off as u32);
                        prev_off = off;
                    }
                }
            }
            Emit::Counts { list_at } => visitor.visit_block(
                &idbuf[..n],
                &countbuf[..n],
                OffsetSection {
                    start: list_at + skip_len + block_start + fixed,
                    width: off_w,
                },
            ),
        }

        stats.blocks_decoded += 1;
        stats.ids_decoded += n as u64;
        prev_record = max_record as i64;
        block_start = end;
    }
    Ok(stats)
}

/// Verify a block list's structure and every block CRC without unpacking
/// anything — the whole-file load check. Offsets in errors are relative
/// to the list's first byte.
pub(crate) fn verify_block_list(bytes: &[u8], df: u32) -> Result<(), IndexError> {
    let num_blocks = (df as usize).div_ceil(BLOCK_LEN);
    let skip_len = num_blocks * SKIP_ENTRY_BYTES;
    if bytes.len() < skip_len {
        return Err(IndexError::bad_format(
            "block list shorter than its skip table",
        ));
    }
    if num_blocks == 0 {
        if !bytes.is_empty() {
            return Err(IndexError::bad_format("trailing bytes in empty block list"));
        }
        return Ok(());
    }
    let payload = &bytes[skip_len..];
    let mut block_start = 0usize;
    for b in 0..num_blocks {
        let (_, end, expected_crc) = read_skip_entry(bytes, b);
        if end <= block_start || end > payload.len() {
            return Err(IndexError::bad_format("block extent out of order"));
        }
        if b + 1 == num_blocks && end != payload.len() {
            return Err(IndexError::bad_format("trailing bytes after last block"));
        }
        let blk = &payload[block_start..end];
        let actual_crc = crc32(blk);
        if actual_crc != expected_crc {
            return Err(IndexError::checksum(
                "block",
                (skip_len + block_start) as u64,
                expected_crc,
                actual_crc,
            ));
        }
        block_start = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::Posting;

    /// A closure visitor that never skips.
    struct Collect(Vec<(u32, u32)>);
    impl PostingsVisitor for Collect {
        fn visit(&mut self, record: u32, value: u32) {
            self.0.push((record, value));
        }
    }

    /// A visitor that skips blocks whose range lies in `skip_above..`.
    struct SkipAbove {
        seen: Vec<(u32, u32)>,
        skip_above: u32,
    }
    impl PostingsVisitor for SkipAbove {
        fn visit(&mut self, record: u32, value: u32) {
            self.seen.push((record, value));
        }
        fn skip_block(&mut self, lo: u32, _hi: u32) -> bool {
            lo > self.skip_above
        }
    }

    #[test]
    fn pack_unpack_round_trips_every_width() {
        for width in 0u8..=32 {
            let max = if width == 0 {
                0
            } else {
                (((1u64 << width) - 1) & u32::MAX as u64) as u32
            };
            let values: [u32; LANES] = std::array::from_fn(|i| {
                // Mix extremes and mid-range values.
                match i % 4 {
                    0 => max,
                    1 => 0,
                    2 => max / 2,
                    _ => (i as u32).wrapping_mul(2_654_435_761).min(max),
                }
            });
            let mut packed = Vec::new();
            pack_group(width, &values, &mut packed);
            assert_eq!(packed.len(), width as usize * 4, "width {width}");
            let mut back = [0u32; LANES];
            unpack_group_dyn(width, &packed, &mut back);
            assert_eq!(back, values, "width {width}");
        }
    }

    fn multi_block_list(df: usize) -> PostingsList {
        PostingsList {
            entries: (0..df as u32)
                .map(|i| Posting {
                    record: i * 3 + (i % 3),
                    offsets: (0..(i % 4) + 1).map(|j| i % 90 + j * 7).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn encode_decode_round_trips_multiple_blocks() {
        for df in [1usize, 127, 128, 129, 400] {
            let list = multi_block_list(df);
            let num_records = 4096;
            let lens = vec![1024u32; num_records as usize];
            let bytes = encode_block_postings(&list);
            assert!(bytes.len() >= skip_table_len(df as u32), "df {df}");
            let mut v = Collect(Vec::new());
            let stats =
                decode_block_stream(&bytes, df as u32, num_records, &lens, Emit::Offsets, &mut v)
                    .unwrap();
            let expect: Vec<(u32, u32)> = list
                .entries
                .iter()
                .flat_map(|p| p.offsets.iter().map(|&o| (p.record, o)))
                .collect();
            assert_eq!(v.0, expect, "df {df}");
            assert_eq!(stats.ids_decoded, df as u64);
            assert_eq!(stats.blocks_decoded as usize, df.div_ceil(BLOCK_LEN));
            assert_eq!(stats.blocks_skipped, 0);
        }
    }

    #[test]
    fn counts_decode_skips_offset_sections() {
        let list = multi_block_list(300);
        let lens = vec![1024u32; 4096];
        let bytes = encode_block_postings(&list);
        let mut v = Collect(Vec::new());
        decode_block_stream(
            &bytes,
            300,
            4096,
            &lens,
            Emit::Counts { list_at: 0 },
            &mut v,
        )
        .unwrap();
        let expect: Vec<(u32, u32)> = list
            .entries
            .iter()
            .map(|p| (p.record, p.offsets.len() as u32))
            .collect();
        assert_eq!(v.0, expect);
    }

    /// Keeps every block a counts decode hands over.
    struct Blocks(Vec<(Vec<u32>, Vec<u32>, OffsetSection)>);
    impl PostingsVisitor for Blocks {
        fn visit(&mut self, _record: u32, _value: u32) {
            panic!("a counts decode hands over whole blocks");
        }
        fn visit_block(&mut self, records: &[u32], counts: &[u32], offsets: OffsetSection) {
            self.0.push((records.to_vec(), counts.to_vec(), offsets));
        }
    }

    #[test]
    fn offset_sections_read_back_every_postings_offsets() {
        let list = multi_block_list(300);
        let lens = vec![1024u32; 4096];
        // The list sits behind other bytes in the caller's buffer.
        let mut buf = vec![0xAB; 5];
        buf.extend(encode_block_postings(&list));
        let mut v = Blocks(Vec::new());
        decode_block_stream(
            &buf[5..],
            300,
            4096,
            &lens,
            Emit::Counts { list_at: 5 },
            &mut v,
        )
        .unwrap();
        assert_eq!(v.0.len(), 3);
        let mut seen = 0;
        for (records, counts, section) in &v.0 {
            let postings: Vec<(u32, u32)> = records
                .iter()
                .copied()
                .zip(counts.iter().copied())
                .collect();
            let block = &list.entries[seen..seen + postings.len()];
            let expect = |keep: &dyn Fn(u32) -> bool| -> Vec<(u32, u32)> {
                block
                    .iter()
                    .filter(|p| keep(p.record))
                    .flat_map(|p| p.offsets.iter().map(|&o| (p.record, o)))
                    .collect()
            };
            // Every posting, then every other one: a posting's offsets do
            // not depend on which were read before it.
            for keep in [&|_| true, &|r: u32| r % 2 == 1] as [&dyn Fn(u32) -> bool; 2] {
                let mut got = Vec::new();
                section
                    .visit_offsets(&buf, &postings, &lens, keep, |r, o| got.push((r, o)))
                    .unwrap();
                assert_eq!(got, expect(keep));
            }
            seen += postings.len();
        }
        assert_eq!(seen, 300);
        // An offset past the record's length is refused.
        let (records, counts, section) = &v.0[0];
        let postings: Vec<(u32, u32)> = records
            .iter()
            .copied()
            .zip(counts.iter().copied())
            .collect();
        // Record 0's last offset sits exactly at this length.
        let short = vec![*list.entries[0].offsets.last().unwrap(); 4096];
        assert!(section
            .visit_offsets(&buf, &postings, &short, |_| true, |_, _| {})
            .is_err());
    }

    #[test]
    fn skipping_blocks_preserves_later_blocks() {
        let list = multi_block_list(400);
        let lens = vec![1024u32; 4096];
        let bytes = encode_block_postings(&list);
        // Skip every block whose lowest possible record exceeds the first
        // block's range: blocks 2..4 are refused, blocks 0..2 decode.
        let boundary = list.entries[2 * BLOCK_LEN - 1].record;
        let mut v = SkipAbove {
            seen: Vec::new(),
            skip_above: boundary,
        };
        let stats = decode_block_stream(&bytes, 400, 4096, &lens, Emit::Offsets, &mut v).unwrap();
        assert_eq!(stats.blocks_skipped, 2);
        assert_eq!(stats.blocks_decoded, 2);
        assert_eq!(stats.ids_decoded, 2 * BLOCK_LEN as u64);
        let expect: Vec<(u32, u32)> = list
            .entries
            .iter()
            .take(2 * BLOCK_LEN)
            .flat_map(|p| p.offsets.iter().map(|&o| (p.record, o)))
            .collect();
        assert_eq!(v.seen, expect);
    }

    #[test]
    fn corrupt_block_payload_names_the_block() {
        let list = multi_block_list(300);
        let lens = vec![1024u32; 4096];
        let mut bytes = encode_block_postings(&list);
        let skip_len = skip_table_len(300);
        // Flip a byte in the second block's payload.
        let (_, first_end, _) = read_skip_entry(&bytes, 0);
        let victim = skip_len + first_end + 4;
        bytes[victim] ^= 0x10;
        let mut v = Collect(Vec::new());
        match decode_block_stream(&bytes, 300, 4096, &lens, Emit::Offsets, &mut v) {
            Err(IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "block");
                assert_eq!(offset, (skip_len + first_end) as u64);
            }
            other => panic!("expected block corruption, got {other:?}"),
        }
        // The first block's postings were already streamed (callers must
        // treat visited data as void on Err) — and verify rejects too.
        assert!(verify_block_list(&bytes, 300).is_err());
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let list = multi_block_list(260);
        let lens = vec![1024u32; 4096];
        let bytes = encode_block_postings(&list);
        for cut in 0..bytes.len() {
            let mut v = Collect(Vec::new());
            let result =
                decode_block_stream(&bytes[..cut], 260, 4096, &lens, Emit::Offsets, &mut v);
            assert!(result.is_err(), "cut {cut} decoded");
            assert!(verify_block_list(&bytes[..cut], 260).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn ids_at_the_top_of_the_u32_range_round_trip() {
        // num_records = u32::MAX forces 32-bit gap widths; the length
        // table intentionally doesn't span the id space (counts are then
        // unvalidated, by documented design).
        let list = PostingsList {
            entries: vec![
                Posting {
                    record: 0,
                    offsets: vec![0, 3],
                },
                Posting {
                    record: u32::MAX - 1,
                    offsets: vec![7],
                },
            ],
        };
        let bytes = encode_block_postings(&list);
        let mut v = Collect(Vec::new());
        decode_block_stream(&bytes, 2, u32::MAX, &[16, 16], Emit::Offsets, &mut v).unwrap();
        assert_eq!(v.0, vec![(0, 0), (0, 3), (u32::MAX - 1, 7)]);
    }
}
