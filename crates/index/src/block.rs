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
//! Verification checks every block's CRC, so a point corruption names
//! one block. The decoder itself checks no CRC: it unpacks bytes that
//! have already been verified (an index verifies a list on its first
//! fetch; the free decode functions verify first), and keeps only the
//! structural checks that make a verified list's values safe to use.
//! A visitor may still refuse a block through
//! `skip_block`; coarse search refuses none. The unpack kernel is one
//! monomorphised straight-line loop per width: per lane one unaligned
//! 8-byte load, a shift and a mask, out of a window whose length is
//! checked once per group.
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
/// Bytes one group unpack may load: the group's `4 * width <= 128`
/// bytes plus the slack of one 8-byte load.
const WINDOW: usize = 4 * LANES + 8;

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
    /// One [`PostingsVisitor::visit_block`] per decoded block, its
    /// offset section located in the buffer the list was decoded from.
    Counts,
}

/// Where one decoded block's packed offsets sit in the buffer its list
/// was decoded from. The section holds the block's offsets as
/// per-record gaps in posting order, 32 values to a group of `width`
/// little-endian words, so one posting's offsets unpack from the group
/// or two they fall in.
///
/// A source made of several indexes tags each section with the `part`
/// whose buffer it lies in; a single index leaves it 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetSection {
    /// Byte position of the section's first group in the buffer.
    start: usize,
    /// Bit width of every packed gap.
    width: u8,
    /// Which part's buffer the section lies in.
    part: u32,
}

impl OffsetSection {
    /// This section, tagged as lying in part `part`'s buffer.
    pub fn in_part(self, part: u32) -> OffsetSection {
        OffsetSection { part, ..self }
    }

    /// The part whose buffer the section lies in.
    pub fn part(self) -> u32 {
        self.part
    }

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
                        unpack_group(self.width, &buf[at..], &mut lanes);
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
    /// Blocks unpacked.
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

/// Pack 32 `width`-bit values into `width` little-endian u32 words, the
/// layout [`unpack_group`] reads.
pub fn pack_group(width: u8, values: &[u32; LANES], out: &mut Vec<u8>) {
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

/// Unpack one 32-value group packed at constant width `W` from the
/// front of `bytes`, which must hold the group's `4 * W` bytes. The
/// window is length-checked once: from a full [`WINDOW`] each lane is
/// one unaligned 8-byte load at its first byte, a shift and a mask —
/// with `W` a compile-time constant the loop unrolls into straight-line
/// code with no bounds checks. Lanes may load bytes past the group;
/// the mask drops them. Only the last group of a buffer, with fewer
/// than [`WINDOW`] bytes left, is copied into a zeroed window first.
fn unpack_width<const W: u32>(bytes: &[u8], out: &mut [u32; LANES]) {
    match bytes.first_chunk::<WINDOW>() {
        Some(window) => unpack_window::<W>(window, out),
        None => unpack_tail::<W>(bytes, out),
    }
}

/// [`unpack_width`] for a group with fewer than [`WINDOW`] bytes left in
/// its buffer, out of line: it runs once per buffer at most.
#[cold]
#[inline(never)]
fn unpack_tail<const W: u32>(bytes: &[u8], out: &mut [u32; LANES]) {
    assert!(
        bytes.len() >= 4 * W as usize,
        "group of width {W} cut short"
    );
    let mut window = [0u8; WINDOW];
    window[..bytes.len()].copy_from_slice(bytes);
    unpack_window::<W>(&window, out);
}

#[inline(always)]
fn unpack_window<const W: u32>(window: &[u8; WINDOW], out: &mut [u32; LANES]) {
    // Written out lane by lane: the compiler unrolls a 32-lane loop only
    // at some widths, and every lane's offset and shift are constants.
    macro_rules! lanes {
        ($($i:literal)*) => {$(
            out[$i] = lane::<W>(window, $i);
        )*};
    }
    lanes!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31);
}

/// Lane `i` of a group packed at width `W`: the 8 bytes from its first
/// byte, shifted and masked.
#[inline(always)]
fn lane<const W: u32>(window: &[u8; WINDOW], i: usize) -> u32 {
    let bit = i * W as usize;
    let at = bit / 8;
    let word = u64::from_le_bytes(window[at..at + 8].try_into().unwrap());
    (word >> (bit % 8)) as u32 & ((1u64 << W) - 1) as u32
}

/// Unpack one 32-value group packed at `width` bits from the front of
/// `bytes`, which must hold its `4 * width` bytes: one monomorphised
/// kernel per width, selected by a single match. Bytes past the group
/// are read but do not change the result.
///
/// # Panics
///
/// If `width` exceeds 32, or `bytes` is shorter than the group.
pub fn unpack_group(width: u8, bytes: &[u8], out: &mut [u32; LANES]) {
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width as u32 {
                $($w => unpack_width::<$w>(bytes, out),)*
                _ => panic!("bit width {width} exceeds 32"),
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
        unpack_group(width, &bytes[g * group_bytes..], lanes);
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
            unpack_group(self.width, &self.bytes[start..], &mut self.lanes);
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

/// Stream one block-coded list through `visitor`. The list is
/// `buf[list]`; its bytes must already have passed
/// [`verify_block_list`], for no CRC is checked here. The rest of `buf`
/// only widens the unpack windows of the list's last groups.
///
/// With [`Emit::Offsets`] the visitor sees `(record, offset)` per
/// occurrence. With [`Emit::Counts`] it sees each block's ids and counts
/// in one `visit_block` call — and the offset sections are *not unpacked
/// at all*: the length-delimited layout just steps over them and reports
/// where each one sits in `buf`. The visitor's `skip_block(lo, hi)` is
/// consulted per block before unpacking; `lo..=hi` bounds every record
/// id the block can hold.
///
/// Ids are not range-checked one by one: they ascend strictly from the
/// previous skip entry's max record, and the last must equal this
/// block's, which is below `num_records`, so every one is too.
///
/// Corruption offsets in errors are relative to the list's first byte;
/// callers that know the list's file position rebase them (see
/// [`IndexError::with_base_offset`]). The record-length table may be
/// shorter than the id space (synthetic full-universe tests); counts and
/// offsets are validated whenever a length is known.
pub(crate) fn decode_block_stream(
    buf: &[u8],
    list: std::ops::Range<usize>,
    df: u32,
    num_records: u32,
    record_lens: &[u32],
    emit: Emit,
    visitor: &mut dyn PostingsVisitor,
) -> Result<BlockDecodeStats, IndexError> {
    let mut stats = BlockDecodeStats::default();
    let bytes = &buf[list.clone()];
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
    let payload_at = list.start + skip_len;
    let payload_len = bytes.len() - skip_len;
    const WIDTH_BYTES: usize = 3;

    let mut idbuf = [0u32; BLOCK_LEN];
    let mut countbuf = [0u32; BLOCK_LEN];

    let mut prev_record: i64 = -1;
    let mut block_start = 0usize;
    let mut remaining = df as usize;
    for b in 0..num_blocks {
        let (max_record, end, _) = read_skip_entry(bytes, b);
        if end <= block_start || end > payload_len {
            return Err(IndexError::bad_format("block extent out of order"));
        }
        if b + 1 == num_blocks && end != payload_len {
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

        let blk_at = payload_at + block_start;
        let blk_len = end - block_start;
        if blk_len < WIDTH_BYTES {
            return Err(IndexError::bad_format("block too short for its widths"));
        }
        let (id_w, count_w, off_w) = (buf[blk_at], buf[blk_at + 1], buf[blk_at + 2]);
        if id_w > 32 || count_w > 32 || off_w > 32 {
            return Err(IndexError::bad_format("block width exceeds 32 bits"));
        }
        let id_bytes = packed_len(id_w, n as u64) as usize;
        let count_bytes = packed_len(count_w, n as u64) as usize;
        let fixed = WIDTH_BYTES + id_bytes + count_bytes;
        if blk_len < fixed {
            return Err(IndexError::bad_format(
                "block shorter than its packed sections",
            ));
        }

        // The windows run on past the block into the rest of `buf`.
        unpack_values(id_w, &buf[blk_at + WIDTH_BYTES..], n, &mut idbuf);
        let mut prev = prev_record;
        for gap in idbuf.iter_mut().take(n) {
            prev += 1 + i64::from(*gap);
            *gap = prev as u32;
        }
        if prev != max_record as i64 {
            return Err(IndexError::bad_format(
                "block contents disagree with skip entry",
            ));
        }

        unpack_values(
            count_w,
            &buf[blk_at + WIDTH_BYTES + id_bytes..],
            n,
            &mut countbuf,
        );
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

        if blk_len as u64 != fixed as u64 + packed_len(off_w, total_offs) {
            return Err(IndexError::bad_format("block offset section missized"));
        }
        match emit {
            Emit::Offsets => {
                let mut reader = GroupReader::new(off_w, &buf[blk_at + fixed..]);
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
            Emit::Counts => visitor.visit_block(
                &idbuf[..n],
                &countbuf[..n],
                OffsetSection {
                    start: blk_at + fixed,
                    width: off_w,
                    part: 0,
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

/// [`verify_block_list`], then [`decode_block_stream`] over the list
/// alone: the decode for bytes that no index has verified.
pub(crate) fn verify_and_decode(
    bytes: &[u8],
    df: u32,
    num_records: u32,
    record_lens: &[u32],
    emit: Emit,
    visitor: &mut dyn PostingsVisitor,
) -> Result<BlockDecodeStats, IndexError> {
    verify_block_list(bytes, df)?;
    let list = 0..bytes.len();
    decode_block_stream(bytes, list, df, num_records, record_lens, emit, visitor)
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
            unpack_group(width, &packed, &mut back);
            assert_eq!(back, values, "width {width}");
        }
    }

    /// Value `i` of a group packed at `width`, read one bit at a time.
    fn reference_lane(bytes: &[u8], width: u8, i: usize) -> u32 {
        (0..width as usize).fold(0, |value, j| {
            let bit = i * width as usize + j;
            value | u32::from(bytes[bit / 8] >> (bit % 8) & 1) << j
        })
    }

    proptest::proptest! {
        // Every width, random values, the group starting at every byte
        // alignment, and both paths: a full window behind the group, and
        // a buffer that ends with the group or one byte after it (the
        // copied tail).
        #[test]
        fn unpack_group_matches_a_bit_at_a_time_reference(seed in proptest::prelude::any::<u64>()) {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            for width in 0u8..=32 {
                let mask = ((1u64 << width) - 1) as u32;
                let values: [u32; LANES] = std::array::from_fn(|_| rng.random::<u32>() & mask);
                let mut group = Vec::new();
                pack_group(width, &values, &mut group);
                for align in 0..8 {
                    for trailing in [0, 1, WINDOW] {
                        let mut buf: Vec<u8> = (0..align).map(|_| rng.random()).collect();
                        buf.extend_from_slice(&group);
                        buf.extend((0..trailing).map(|_| rng.random::<u8>()));
                        let at = &buf[align..];
                        let reference: [u32; LANES] =
                            std::array::from_fn(|i| reference_lane(at, width, i));
                        let mut out = [u32::MAX; LANES];
                        unpack_group(width, at, &mut out);
                        let case = format!("width {width} align {align} trailing {trailing}");
                        proptest::prop_assert_eq!(out, reference, "{}", case);
                        proptest::prop_assert_eq!(out, values, "{}", case);
                    }
                }
            }
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
                verify_and_decode(&bytes, df as u32, num_records, &lens, Emit::Offsets, &mut v)
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
        verify_and_decode(&bytes, 300, 4096, &lens, Emit::Counts, &mut v).unwrap();
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
        verify_block_list(&buf[5..], 300).unwrap();
        decode_block_stream(&buf, 5..buf.len(), 300, 4096, &lens, Emit::Counts, &mut v).unwrap();
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
        let stats = verify_and_decode(&bytes, 400, 4096, &lens, Emit::Offsets, &mut v).unwrap();
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
        match verify_and_decode(&bytes, 300, 4096, &lens, Emit::Offsets, &mut v) {
            Err(IndexError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "block");
                assert_eq!(offset, (skip_len + first_end) as u64);
            }
            other => panic!("expected block corruption, got {other:?}"),
        }
        // Verification refuses the list before any posting is visited.
        assert!(v.0.is_empty());
        assert!(verify_block_list(&bytes, 300).is_err());
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let list = multi_block_list(260);
        let lens = vec![1024u32; 4096];
        let bytes = encode_block_postings(&list);
        for cut in 0..bytes.len() {
            let mut v = Collect(Vec::new());
            let cut_bytes = &bytes[..cut];
            let result =
                decode_block_stream(cut_bytes, 0..cut, 260, 4096, &lens, Emit::Offsets, &mut v);
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
        verify_and_decode(&bytes, 2, u32::MAX, &[16, 16], Emit::Offsets, &mut v).unwrap();
        assert_eq!(v.0, vec![(0, 0), (0, 3), (u32::MAX - 1, 7)]);
    }
}
