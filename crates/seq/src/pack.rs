//! Lossless *direct coding* of nucleotide sequences.
//!
//! This is the purpose-built compression scheme the CAFE system uses for its
//! sequence store (distributed by the authors as `cino`): each base is stored
//! in **two bits**, and the rare IUPAC wildcards are recorded in a separate
//! *exception list* of `(position, code)` pairs while the 2-bit payload holds
//! a representative base at the wildcard's position. The scheme is
//!
//! * **lossless** — bases *and* wildcards survive a round trip,
//! * **model-free** — no statistics pass over the collection is needed,
//! * **independently addressable** — any record can be unpacked without
//!   touching its neighbours, which matters because fine search visits
//!   records in relevance order, not storage order, and
//! * **extremely fast to decompress** — unpacking is a table lookup per
//!   packed byte (four bases at a time).
//!
//! The follow-up CAFE work reports that switching the store to direct coding
//! cut overall retrieval time by more than 20%; experiment **E6** reproduces
//! that comparison.

use crate::alphabet::{Base, IupacCode};
use crate::error::SeqError;
use crate::seq::DnaSeq;

/// Decode table: packed byte → four ASCII bases.
static ASCII_QUADS: [[u8; 4]; 256] = build_ascii_quads();

const fn build_ascii_quads() -> [[u8; 4]; 256] {
    const LETTERS: [u8; 4] = [b'A', b'C', b'G', b'T'];
    let mut table = [[0u8; 4]; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut slot = 0usize;
        while slot < 4 {
            table[byte][slot] = LETTERS[(byte >> (2 * slot)) & 0b11];
            slot += 1;
        }
        byte += 1;
    }
    table
}

/// A wildcard exception: the packed payload holds a representative base at
/// `position`; the original code was `code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exception {
    /// Position of the wildcard within the sequence.
    pub position: u32,
    /// The original IUPAC code at that position.
    pub code: IupacCode,
}

/// A direct-coded (2-bit packed) nucleotide sequence with a wildcard
/// exception list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedSeq {
    len: u32,
    /// 2-bit codes, four per byte, base `i` at bits `2*(i % 4)` of byte `i/4`.
    payload: Vec<u8>,
    /// Sorted by position, at most one entry per position.
    exceptions: Vec<Exception>,
}

impl PackedSeq {
    /// Pack a sequence. Wildcards go to the exception list; the payload
    /// stores their representative base so alignment over the payload alone
    /// still sees a plausible sequence.
    pub fn pack(seq: &DnaSeq) -> PackedSeq {
        let len = seq.len();
        assert!(
            len <= u32::MAX as usize,
            "sequence too long for packed form"
        );
        let mut payload = vec![0u8; len.div_ceil(4)];
        let mut exceptions = Vec::new();
        for (i, code) in seq.iter().enumerate() {
            let base = code.representative();
            payload[i / 4] |= base.code() << (2 * (i % 4));
            if code.is_wildcard() {
                exceptions.push(Exception {
                    position: i as u32,
                    code,
                });
            }
        }
        PackedSeq {
            len: len as u32,
            payload,
            exceptions,
        }
    }

    /// Sequence length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the sequence empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of wildcard exceptions.
    #[inline]
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// The raw 2-bit payload.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The wildcard exceptions, sorted by position.
    #[inline]
    pub fn exceptions(&self) -> &[Exception] {
        &self.exceptions
    }

    /// In-memory compressed size in bytes (payload + exception list), the
    /// quantity experiment E6 compares against one-byte-per-base storage.
    pub fn packed_bytes(&self) -> usize {
        self.payload.len() + self.exceptions.len() * 5
    }

    /// The representative base at `index` (wildcards collapse).
    #[inline]
    pub fn base_at(&self, index: usize) -> Base {
        debug_assert!(index < self.len());
        Base::from_code(self.payload[index / 4] >> (2 * (index % 4)))
    }

    /// The exact IUPAC code at `index`, consulting the exception list.
    pub fn code_at(&self, index: usize) -> IupacCode {
        match self
            .exceptions
            .binary_search_by_key(&(index as u32), |e| e.position)
        {
            Ok(hit) => self.exceptions[hit].code,
            Err(_) => IupacCode::from(self.base_at(index)),
        }
    }

    /// Unpack to representative bases only (the fast path used by alignment
    /// and interval extraction; wildcards collapse to representatives).
    pub fn unpack_bases(&self) -> Vec<Base> {
        // Every packed byte pushes four bases before the tail is trimmed;
        // reserve for all of them so the last push never reallocates.
        let mut out = Vec::with_capacity(self.payload.len() * 4);
        for &byte in &self.payload {
            out.push(Base::from_code(byte));
            out.push(Base::from_code(byte >> 2));
            out.push(Base::from_code(byte >> 4));
            out.push(Base::from_code(byte >> 6));
        }
        out.truncate(self.len());
        out
    }

    /// Unpack to ASCII using the quad lookup table. This is the hot
    /// decompression path; a packed byte yields four letters per lookup.
    pub fn unpack_ascii(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() * 4);
        for &byte in &self.payload {
            out.extend_from_slice(&ASCII_QUADS[byte as usize]);
        }
        out.truncate(self.len());
        for e in &self.exceptions {
            out[e.position as usize] = e.code.to_ascii();
        }
        out
    }

    /// Full lossless unpack, restoring wildcards.
    pub fn unpack(&self) -> DnaSeq {
        let mut codes: Vec<IupacCode> = self
            .unpack_bases()
            .into_iter()
            .map(IupacCode::from)
            .collect();
        for e in &self.exceptions {
            codes[e.position as usize] = e.code;
        }
        DnaSeq::from_codes(codes)
    }

    /// Serialize to a compact byte blob:
    /// `len:u32 | n_exc:u32 | (pos:u32, mask:u8)* | payload`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.exceptions.len() * 5 + self.payload.len());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.exceptions.len() as u32).to_le_bytes());
        for e in &self.exceptions {
            out.extend_from_slice(&e.position.to_le_bytes());
            out.push(e.code.mask());
        }
        out.extend_from_slice(&self.payload);
        out
    }

    /// Deserialize a blob produced by [`PackedSeq::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<PackedSeq, SeqError> {
        let header = SeqError::corrupt;
        if bytes.len() < 8 {
            return Err(header("truncated header"));
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        let n_exc = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let exc_end = 8 + n_exc * 5;
        if bytes.len() < exc_end {
            return Err(header("truncated exception list"));
        }
        let mut exceptions = Vec::with_capacity(n_exc);
        let mut prev: Option<u32> = None;
        for chunk in bytes[8..exc_end].chunks_exact(5) {
            let position = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
            if position >= len {
                return Err(header("exception position out of range"));
            }
            if prev.is_some_and(|p| p >= position) {
                return Err(header("exception positions not strictly increasing"));
            }
            prev = Some(position);
            let code =
                IupacCode::from_mask(chunk[4]).ok_or(header("empty IUPAC mask in exception"))?;
            exceptions.push(Exception { position, code });
        }
        let payload = bytes[exc_end..].to_vec();
        if payload.len() != (len as usize).div_ceil(4) {
            return Err(header("payload length does not match sequence length"));
        }
        Ok(PackedSeq {
            len,
            payload,
            exceptions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ascii: &[u8]) {
        let seq = DnaSeq::from_ascii(ascii).unwrap();
        let packed = PackedSeq::pack(&seq);
        assert_eq!(packed.unpack(), seq, "round trip failed for {:?}", ascii);
        assert_eq!(packed.unpack_ascii(), seq.to_ascii_vec());
    }

    #[test]
    fn round_trip_plain() {
        round_trip(b"");
        round_trip(b"A");
        round_trip(b"ACG");
        round_trip(b"ACGT");
        round_trip(b"ACGTA");
        round_trip(b"ACGTACGTACGTACGTT");
    }

    #[test]
    fn round_trip_with_wildcards() {
        round_trip(b"N");
        round_trip(b"NNNN");
        round_trip(b"ACGTNACGT");
        round_trip(b"RYSWKMBDHVN");
        round_trip(b"NACGTACGTACGTACGN");
    }

    #[test]
    fn packed_size_is_quarter_plus_exceptions() {
        let seq = DnaSeq::from_ascii(&[b'A'; 1000]).unwrap();
        let packed = PackedSeq::pack(&seq);
        assert_eq!(packed.packed_bytes(), 250);
        assert_eq!(packed.exception_count(), 0);

        let mut ascii = vec![b'C'; 1000];
        ascii[10] = b'N';
        ascii[500] = b'R';
        let seq = DnaSeq::from_ascii(&ascii).unwrap();
        let packed = PackedSeq::pack(&seq);
        assert_eq!(packed.exception_count(), 2);
        assert_eq!(packed.packed_bytes(), 250 + 10);
    }

    #[test]
    fn base_at_matches_unpack() {
        let seq = DnaSeq::from_ascii(b"ACGTTGCAACGTN").unwrap();
        let packed = PackedSeq::pack(&seq);
        let bases = packed.unpack_bases();
        for (i, &base) in bases.iter().enumerate() {
            assert_eq!(packed.base_at(i), base, "position {i}");
        }
    }

    #[test]
    fn code_at_restores_wildcards() {
        let seq = DnaSeq::from_ascii(b"ACGNT").unwrap();
        let packed = PackedSeq::pack(&seq);
        assert_eq!(packed.code_at(3), IupacCode::N);
        assert_eq!(packed.code_at(0), IupacCode::A);
        assert_eq!(packed.code_at(4), IupacCode::T);
    }

    #[test]
    fn serialization_round_trip() {
        for ascii in [&b"ACGTNACGTRYACGT"[..], b"", b"N", b"ACGT"] {
            let seq = DnaSeq::from_ascii(ascii).unwrap();
            let packed = PackedSeq::pack(&seq);
            let bytes = packed.to_bytes();
            let back = PackedSeq::from_bytes(&bytes).unwrap();
            assert_eq!(back, packed);
            assert_eq!(back.unpack(), seq);
        }
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let seq = DnaSeq::from_ascii(b"ACGTNACGT").unwrap();
        let bytes = PackedSeq::pack(&seq).to_bytes();
        for cut in [0, 4, 7, bytes.len() - 1] {
            assert!(
                PackedSeq::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn from_bytes_rejects_bad_exception() {
        let seq = DnaSeq::from_ascii(b"ACGN").unwrap();
        let mut bytes = PackedSeq::pack(&seq).to_bytes();
        // Exception position (bytes 8..12) beyond the sequence length.
        bytes[8..12].copy_from_slice(&100u32.to_le_bytes());
        assert!(PackedSeq::from_bytes(&bytes).is_err());
    }

    #[test]
    fn from_bytes_rejects_empty_mask() {
        let seq = DnaSeq::from_ascii(b"ACGN").unwrap();
        let mut bytes = PackedSeq::pack(&seq).to_bytes();
        bytes[12] = 0; // the exception's IUPAC mask
        assert!(PackedSeq::from_bytes(&bytes).is_err());
    }

    #[test]
    fn representative_payload_is_plausible() {
        // The payload under a wildcard must be a member of its ambiguity set,
        // so alignment over representatives is meaningful.
        let seq = DnaSeq::from_ascii(b"RYSWKMBDHVN").unwrap();
        let packed = PackedSeq::pack(&seq);
        for (i, code) in seq.iter().enumerate() {
            assert!(code.matches(packed.base_at(i)), "position {i}");
        }
    }
}
