//! Interval extraction and index parameters.
//!
//! The paper's central design decision is to index **fixed-length
//! substrings** ("intervals"): unlike variable-length words in text, a DNA
//! sequence has no natural token boundary, so every overlapping window of
//! length `k` becomes an indexing unit. The experiments sweep `k` (E1) and
//! the extraction stride.
//!
//! Every occurrence is indexed with its in-record offset, as in the
//! paper: frame ranking and banded fine search both need it. Record-level
//! postings (ids and counts only) are not a format; E12 builds them in the
//! bench crate, and a file that declares them is refused by name.

use nucdb_seq::kmer::{vocabulary_size, KmerIter, MAX_K};
use nucdb_seq::Base;

use crate::error::IndexError;
use crate::stopping::StopPolicy;

/// The granularity byte every index header, `MANIFEST` and `SHARDS`
/// carries. Postings always hold every in-record offset, written as 0.
pub(crate) const OFFSET_GRANULARITY: u8 = 0;

/// Check a stored granularity byte: 0 opens; 1, the retired record-level
/// postings (ids and counts only), is refused by name; anything else is
/// a format error.
pub(crate) fn check_granularity(tag: u8) -> Result<(), IndexError> {
    match tag {
        OFFSET_GRANULARITY => Ok(()),
        1 => Err(IndexError::UnsupportedFormat(
            "record-granularity tag 1".to_string(),
        )),
        _ => Err(IndexError::bad_in("unknown granularity tag", "params")),
    }
}

/// The storage-mode byte every `MANIFEST`, `SHARDS` and store TOC
/// carries. Stores always hold 2-bit direct coding, written as 1.
pub const DIRECT_CODING_STORAGE: u8 = 1;

/// Check a stored storage-mode byte: 1 opens; 0, the retired ASCII
/// store, is refused by name; anything else is a format error.
pub fn check_storage(tag: u8) -> Result<(), IndexError> {
    match tag {
        DIRECT_CODING_STORAGE => Ok(()),
        0 => Err(IndexError::UnsupportedFormat(
            "ASCII store mode 0".to_string(),
        )),
        _ => Err(IndexError::bad_in("unknown storage mode", "params")),
    }
}

/// Parameters fixed at index-build time.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexParams {
    /// Interval length in bases (1..=32). The paper's sweet spot for
    /// nucleotide data is 8–12.
    pub k: usize,
    /// Extraction stride: 1 indexes every overlapping interval; larger
    /// strides trade index size for coarse-ranking resolution.
    pub stride: usize,
    /// Optional index stopping policy (drop uninformative frequent
    /// intervals).
    pub stopping: Option<StopPolicy>,
}

impl IndexParams {
    /// Overlapping intervals of length `k`, no stopping.
    pub fn new(k: usize) -> IndexParams {
        assert!((1..=MAX_K).contains(&k), "interval length out of range");
        IndexParams {
            k,
            stride: 1,
            stopping: None,
        }
    }

    /// Set the stride.
    pub fn with_stride(mut self, stride: usize) -> IndexParams {
        assert!(stride >= 1, "stride must be positive");
        self.stride = stride;
        self
    }

    /// Set the stopping policy.
    pub fn with_stopping(mut self, policy: StopPolicy) -> IndexParams {
        self.stopping = Some(policy);
        self
    }

    /// Upper bound on the interval vocabulary, `4^k`.
    pub fn vocabulary_bound(&self) -> u64 {
        vocabulary_size(self.k)
    }

    /// Extract `(offset, interval_code)` pairs from a record at this
    /// parameter set.
    pub fn extract<'a>(&self, bases: &'a [Base]) -> impl Iterator<Item = (u32, u64)> + 'a {
        let stride = self.stride;
        KmerIter::new(bases, self.k)
            .filter(move |(pos, _)| pos % stride == 0)
            .map(|(pos, code)| (pos as u32, code))
    }

    /// Number of intervals a record of length `len` yields.
    pub fn intervals_in(&self, len: usize) -> usize {
        if len < self.k {
            0
        } else {
            (len - self.k) / self.stride + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucdb_seq::DnaSeq;

    fn bases(ascii: &[u8]) -> Vec<Base> {
        DnaSeq::from_ascii(ascii).unwrap().representative_bases()
    }

    #[test]
    fn storage_byte_opens_direct_coding_only() {
        assert!(check_storage(DIRECT_CODING_STORAGE).is_ok());
        let ascii = check_storage(0).unwrap_err();
        assert!(matches!(ascii, IndexError::UnsupportedFormat(w) if w == "ASCII store mode 0"));
        assert!(matches!(check_storage(200), Err(IndexError::BadFormat(_))));
    }

    #[test]
    fn extraction_counts() {
        let b = bases(b"ACGTACGTAC"); // len 10
        let p = IndexParams::new(4);
        assert_eq!(p.extract(&b).count(), 7);
        assert_eq!(p.intervals_in(10), 7);
        let p2 = IndexParams::new(4).with_stride(3);
        let positions: Vec<u32> = p2.extract(&b).map(|(pos, _)| pos).collect();
        assert_eq!(positions, vec![0, 3, 6]);
        assert_eq!(p2.intervals_in(10), 3);
    }

    #[test]
    fn short_record_yields_nothing() {
        let b = bases(b"ACG");
        let p = IndexParams::new(8);
        assert_eq!(p.extract(&b).count(), 0);
        assert_eq!(p.intervals_in(3), 0);
        assert_eq!(p.intervals_in(8), 1);
    }

    #[test]
    fn vocabulary_bound() {
        assert_eq!(IndexParams::new(8).vocabulary_bound(), 65_536);
        assert_eq!(IndexParams::new(2).vocabulary_bound(), 16);
    }

    #[test]
    #[should_panic(expected = "interval length out of range")]
    fn zero_k_rejected() {
        IndexParams::new(0);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let _ = IndexParams::new(4).with_stride(0);
    }
}
