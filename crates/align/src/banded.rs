//! Banded Smith–Waterman: local alignment restricted to a diagonal band.
//!
//! Partitioned search's fine stage must be cheap: the coarse stage has
//! already located the promising *diagonal* (query offset minus record
//! offset) for each candidate, so fine search only explores a band of
//! width `2·half_width + 1` around it — O(band × query) work instead of
//! O(query × record). The FASTA-style scanner uses the same routine for
//! its `opt` rescoring step.
//!
//! Two kernels compute the same score. [`banded_sw_score`] is the scalar
//! reference: one target, `i32` cells, an explicit range test per cell.
//! [`banded_sw_scores`] is what fine search runs: up to [`LANES`] targets
//! against one query, one target per `i16` lane, no branch in the cell
//! loop. The scalar kernel is the oracle the lane kernel is tested
//! against, and its fallback when `i16` is too narrow for the inputs.

use nucdb_seq::Base;

use crate::score::ScoringScheme;

const NEG: i32 = i32::MIN / 4;

/// The alignment diagonal of a hit pairing query position `q_pos` with
/// target position `t_pos` (the quantity the band is centred on).
#[inline]
pub fn band_for_diagonal(q_pos: usize, t_pos: usize) -> i64 {
    t_pos as i64 - q_pos as i64
}

/// The band `center ± half_width` cut down to the diagonals an `m × n`
/// matrix has (`-m..=n`), as `(lowest diagonal, number of diagonals)`;
/// `None` when the band misses the matrix. Cells off the matrix never
/// score, so the cut changes no result — it bounds the band's memory and
/// time by `m + n + 1` slots for any `center` and any `half_width`.
fn clip_band(m: usize, n: usize, center: i64, half_width: usize) -> Option<(i64, usize)> {
    let (center, half_width) = (center as i128, half_width as i128);
    let lo = (center - half_width).max(-(m as i128));
    let hi = (center + half_width).min(n as i128);
    (lo <= hi).then(|| (lo as i64, (hi - lo + 1) as usize))
}

/// Local alignment score within the band `|(j - i) - center| ≤ half_width`
/// (in 0-based positions `i` of `query` and `j` of `target`).
///
/// The result is a lower bound on the unbanded [`crate::sw_score`], equal
/// to it whenever the optimal local alignment stays inside the band.
pub fn banded_sw_score(
    query: &[Base],
    target: &[Base],
    scheme: &ScoringScheme,
    center: i64,
    half_width: usize,
) -> i32 {
    let m = query.len();
    let n = target.len();
    if m == 0 || n == 0 {
        return 0;
    }
    let Some((lo, width)) = clip_band(m, n, center, half_width) else {
        return 0;
    };
    let gap_first = scheme.gap_first();
    let gap_next = scheme.gap_next();

    // Band-relative indexing: in row i, slot b covers target column
    // j = i + lo + b. The diagonal neighbour (i-1, j-1) sits at the same
    // slot of the previous row, "up" at slot b+1, "left" at slot b-1.
    let slot_to_col = |i: usize, b: usize| i as i64 + lo + b as i64;

    let mut h_prev = vec![NEG; width + 2];
    let mut f_prev = vec![NEG; width + 2];
    let mut h_cur = vec![NEG; width + 2];
    let mut f_cur = vec![NEG; width + 2];

    // Row 0: empty-query prefixes; any in-band, in-range column may start
    // a local alignment at score 0. (Slots are offset by one so that b-1
    // and b+1 never go out of bounds.)
    for b in 0..width {
        let j = slot_to_col(0, b);
        if (0..=n as i64).contains(&j) {
            h_prev[b + 1] = 0;
        }
    }

    let mut best = 0i32;
    for i in 1..=m {
        let q = query[i - 1];
        h_cur[0] = NEG;
        f_cur[0] = NEG;
        h_cur[width + 1] = NEG;
        let mut e = NEG;
        for b in 0..width {
            let j = slot_to_col(i, b);
            if j < 1 || j > n as i64 {
                h_cur[b + 1] = if j == 0 { 0 } else { NEG };
                f_cur[b + 1] = NEG;
                // E resets outside the valid region.
                e = NEG;
                continue;
            }
            let j = j as usize;
            // Left neighbour is the current row's previous slot.
            e = (h_cur[b] + gap_first).max(e + gap_next);
            // Up neighbour is the previous row's next slot.
            let f = (h_prev[b + 2] + gap_first).max(f_prev[b + 2] + gap_next);
            f_cur[b + 1] = f;
            let sub = h_prev[b + 1] + scheme.substitution(q, target[j - 1]);
            let score = sub.max(e).max(f).max(0);
            h_cur[b + 1] = score;
            if score > best {
                best = score;
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut f_prev, &mut f_cur);
    }
    best
}

/// Targets [`banded_sw_scores`] aligns in one pass, one per lane.
pub const LANES: usize = 16;

/// One value per lane: a band slot of every target in the batch.
type Lane = [i16; LANES];

/// "Minus infinity" of the lane kernel: low enough to lose every `max`
/// against a real cell, high enough that adding one gap cost cannot wrap.
const NEG16: i16 = i16::MIN / 2;

/// A target code no query base equals: what the lane kernel reads where
/// a band slot lies off its target.
const OFF_TARGET: i16 = 4;

/// The lane kernel's working memory, reused from batch to batch.
#[derive(Debug, Default)]
pub struct BandScratch {
    /// `t[row + slot][lane]`: the target base under each band slot.
    t: Vec<Lane>,
    /// H and F of the current row, one entry per band slot plus a pad.
    h: Vec<Lane>,
    f: Vec<Lane>,
}

/// Can every cell of these alignments be held in an `i16` lane? Decided
/// from the inputs alone: the best conceivable score stays below 16 000
/// and one gap or mismatch cost added to [`NEG16`] stays above `i16::MIN`.
/// The signs are the conventional ones (a mismatch or gap never gains),
/// which is also what lets off-target cells be computed like any other.
fn fits_i16(scheme: &ScoringScheme, m: usize, longest_target: usize) -> bool {
    let best_score = (scheme.match_score as usize).saturating_mul(m.min(longest_target));
    (0..16_000).contains(&scheme.match_score)
        && best_score < 16_000
        && (-7_999..=0).contains(&scheme.mismatch_score)
        && (0..8_000).contains(&scheme.gap_open)
        && (0..8_000).contains(&scheme.gap_extend)
}

/// [`banded_sw_score`] of `query` against every `(target, band center)`
/// pair, pair `k` written to `out[k]`.
///
/// Targets are taken [`LANES`] at a time. A batch shares one band width,
/// the widest any of its targets needs; slots a target does not need lie
/// off its matrix and cost time, not correctness. Every score equals the
/// scalar kernel's: where `i16` is too narrow for the scheme and lengths
/// (see `fits_i16`), the batch is scored by the scalar kernel instead.
pub fn banded_sw_scores<T: AsRef<[Base]>>(
    query: &[Base],
    targets: &[(T, i64)],
    scheme: &ScoringScheme,
    half_width: usize,
    scratch: &mut BandScratch,
    out: &mut [i32],
) {
    assert_eq!(targets.len(), out.len(), "one score per target");
    for (targets, out) in targets.chunks(LANES).zip(out.chunks_mut(LANES)) {
        let lengths = targets.iter().map(|(t, _)| t.as_ref().len());
        if !fits_i16(scheme, query.len(), lengths.max().unwrap_or(0)) {
            for ((target, center), score) in targets.iter().zip(out) {
                *score = banded_sw_score(query, target.as_ref(), scheme, *center, half_width);
            }
            continue;
        }
        let width = interleave(query.len(), targets, half_width, &mut scratch.t);
        let best = score_lanes(query, width, scheme, scratch);
        for (score, best) in out.iter_mut().zip(best) {
            *score = i32::from(best);
        }
    }
}

/// Lay the batch's targets out as `t[row + slot][lane]` and return the
/// batch's band width in slots. Slot `b` of row `r` (0-based query
/// position) of a lane whose band starts at diagonal `lo` is target
/// position `r + b + lo`; positions off the target hold [`OFF_TARGET`].
fn interleave<T: AsRef<[Base]>>(
    m: usize,
    targets: &[(T, i64)],
    half_width: usize,
    t: &mut Vec<Lane>,
) -> usize {
    let mut bands = [None; LANES];
    for (band, (target, center)) in bands.iter_mut().zip(targets) {
        *band = clip_band(m, target.as_ref().len(), *center, half_width);
    }
    let width = bands.iter().flatten().map(|b| b.1).max().unwrap_or(0);
    t.clear();
    t.resize((m + width).saturating_sub(1), [OFF_TARGET; LANES]);
    for (lane, (band, (target, _))) in bands.iter().zip(targets).enumerate() {
        let target = target.as_ref();
        let Some((lo, own_width)) = *band else {
            continue;
        };
        // A band narrower than the batch's was cut at an edge of the
        // matrix; its spare slots go beyond that edge: above diagonal n
        // if it ends there, else below diagonal -m, where it must start.
        let ends_at_n = lo + own_width as i64 > target.len() as i64;
        let lo = if ends_at_n {
            lo
        } else {
            lo - (width - own_width) as i64
        };
        let rows_before = usize::try_from(-lo).unwrap_or(0);
        let bases_before = usize::try_from(lo).unwrap_or(0);
        let under_row = t.iter_mut().skip(rows_before);
        for (row, base) in under_row.zip(target.iter().skip(bases_before)) {
            row[lane] = i16::from(base.code());
        }
    }
    width
}

/// The Gotoh recurrence of [`banded_sw_score`] over all lanes at once.
///
/// No cell tests whether it is on its target. An off-target slot holds a
/// code that never matches, H starts at 0 everywhere and F at −∞, so the
/// cells left of column 1 come out 0 exactly as the scalar kernel forces
/// them, and the cells right of column n can only read on-target cells,
/// never feed them — with no positive mismatch or gap score they cannot
/// beat the cell they copied from either, so the lane maximum is the
/// on-target maximum.
fn score_lanes(
    query: &[Base],
    width: usize,
    scheme: &ScoringScheme,
    scratch: &mut BandScratch,
) -> Lane {
    let BandScratch { t, h, f } = scratch;
    // One row, updated in place: before slot b is written, h[b] is the
    // diagonal neighbour and h[b + 1], f[b + 1] the upper one. The pad
    // at `width` stands for the cell above the band's last slot.
    h.clear();
    h.resize(width, [0; LANES]);
    h.push([NEG16; LANES]);
    f.clear();
    f.resize(width + 1, [NEG16; LANES]);

    let match_score = scheme.match_score as i16;
    let mismatch_score = scheme.mismatch_score as i16;
    let gap_first = scheme.gap_first() as i16;
    let gap_next = scheme.gap_next() as i16;
    let mut best = [0i16; LANES];
    for (row, &q) in query.iter().enumerate() {
        let q = i16::from(q.code());
        let t = &t[row..row + width];
        let mut h_left = [NEG16; LANES];
        let mut e = [NEG16; LANES];
        for b in 0..width {
            let (diag, up_h, up_f, t) = (h[b], h[b + 1], f[b + 1], &t[b]);
            let mut h_new = [0i16; LANES];
            let mut f_new = [0i16; LANES];
            for l in 0..LANES {
                let sub = diag[l]
                    + if t[l] == q {
                        match_score
                    } else {
                        mismatch_score
                    };
                e[l] = (h_left[l] + gap_first).max(e[l] + gap_next).max(NEG16);
                f_new[l] = (up_h[l] + gap_first).max(up_f[l] + gap_next).max(NEG16);
                h_new[l] = sub.max(e[l]).max(f_new[l]).max(0);
                best[l] = best[l].max(h_new[l]);
            }
            h[b] = h_new;
            f[b] = f_new;
            h_left = h_new;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::sw_score;
    use nucdb_seq::DnaSeq;

    fn bases(ascii: &[u8]) -> Vec<Base> {
        DnaSeq::from_ascii(ascii).unwrap().representative_bases()
    }

    fn unit() -> ScoringScheme {
        ScoringScheme::unit()
    }

    #[test]
    fn wide_band_matches_full_sw() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"ACGTACGTAA", b"ACGTTACGTA"),
            (b"AAAAACCCCC", b"AAAAAGGCCCCC"),
            (b"GATTACA", b"GCATGCT"),
            (b"ACACACACAC", b"CACACACACA"),
        ];
        for (q, t) in cases {
            let q = bases(q);
            let t = bases(t);
            let full = sw_score(&q, &t, &unit());
            // A band wide enough to cover the whole matrix from any center.
            let banded = banded_sw_score(&q, &t, &unit(), 0, q.len() + t.len());
            assert_eq!(banded, full, "q={q:?}");
        }
    }

    #[test]
    fn band_centred_on_true_diagonal_finds_alignment() {
        // Shared core at query offset 8, target offset 6 → diagonal -2.
        let q = bases(b"TTTTTTTTACGTAGCTAGCTGGGG");
        let t = bases(b"CCCCCCACGTAGCTAGCTAAAAAAAA");
        let diag = band_for_diagonal(8, 6);
        assert_eq!(diag, -2);
        let s = banded_sw_score(&q, &t, &unit(), diag, 4);
        assert_eq!(s, 12); // the 12-base core matches exactly
    }

    #[test]
    fn band_off_diagonal_misses_alignment() {
        let q = bases(b"TTTTTTTTACGTAGCTAGCTGGGG");
        let t = bases(b"CCCCCCACGTAGCTAGCTAAAAAAAA");
        // Center far from the true diagonal (-2) with a narrow band.
        let s = banded_sw_score(&q, &t, &unit(), 15, 2);
        assert!(s < 12, "off-band score {s}");
    }

    #[test]
    fn banded_never_exceeds_full() {
        let q = bases(b"ACGGTTCAGGATCCGATTACAGT");
        let t = bases(b"GGATCCGTTTACAGTACGGTTCA");
        let full = sw_score(&q, &t, &ScoringScheme::blastn());
        for center in -10i64..=10 {
            for half_width in [0usize, 1, 3, 8] {
                let banded = banded_sw_score(&q, &t, &ScoringScheme::blastn(), center, half_width);
                assert!(
                    banded <= full,
                    "center {center} hw {half_width}: banded {banded} > full {full}"
                );
            }
        }
    }

    #[test]
    fn zero_width_band_is_single_diagonal() {
        // half_width 0 on diagonal 0 scores the main-diagonal run only.
        let q = bases(b"ACGTACGT");
        let t = bases(b"ACGTTCGT");
        // Diagonal scores: 4 matches, one mismatch, 3 matches → best
        // cumulative local score 4 - 1 + 3 = 6.
        let s = banded_sw_score(&q, &t, &unit(), 0, 0);
        assert_eq!(s, 6);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let s = bases(b"ACGT");
        assert_eq!(banded_sw_score(&[], &s, &unit(), 0, 5), 0);
        assert_eq!(banded_sw_score(&s, &[], &unit(), 0, 5), 0);
    }

    #[test]
    fn unbounded_band_is_full_sw_in_bounded_memory() {
        // `2 * half_width + 1` must not be computed, let alone allocated:
        // the band is cut to the matrix's own diagonals first.
        let q = bases(b"TTTTTTTTACGTAGCTAGCTGGGG");
        let t = bases(b"CCCCCCACGTAGCAGCTAAAAAAAA");
        let full = sw_score(&q, &t, &unit());
        for (centers, half_width) in [
            (&[0, -2, i64::MIN, i64::MAX][..], usize::MAX),
            (&[0, -2, 1_000_000], 40_000_000_000),
        ] {
            for &center in centers {
                assert_eq!(banded_sw_score(&q, &t, &unit(), center, half_width), full);
                let mut lanes = [0; 2];
                banded_sw_scores(
                    &q,
                    &[(&t[..], center), (&t[3..], center)],
                    &unit(),
                    half_width,
                    &mut BandScratch::default(),
                    &mut lanes,
                );
                assert_eq!(lanes[0], full);
                assert_eq!(lanes[1], sw_score(&q, &t[3..], &unit()));
            }
        }
        // A narrow band nowhere near the matrix holds no cell at all.
        assert_eq!(banded_sw_score(&q, &t, &unit(), i64::MAX, 5), 0);
        assert_eq!(banded_sw_score(&q, &t, &unit(), -1_000, 5), 0);
    }

    #[test]
    fn gap_within_band_is_used() {
        // 2-base deletion: needs band wide enough to shift diagonals.
        let q = bases(b"AAAAACCCCC");
        let t = bases(b"AAAAAGGCCCCC");
        let full = sw_score(&q, &t, &unit());
        let banded = banded_sw_score(&q, &t, &unit(), 0, 3);
        assert_eq!(banded, full);
    }
}
