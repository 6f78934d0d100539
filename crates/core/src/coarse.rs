//! Coarse search: rank records by index evidence of a local alignment.
//!
//! Every interval of the query is looked up in the inverted index; each
//! posting contributes a *hit* `(record, diagonal)`, where the diagonal is
//! the record offset minus the query position. Records are then scored by
//! one of three schemes (ablated in experiment **E8**):
//!
//! * [`RankingScheme::Count`] — raw hit count. Cheap, but long records
//!   accumulate accidental hits.
//! * [`RankingScheme::Proportional`] — hit count normalised by record
//!   length, correcting the length bias.
//! * [`RankingScheme::Frame`] — the paper family's key insight: hits that
//!   belong to a real local alignment share (nearly) one diagonal, so the
//!   score is the maximum number of hits within a diagonal window whose
//!   width tolerates small indels. Accidental hits scatter across
//!   diagonals and stop mattering.
//!
//! The winning diagonal is reported with each candidate, seeding the
//! banded alignment of fine search.
//!
//! A query takes two passes over the same verified bytes. Pass one
//! fetches each list once and accumulates per-record counts from block
//! ids and counts alone; pass two decodes offsets, and so diagonals, only
//! for the records whose counts cleared `min_coarse_hits` — the only
//! records rank ever scores.
//!
//! Accumulation prunes nothing: every record a list touches is tracked,
//! and every block of every fetched list is verified and decoded.

use nucdb_index::{
    CompressedIndex, FetchStats, IndexError, IndexParams, OffsetSection, PostingsVisitor,
};
use nucdb_seq::Base;

use crate::explain::{CoarseExplain, ListExplain, SurvivorExplain};
use crate::params::SearchParams;

/// Scatter cursor of a record below `min_coarse_hits`: its hits are not
/// bucketed.
const BELOW_FLOOR: u32 = u32::MAX;

/// Anything coarse search can fetch postings from (an index, a
/// segmented view over several, or the engine's variant wrapper).
///
/// Fetching is visitor-driven: a source calls
/// [`PostingsVisitor::visit`] per posting instead of materialising
/// nested lists (`io_buf` is scratch a source may use), and honours a
/// visitor's [`PostingsVisitor::skip_block`] veto (coarse search vetoes
/// none).
pub trait PostingsSource {
    /// Number of records the index covers.
    fn num_records(&self) -> u32;
    /// Per-record lengths (needed for proportional ranking and offset
    /// decoding).
    fn record_lens(&self) -> &[u32];
    /// The index parameters (interval length, stride, stopping).
    fn index_params(&self) -> &IndexParams;

    /// Streaming fetch: `visit(record, offset)` for every posting of
    /// `code`, in record order with offsets ascending per record. Returns
    /// the list's [`FetchStats`] (df, bytes read, ids decoded, blocks
    /// decoded/skipped), or `Ok(None)` if the interval is absent.
    fn fetch_stream(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError>;

    /// Coarse search's first pass over `code`'s list: append its
    /// verified bytes to the end of `kept` and walk them as counts,
    /// [`PostingsVisitor::visit_block`] once per decoded block with the
    /// block's offsets located in `kept`, readable there until the caller
    /// changes `kept`. Lists that cannot step over their offsets (the
    /// Paper codec's bit-serial gaps) stream `visit(record, offset)` as
    /// [`fetch_stream`] does. Same skip hook and stats as
    /// [`fetch_stream`].
    ///
    /// The default streams every list through [`fetch_stream`].
    ///
    /// [`fetch_stream`]: PostingsSource::fetch_stream
    fn fetch_append(
        &self,
        code: u64,
        kept: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        let _ = kept;
        self.fetch_stream(code, &mut Vec::new(), visitor)
    }
}

impl PostingsSource for CompressedIndex {
    fn num_records(&self) -> u32 {
        CompressedIndex::num_records(self)
    }

    fn record_lens(&self) -> &[u32] {
        CompressedIndex::record_lens(self)
    }

    fn index_params(&self) -> &IndexParams {
        self.params()
    }

    fn fetch_stream(
        &self,
        code: u64,
        _io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.postings_stream(code, visitor)
    }

    fn fetch_append(
        &self,
        code: u64,
        kept: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.append_stream(code, kept, visitor)
    }
}

/// Coarse ranking scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankingScheme {
    /// Total interval hits.
    Count,
    /// Hits divided by record length.
    Proportional,
    /// Most hits within any diagonal window of the given width (in
    /// bases); the window tolerates indels of up to that many bases
    /// inside one local alignment.
    Frame {
        /// Diagonal window width.
        window: u32,
    },
}

impl Default for RankingScheme {
    fn default() -> RankingScheme {
        RankingScheme::Frame { window: 16 }
    }
}

/// One coarse candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseHit {
    /// Record id.
    pub record: u32,
    /// Score under the chosen ranking scheme (higher is better).
    pub score: f64,
    /// Total interval hits for the record.
    pub hits: u32,
    /// Hits within the best diagonal window.
    pub frame_hits: u32,
    /// Centre of the best diagonal window (record offset − query
    /// position); seeds the fine-search band.
    pub best_diagonal: i64,
}

/// The result of coarse search, with the cost counters experiments report.
#[derive(Debug, Clone, Default)]
pub struct CoarseOutcome {
    /// Top candidates, descending score.
    pub candidates: Vec<CoarseHit>,
    /// Distinct query intervals looked up.
    pub intervals_looked_up: u64,
    /// Lists found in the index.
    pub lists_fetched: u64,
    /// Postings entries decoded across all fetched lists.
    pub postings_decoded: u64,
    /// Compressed postings bytes read (block codec: the whole stored
    /// list including its skip table; other codecs: the encoded list).
    pub postings_bytes_read: u64,
    /// Blocks whose payload was unpacked (block-codec lists only; zero
    /// for the bit-serial codecs, which have no blocks).
    pub blocks_decoded: u64,
    /// Blocks left undecoded. Coarse search decodes every block of every
    /// list it fetches, so this is always zero.
    pub blocks_skipped: u64,
    /// Total `(query position, record offset)` hit pairs accumulated.
    pub total_hits: u64,
    /// Nanoseconds extracting and sorting the query's interval codes.
    pub extract_nanos: u64,
    /// Nanoseconds fetching postings and accumulating hits.
    pub accumulate_nanos: u64,
    /// Nanoseconds scattering diagonals, scoring and ranking candidates.
    pub rank_nanos: u64,
}

/// One block pass one kept for pass two.
#[derive(Debug, Clone, Copy)]
struct KeptBlock {
    /// Where the block's packed offsets sit in `CoarseScratch::lists`.
    offsets: OffsetSection,
    /// The block's postings: its share of `CoarseScratch::kept`.
    postings: u32,
    /// The block's query run, as a range of `CoarseScratch::codes`.
    run: (u32, u32),
}

/// Reusable working memory for coarse search.
///
/// A fresh query costs zero allocation once a scratch has warmed up: the
/// per-record accumulators are *generation-stamped* (a record's counter is
/// valid only when its stamp equals the current generation, so starting a
/// query is a single integer increment instead of an `O(num_records)`
/// zeroing), the query's block lists stay in one reusable byte buffer
/// between the two passes, survivors' hits land in a reusable arena, and
/// per-record diagonal buckets are placed by counting sort over the
/// already-known per-record hit counts.
///
/// One scratch serves any number of sequential queries (and both strands
/// of each); results are identical whether a scratch is fresh or reused.
/// Scratches are not `Sync` — give each worker thread its own.
#[derive(Debug, Default)]
pub struct CoarseScratch {
    /// Current query generation; `stamp[r] == generation` marks record
    /// `r`'s entries in `counts`/`slot` as live.
    generation: u32,
    stamp: Vec<u32>,
    /// Per-record accumulated hit count (valid under the stamp).
    counts: Vec<u32>,
    /// Per-record index into `touched` (valid under the stamp).
    slot: Vec<u32>,
    /// Records hit this query, in first-touch order.
    touched: Vec<u32>,
    /// Hit arena: `(record, diagonal)` in arrival order — Paper lists'
    /// hits from pass one, then the survivors' hits from pass two.
    hits: Vec<(u32, i64)>,
    /// Pass one's verified block-list bytes, in fetch order.
    lists: Vec<u8>,
    /// Every posting of every kept block, `(record, count)`, in fetch
    /// order.
    kept: Vec<(u32, u32)>,
    /// The kept blocks, in fetch order.
    blocks: Vec<KeptBlock>,
    /// Bit `r` set: record `r` cleared the floor, so pass two decodes its
    /// offsets. Lazily cleared via `touched`.
    survivors: Vec<u64>,
    /// Diagonal buckets, grouped per touched record by counting sort.
    diagonals: Vec<i64>,
    /// Per-touched-record scatter cursors (prefix sums, then bucket
    /// ends); [`BELOW_FLOOR`] for records the floor drops.
    cursor: Vec<u32>,
    /// Floor-passing records as `hits << 32 | touched slot`, the rank
    /// walk's order.
    order: Vec<u64>,
    /// The query's `(interval code, query position)` pairs, sorted — runs
    /// of one code replace the old per-query hash map.
    codes: Vec<(u64, u32)>,
    /// Candidate build area (sorted and truncated before copy-out).
    candidates: Vec<CoarseHit>,
}

impl CoarseScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> CoarseScratch {
        CoarseScratch::default()
    }

    /// Start a query over `num_records` records: bump the generation and
    /// clear the per-query arenas. O(1) amortised — the stamp table is
    /// only rebuilt when the index size changes or the generation wraps.
    fn begin(&mut self, num_records: usize) {
        if self.stamp.len() != num_records {
            self.stamp.clear();
            self.stamp.resize(num_records, 0);
            self.counts.clear();
            self.counts.resize(num_records, 0);
            self.slot.clear();
            self.slot.resize(num_records, 0);
            self.survivors.clear();
            self.survivors.resize(num_records.div_ceil(64), 0);
            self.generation = 0;
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        // Lazily reset the survivor bits: only words holding a record the
        // *previous* query touched can be nonzero.
        for &record in &self.touched {
            if let Some(w) = self.survivors.get_mut(record as usize >> 6) {
                *w = 0;
            }
        }
        self.generation += 1;
        self.touched.clear();
        self.hits.clear();
        self.lists.clear();
        self.kept.clear();
        self.blocks.clear();
    }
}

/// Pass one's accumulator: per-record counts under the generation stamp
/// (`count × qlen` per posting) and `total_hits`, plus what pass two
/// needs: every block's `(record, count)` postings and where its offsets
/// sit. A per-posting `visit` carries an offset (a Paper list, whose hits
/// are pushed at once).
struct Accumulator<'a> {
    generation: u32,
    /// The current run's `(code, query position)` pairs.
    qrun: &'a [(u64, u32)],
    /// The current run as a range of `CoarseScratch::codes`.
    run: (u32, u32),
    total_hits: u64,
    stamp: &'a mut [u32],
    counts: &'a mut [u32],
    slot: &'a mut [u32],
    touched: &'a mut Vec<u32>,
    hits: &'a mut Vec<(u32, i64)>,
    kept: &'a mut Vec<(u32, u32)>,
    blocks: &'a mut Vec<KeptBlock>,
}

impl Accumulator<'_> {
    /// Credit each `records[i]` with `counts[i]` occurrences of the
    /// current run's interval, `counts[i] × qlen` hits. Counts saturate:
    /// a 100 kb poly-A query against a 100 kb poly-A record is ≈ 10¹⁰
    /// hits, and a saturated count still clears every floor and outranks
    /// every smaller one.
    fn add(&mut self, records: &[u32], counts: &[u32]) {
        let qlen = self.qrun.len() as u32;
        let generation = self.generation;
        let (stamp, totals) = (&mut *self.stamp, &mut *self.counts);
        let mut occurrences = 0u64;
        for (&record, &count) in records.iter().zip(counts) {
            let r = record as usize;
            if stamp[r] != generation {
                stamp[r] = generation;
                totals[r] = 0;
                self.slot[r] = self.touched.len() as u32;
                self.touched.push(record);
            }
            totals[r] = totals[r].saturating_add(count.saturating_mul(qlen));
            occurrences += u64::from(count);
        }
        self.total_hits += occurrences * u64::from(qlen);
    }
}

impl PostingsVisitor for Accumulator<'_> {
    fn visit(&mut self, record: u32, offset: u32) {
        self.add(&[record], &[1]);
        for &(_, qpos) in self.qrun {
            self.hits.push((record, offset as i64 - qpos as i64));
        }
    }

    fn visit_block(&mut self, records: &[u32], counts: &[u32], offsets: OffsetSection) {
        self.add(records, counts);
        self.kept
            .extend(records.iter().copied().zip(counts.iter().copied()));
        self.blocks.push(KeptBlock {
            offsets,
            postings: records.len() as u32,
            run: self.run,
        });
    }
}

/// Pass one: fetch each of the query's lists once (ascending code) and
/// accumulate per-record counts. Block lists land in `scratch.lists` and
/// their postings in `scratch.kept` for pass two; Paper lists push their
/// hits at once.
fn accumulate<S: PostingsSource>(
    index: &S,
    scratch: &mut CoarseScratch,
    outcome: &mut CoarseOutcome,
    mut explain: Option<&mut CoarseExplain>,
) -> Result<(), IndexError> {
    scratch.begin(index.num_records() as usize);
    let CoarseScratch {
        generation,
        stamp,
        counts,
        slot,
        touched,
        hits,
        lists,
        kept,
        blocks,
        codes,
        ..
    } = scratch;
    let codes = &codes[..];
    let mut acc = Accumulator {
        generation: *generation,
        qrun: &[],
        run: (0, 0),
        total_hits: 0,
        stamp,
        counts,
        slot,
        touched,
        hits,
        kept,
        blocks,
    };
    let mut run_start = 0usize;
    while run_start < codes.len() {
        let code = codes[run_start].0;
        let mut run_end = run_start;
        while run_end < codes.len() && codes[run_end].0 == code {
            run_end += 1;
        }
        acc.qrun = &codes[run_start..run_end];
        acc.run = (run_start as u32, run_end as u32);
        run_start = run_end;

        let fetched = index.fetch_append(code, lists, &mut acc)?;
        if let Some(stats) = &fetched {
            outcome.lists_fetched += 1;
            outcome.postings_decoded += stats.ids_decoded;
            outcome.postings_bytes_read += stats.bytes_read;
            outcome.blocks_decoded += stats.blocks_decoded as u64;
        }
        if let Some(ex) = explain.as_deref_mut() {
            let qlen = acc.qrun.len() as u32;
            ex.lists.push(list_explain(code, qlen, fetched.as_ref()));
        }
    }
    outcome.total_hits = acc.total_hits;
    Ok(())
}

/// Pass two: mark the records whose counts cleared `min_coarse_hits`,
/// then walk the kept postings and push the hits of those records alone,
/// unpacking only the offset groups their offsets sit in. Rank scores
/// exactly these records, so no other record's offsets are ever decoded.
fn push_survivor_hits<S: PostingsSource>(
    index: &S,
    params: &SearchParams,
    scratch: &mut CoarseScratch,
) -> Result<(), IndexError> {
    let CoarseScratch {
        counts: totals,
        touched,
        hits,
        codes,
        lists,
        kept,
        blocks,
        survivors,
        ..
    } = scratch;
    if blocks.is_empty() {
        return Ok(());
    }
    let mut any = false;
    for &record in touched.iter() {
        if totals[record as usize] >= params.min_coarse_hits {
            survivors[record as usize >> 6] |= 1 << (record & 63);
            any = true;
        }
    }
    if !any {
        return Ok(());
    }
    let record_lens = index.record_lens();
    let mut postings = &kept[..];
    for block in blocks.iter() {
        let (block_postings, rest) = postings.split_at(block.postings as usize);
        postings = rest;
        let qrun = &codes[block.run.0 as usize..block.run.1 as usize];
        block.offsets.visit_offsets(
            lists,
            block_postings,
            record_lens,
            |record| survivors[record as usize >> 6] >> (record & 63) & 1 != 0,
            |record, offset| {
                for &(_, qpos) in qrun {
                    hits.push((record, offset as i64 - qpos as i64));
                }
            },
        )?;
    }
    Ok(())
}

/// Run coarse search for `query` over `index`.
///
/// Convenience wrapper over [`coarse_rank_with`] that pays one scratch
/// allocation; batch callers should hold a [`CoarseScratch`] and call
/// [`coarse_rank_with`] directly.
pub fn coarse_rank<S: PostingsSource>(
    index: &S,
    query: &[Base],
    params: &SearchParams,
) -> Result<CoarseOutcome, IndexError> {
    coarse_rank_with(index, query, params, &mut CoarseScratch::new())
}

/// Run coarse search for `query` over `index`, reusing `scratch` for all
/// working memory. Results are independent of the scratch's history.
pub fn coarse_rank_with<S: PostingsSource>(
    index: &S,
    query: &[Base],
    params: &SearchParams,
    scratch: &mut CoarseScratch,
) -> Result<CoarseOutcome, IndexError> {
    coarse_rank_explain(index, query, params, scratch, None)
}

/// [`coarse_rank_with`], additionally filling `explain` (when given) with
/// the per-list evidence behind the ranking. Collection is
/// passive: the outcome is bit-identical whether `explain` is `None` or
/// `Some` (pinned by the `explain_identity` tests).
pub fn coarse_rank_explain<S: PostingsSource>(
    index: &S,
    query: &[Base],
    params: &SearchParams,
    scratch: &mut CoarseScratch,
    mut explain: Option<&mut CoarseExplain>,
) -> Result<CoarseOutcome, IndexError> {
    let iparams = index.index_params();
    if let Some(ex) = explain.as_deref_mut() {
        ex.k = iparams.k;
        ex.stopping = match iparams.stopping {
            Some(nucdb_index::StopPolicy::DfFraction(f)) => format!("df_fraction:{f}"),
            Some(nucdb_index::StopPolicy::DfAbsolute(limit)) => format!("df_absolute:{limit}"),
            Some(nucdb_index::StopPolicy::TopK(k)) => format!("top_k:{k}"),
            None => "none".to_string(),
        };
        ex.floor = 0;
        ex.lists.clear();
        ex.survivors.clear();
    }
    let mut outcome = CoarseOutcome::default();
    extract_codes(iparams, query, params, scratch, &mut outcome);
    if scratch.codes.is_empty() || index.num_records() == 0 {
        return Ok(outcome);
    }

    if let Some(ex) = explain.as_deref_mut() {
        ex.floor = params.min_coarse_hits.into();
    }
    // The clock covers both passes.
    let accumulate_start = std::time::Instant::now();
    accumulate(index, scratch, &mut outcome, explain.as_deref_mut())?;
    push_survivor_hits(index, params, scratch)?;
    outcome.accumulate_nanos = accumulate_start.elapsed().as_nanos() as u64;
    if !scratch.hits.is_empty() {
        rank_offsets(index, params, scratch, &mut outcome, explain);
    }
    Ok(outcome)
}

/// Extract the query's distinct intervals and the positions they occur
/// at into `scratch.codes`, subsampled by the query stride and filtered
/// by low-complexity masking of the query. Sorted (code, qpos) runs stand
/// in for a per-query hash map; ascending code order also means
/// ascending file offsets for the on-disk index.
fn extract_codes(
    iparams: &IndexParams,
    query: &[Base],
    params: &SearchParams,
    scratch: &mut CoarseScratch,
    outcome: &mut CoarseOutcome,
) {
    let extract_start = std::time::Instant::now();
    let masked = params
        .mask
        .as_ref()
        .map(|dust| nucdb_seq::complexity::mask_regions(query, dust))
        .unwrap_or_default();
    let stride = params.query_stride.max(1);
    scratch.codes.clear();
    for (qpos, code) in iparams.extract(query) {
        if qpos as usize % stride == 0 && !nucdb_seq::complexity::is_masked(&masked, qpos as usize)
        {
            scratch.codes.push((code, qpos));
        }
    }
    scratch.codes.sort_unstable();
    let mut prev_code = None;
    for &(code, _) in &scratch.codes {
        if prev_code != Some(code) {
            outcome.intervals_looked_up += 1;
            prev_code = Some(code);
        }
    }
    outcome.extract_nanos = extract_start.elapsed().as_nanos() as u64;
}

/// Rank the accumulated records: scatter the survivors' hits into
/// diagonals, frame-score the records that can still place and keep the
/// top C.
fn rank_offsets<S: PostingsSource>(
    index: &S,
    params: &SearchParams,
    scratch: &mut CoarseScratch,
    outcome: &mut CoarseOutcome,
    explain: Option<&mut CoarseExplain>,
) {
    let CoarseScratch {
        counts,
        slot,
        touched,
        hits,
        diagonals,
        cursor,
        order,
        candidates,
        ..
    } = scratch;
    let rank_start = std::time::Instant::now();

    // Scatter the hit arena into per-record diagonal buckets by counting
    // sort over the known per-record totals — records below the floor
    // get no bucket and their hits are passed over — then find each
    // scored record's best diagonal window (two-pointer over its sorted
    // diagonals). Frame ranking scores by the window; the other schemes
    // still need the diagonal to seed fine search.
    let window = match params.ranking {
        RankingScheme::Frame { window } => window as i64,
        // A modest default tolerance when frames are not the ranking.
        _ => 16,
    };
    cursor.clear();
    order.clear();
    let mut running = 0u32;
    for (s, &record) in touched.iter().enumerate() {
        let total = counts[record as usize];
        if total < params.min_coarse_hits {
            cursor.push(BELOW_FLOOR);
        } else {
            cursor.push(running);
            running += total;
            order.push(u64::from(total) << 32 | s as u64);
        }
    }
    let keep = params.max_candidates;
    if keep == 0 {
        order.clear();
    }
    // Nothing to score (common under a high floor): no scatter.
    if !order.is_empty() {
        diagonals.clear();
        diagonals.resize(running as usize, 0);
        for &(record, diagonal) in hits.iter() {
            let s = slot[record as usize] as usize;
            let c = cursor[s];
            if c != BELOW_FLOOR {
                diagonals[c as usize] = diagonal;
                cursor[s] = c + 1;
            }
        }
    }

    // Bounded top-C: under Frame (frame hits ≤ hits) and Count (score =
    // hits) a record's score never exceeds its hit count, so walking in
    // descending hits can stop once the next record's hits fall strictly
    // below the C-th best score kept so far. Equal hits are still scored:
    // they can win on record id. Proportional walks every record. The
    // buffer is cut back to C whenever it reaches 2C.
    let bounded = !matches!(params.ranking, RankingScheme::Proportional);
    if bounded {
        order.sort_unstable_by(|a, b| b.cmp(a));
    }
    let cut_at = keep.saturating_mul(2);
    let mut kth_best: Option<f64> = None;
    let record_lens = index.record_lens();
    candidates.clear();
    for &entry in order.iter() {
        let total = (entry >> 32) as u32;
        if bounded && kth_best.is_some_and(|kth| f64::from(total) < kth) {
            break;
        }
        let s = entry as u32 as usize;
        let record = touched[s];
        // cursor[s] advanced to the bucket end during the scatter.
        let end = cursor[s] as usize;
        let diags = &mut diagonals[end - total as usize..end];
        diags.sort_unstable();
        // Two-pointer max window.
        let mut best_count = 0usize;
        let mut best_lo = 0usize;
        let mut lo = 0usize;
        for hi in 0..diags.len() {
            while diags[hi] - diags[lo] > window {
                lo += 1;
            }
            if hi - lo + 1 > best_count {
                best_count = hi - lo + 1;
                best_lo = lo;
            }
        }
        let window_slice = &diags[best_lo..best_lo + best_count];
        let best_diagonal = window_slice[window_slice.len() / 2];

        let score = match params.ranking {
            RankingScheme::Count => total as f64,
            RankingScheme::Proportional => {
                total as f64 / (record_lens[record as usize].max(1) as f64)
            }
            RankingScheme::Frame { .. } => best_count as f64,
        };
        candidates.push(CoarseHit {
            record,
            score,
            hits: total,
            frame_hits: best_count as u32,
            best_diagonal,
        });
        if candidates.len() >= cut_at {
            keep_best(candidates, keep);
            kth_best = candidates.last().map(|c| c.score);
        }
    }
    keep_best(candidates, keep);
    candidates.sort_unstable_by(rank_order);
    outcome.candidates.extend_from_slice(candidates);
    if let Some(ex) = explain {
        record_survivors(ex, candidates);
    }
    outcome.rank_nanos = rank_start.elapsed().as_nanos() as u64;
}

/// The candidate order: score descending, then record ascending. Record
/// ids are unique, so it is total and the top C is one set in one order.
fn rank_order(a: &CoarseHit, b: &CoarseHit) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .expect("coarse scores are finite")
        .then(a.record.cmp(&b.record))
}

/// Cut `candidates` to its best `keep` under [`rank_order`], unsorted;
/// after a cut the `keep`-th best is last.
fn keep_best(candidates: &mut Vec<CoarseHit>, keep: usize) {
    if candidates.len() > keep {
        if keep > 0 {
            candidates.select_nth_unstable_by(keep - 1, rank_order);
        }
        candidates.truncate(keep);
    }
}

/// Build one [`ListExplain`] from a fetch result. `None` stats mean the
/// interval is absent from the index (unseen or stopped).
fn list_explain(code: u64, qlen: u32, stats: Option<&FetchStats>) -> ListExplain {
    match stats {
        Some(stats) => ListExplain {
            code,
            qlen,
            df: stats.df,
            ids_decoded: stats.ids_decoded,
            bytes_read: stats.bytes_read,
            blocks_decoded: stats.blocks_decoded,
            ..ListExplain::default()
        },
        None => ListExplain {
            code,
            qlen,
            absent: true,
            ..ListExplain::default()
        },
    }
}

fn record_survivors(explain: &mut CoarseExplain, candidates: &[CoarseHit]) {
    explain.survivors.clear();
    explain
        .survivors
        .extend(candidates.iter().map(|hit| SurvivorExplain {
            record: hit.record,
            score: hit.score,
            hits: hit.hits,
            frame_hits: hit.frame_hits,
            best_diagonal: hit.best_diagonal,
        }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucdb_index::IndexBuilder;
    use nucdb_seq::DnaSeq;

    fn bases(ascii: &[u8]) -> Vec<Base> {
        DnaSeq::from_ascii(ascii).unwrap().representative_bases()
    }

    fn build(records: &[&[u8]], k: usize) -> CompressedIndex {
        let mut builder = IndexBuilder::new(IndexParams::new(k));
        for r in records {
            builder.add_record(&bases(r));
        }
        builder.finish()
    }

    fn params(ranking: RankingScheme) -> SearchParams {
        SearchParams {
            ranking,
            min_coarse_hits: 1,
            ..SearchParams::default()
        }
    }

    #[test]
    fn exact_copy_ranks_first() {
        let index = build(
            &[
                b"GGGGGGGGGGGGGGGGGGGGGGGG",
                b"TTTTACGTAGCTAGCTGGATCCTT", // contains the query
                b"CACACACACACACACACACACACA",
            ],
            8,
        );
        let query = bases(b"ACGTAGCTAGCTGGATCC");
        for ranking in [
            RankingScheme::Count,
            RankingScheme::Proportional,
            RankingScheme::Frame { window: 8 },
        ] {
            let outcome = coarse_rank(&index, &query, &params(ranking)).unwrap();
            assert!(!outcome.candidates.is_empty(), "{ranking:?}");
            assert_eq!(outcome.candidates[0].record, 1, "{ranking:?}");
        }
    }

    #[test]
    fn diagonal_is_recovered() {
        // Query matches record 0 at offset 6 → diagonal +6.
        let index = build(&[b"CCCCCCACGTAGCTAGCTGGATCCAAAA"], 8);
        let query = bases(b"ACGTAGCTAGCTGGATCC");
        let outcome =
            coarse_rank(&index, &query, &params(RankingScheme::Frame { window: 4 })).unwrap();
        assert_eq!(outcome.candidates.len(), 1);
        assert_eq!(outcome.candidates[0].best_diagonal, 6);
        // All hits of an exact embedded match share one diagonal.
        assert_eq!(outcome.candidates[0].frame_hits, outcome.candidates[0].hits);
    }

    #[test]
    fn frame_beats_count_on_scattered_hits() {
        // Record 0 shares many intervals with the query but scattered
        // (shuffled blocks); record 1 embeds a contiguous fragment.
        // Count ranks 0 first or equal; Frame must rank 1 first.
        let query = bases(b"AACCGGTTACGTAGCTTGCATGCAAACCGGTT");
        // Blocks of the query reordered and repeated: many hits, no
        // common diagonal.
        let scattered = b"TGCATGCAACGTAGCTAACCGGTTAACCGGTTAACCGGTT";
        let contiguous = b"TTTTTTACGTAGCTTGCATGCATTTTTTTTTT"; // one fragment
        let index = build(&[scattered, contiguous], 8);

        let frame =
            coarse_rank(&index, &query, &params(RankingScheme::Frame { window: 4 })).unwrap();
        assert_eq!(
            frame.candidates[0].record, 1,
            "frame should prefer the contiguous match"
        );

        let count = coarse_rank(&index, &query, &params(RankingScheme::Count)).unwrap();
        assert_eq!(
            count.candidates[0].record, 0,
            "count should prefer the scattered record"
        );
    }

    #[test]
    fn proportional_corrects_length_bias() {
        // A short record with one shared interval vs a long record with
        // two: proportional prefers the short one, count the long one.
        let short = b"ACGTAGCTAGCT"; // 12 bases, hits once
        let mut long = b"ACGTAGCTAGCTACGTAGCTAGCT".to_vec(); // hits more
        long.extend(std::iter::repeat_n(b'G', 400));
        let index = build(&[short, &long], 12);
        let query = bases(b"ACGTAGCTAGCT");

        let count = coarse_rank(&index, &query, &params(RankingScheme::Count)).unwrap();
        assert_eq!(count.candidates[0].record, 1);
        let prop = coarse_rank(&index, &query, &params(RankingScheme::Proportional)).unwrap();
        assert_eq!(prop.candidates[0].record, 0);
    }

    #[test]
    fn min_hits_filters_noise() {
        let index = build(&[b"ACGTAGCTTTTTTTTT", b"GGGGGGGGGGGGGGGG"], 8);
        let query = bases(b"ACGTAGCTAAAAAAAA"); // one shared interval with record 0
        let strict = SearchParams {
            min_coarse_hits: 2,
            ..SearchParams::default()
        };
        let outcome = coarse_rank(&index, &query, &strict).unwrap();
        assert!(outcome.candidates.is_empty());
        let lax = SearchParams {
            min_coarse_hits: 1,
            ..SearchParams::default()
        };
        let outcome = coarse_rank(&index, &query, &lax).unwrap();
        assert_eq!(outcome.candidates.len(), 1);
    }

    #[test]
    fn candidate_cutoff_respected() {
        let records: Vec<Vec<u8>> = (0..20)
            .map(|i| {
                let mut r = b"ACGTAGCTAGCTGGAT".to_vec();
                r.push(b"ACGT"[i % 4]);
                r
            })
            .collect();
        let refs: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
        let index = build(&refs, 8);
        let query = bases(b"ACGTAGCTAGCTGGAT");
        let p = SearchParams {
            max_candidates: 5,
            min_coarse_hits: 1,
            ..SearchParams::default()
        };
        let outcome = coarse_rank(&index, &query, &p).unwrap();
        assert_eq!(outcome.candidates.len(), 5);
        // Scores descend.
        for pair in outcome.candidates.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn short_query_yields_empty_outcome() {
        let index = build(&[b"ACGTACGTACGTACGT"], 8);
        let query = bases(b"ACGT"); // shorter than k
        let outcome = coarse_rank(&index, &query, &params(RankingScheme::Count)).unwrap();
        assert!(outcome.candidates.is_empty());
        assert_eq!(outcome.intervals_looked_up, 0);
    }

    #[test]
    fn query_stride_reduces_lookups() {
        let index = build(&[b"ACGTAGCTAGCTGGATCCTTACGGATCCAT"], 8);
        let query = bases(b"ACGTAGCTAGCTGGATCCTTACGGATCC");
        let all = coarse_rank(&index, &query, &params(RankingScheme::Count)).unwrap();
        let mut strided = params(RankingScheme::Count);
        strided.query_stride = 4;
        let sampled = coarse_rank(&index, &query, &strided).unwrap();
        assert!(sampled.intervals_looked_up < all.intervals_looked_up);
        assert!(sampled.intervals_looked_up >= all.intervals_looked_up / 6);
        // The exact embedded match still surfaces.
        assert_eq!(sampled.candidates[0].record, 0);
    }

    #[test]
    fn masking_suppresses_repeat_flood() {
        // Record 0 is a pure poly-A repeat; record 1 embeds the real
        // target. A query contaminated with poly-A floods unmasked
        // coarse search via record 0; masking removes the flood while
        // keeping the real match.
        let repeat_record = vec![b'A'; 400];
        let mut real = b"TGCCGTTGCA".to_vec();
        real.extend_from_slice(b"ACGTAGCTGGATCCTTACGGATCCAGGT");
        real.extend_from_slice(b"CCGGTTGGCC");
        let index = build(&[&repeat_record, &real], 8);

        let mut query_ascii = b"ACGTAGCTGGATCCTTACGGATCCAGGT".to_vec();
        query_ascii.extend(vec![b'A'; 120]); // contamination
        let query = bases(&query_ascii);

        let unmasked = coarse_rank(&index, &query, &params(RankingScheme::Count)).unwrap();
        assert!(
            unmasked.candidates.iter().any(|c| c.record == 0),
            "repeat record should flood the unmasked ranking"
        );

        let mut masked_params = params(RankingScheme::Count);
        masked_params.mask = Some(nucdb_seq::DustParams::default());
        let masked = coarse_rank(&index, &query, &masked_params).unwrap();
        assert!(masked.total_hits < unmasked.total_hits / 4);
        assert_eq!(
            masked.candidates[0].record, 1,
            "real target survives masking"
        );
        assert!(
            !masked.candidates.iter().any(|c| c.record == 0),
            "repeat record should vanish under masking"
        );
    }

    #[test]
    fn cost_counters_are_plausible() {
        let index = build(&[b"ACGTACGTACGTACGT", b"ACGTACGTACGTACGT"], 8);
        let query = bases(b"ACGTACGTACGT");
        let outcome = coarse_rank(&index, &query, &params(RankingScheme::Count)).unwrap();
        assert!(outcome.intervals_looked_up > 0);
        assert!(outcome.lists_fetched <= outcome.intervals_looked_up);
        assert!(outcome.total_hits >= outcome.postings_decoded);
    }

    /// Many records share a long common segment (multi-block lists), and
    /// one record additionally matches the query's unique half: under a
    /// high floor only that record can place.
    fn shared_segment_collection() -> (Vec<Vec<u8>>, Vec<Base>) {
        let common = b"ACGTAGCTAGCTGGATCCAATTGGCCAACC";
        let unique = b"TGCATGCATTGCAACGGTACCTTAGGCATC";
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut full = Vec::from(&common[..]);
        full.extend_from_slice(unique);
        records.push(full);
        for i in 0..400usize {
            let mut r = Vec::from(&common[..]);
            // Distinct tails so records differ, built from one base to
            // avoid accidentally sharing query intervals.
            r.extend(std::iter::repeat_n(b"GCTA"[i % 4], 8));
            records.push(r);
        }
        let mut query = Vec::from(&common[..]);
        query.extend_from_slice(unique);
        (records, bases(&query))
    }

    fn build_with(records: &[Vec<u8>], k: usize, codec: nucdb_index::ListCodec) -> CompressedIndex {
        let mut builder = IndexBuilder::new(IndexParams::new(k)).with_codec(codec);
        for r in records {
            builder.add_record(&bases(r));
        }
        builder.finish()
    }

    #[test]
    fn block_codec_ranks_identically_to_paper_codec() {
        use nucdb_index::ListCodec;
        let (records, query) = shared_segment_collection();
        let paper = build_with(&records, 8, ListCodec::Paper);
        let block = build_with(&records, 8, ListCodec::Block);
        for min_coarse_hits in [0, 1, 2, 16, 40, 80, 200] {
            let p = SearchParams {
                min_coarse_hits,
                max_candidates: 500,
                ..SearchParams::default()
            };
            let a = coarse_rank(&paper, &query, &p).unwrap();
            let b = coarse_rank(&block, &query, &p).unwrap();
            assert_eq!(a.candidates, b.candidates, "floor {min_coarse_hits}");
            // However high the floor, every block of every list is
            // decoded: the work is the paper codec's, posting for posting.
            assert_eq!(a.total_hits, b.total_hits, "floor {min_coarse_hits}");
            assert_eq!(a.postings_decoded, b.postings_decoded);
            assert_eq!(b.blocks_skipped, 0, "floor {min_coarse_hits}");
            assert!(b.postings_bytes_read > 0);
            assert!(b.candidates.iter().all(|c| c.hits >= min_coarse_hits));
            if min_coarse_hits == 40 {
                // Only record 0 (common + unique halves) clears this floor.
                assert!(b.candidates.iter().any(|c| c.record == 0));
            }
        }
    }

    #[test]
    fn scratch_reuse_across_codecs_and_floors_is_sound() {
        use nucdb_index::ListCodec;
        let (records, query) = shared_segment_collection();
        let paper = build_with(&records, 8, ListCodec::Paper);
        let block = build_with(&records, 8, ListCodec::Block);
        let mut scratch = CoarseScratch::new();
        // Interleave high and low floors through one scratch; stale
        // survivor bits must never add or drop a candidate.
        for min_coarse_hits in [40, 1, 80, 2, 40] {
            let p = SearchParams {
                min_coarse_hits,
                max_candidates: 500,
                ..SearchParams::default()
            };
            let fresh = coarse_rank(&block, &query, &p).unwrap();
            let reused = coarse_rank_with(&block, &query, &p, &mut scratch).unwrap();
            assert_eq!(
                fresh.candidates, reused.candidates,
                "floor {min_coarse_hits}"
            );
            let baseline = coarse_rank_with(&paper, &query, &p, &mut scratch).unwrap();
            assert_eq!(
                baseline.candidates, fresh.candidates,
                "floor {min_coarse_hits}"
            );
        }
    }

    /// A tie-heavy collection: records are short runs of a few shared
    /// motifs and noise, each kept one to three times, and sometimes one
    /// motif stored alone 130+ times so block-codec lists span two
    /// blocks. The query strings motifs
    /// together, so many records share hit counts and frame scores.
    fn tie_heavy_collection(seed: u64) -> (Vec<Vec<Base>>, Vec<Base>) {
        use rand::seq::SliceRandom;
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        fn noise(rng: &mut StdRng, len: usize) -> Vec<u8> {
            (0..len)
                .map(|_| b"ACGT"[rng.random_range(0..4usize)])
                .collect()
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let motifs: Vec<Vec<u8>> = (0..3)
            .map(|_| {
                let len = rng.random_range(16..40usize);
                noise(&mut rng, len)
            })
            .collect();
        let piece = |rng: &mut StdRng| -> Vec<u8> {
            if rng.random_bool(0.7) {
                motifs[rng.random_range(0..motifs.len())].clone()
            } else {
                let len = rng.random_range(3..20usize);
                noise(rng, len)
            }
        };
        let mut records = Vec::new();
        for _ in 0..rng.random_range(6..30usize) {
            let mut ascii = Vec::new();
            for _ in 0..rng.random_range(1..5usize) {
                ascii.extend(piece(&mut rng));
            }
            for _ in 0..rng.random_range(1..=3usize) {
                records.push(bases(&ascii));
            }
        }
        if rng.random_bool(0.4) {
            let copies = rng.random_range(130..160usize);
            let again = bases(&motifs[0]);
            records.extend(std::iter::repeat_n(again, copies));
        }
        records.shuffle(&mut rng);
        let mut query = Vec::new();
        for _ in 0..rng.random_range(2..5usize) {
            query.extend(piece(&mut rng));
        }
        (records, bases(&query))
    }

    /// The rank as it was before bounding, as the oracle: from the
    /// accumulated state a query left in `scratch`, score every touched
    /// record that clears the floor and sort them all (callers truncate).
    fn reference_rank(
        scratch: &CoarseScratch,
        record_lens: &[u32],
        p: &SearchParams,
    ) -> Vec<CoarseHit> {
        let floor = p.min_coarse_hits;
        let window = match p.ranking {
            RankingScheme::Frame { window } => window as i64,
            _ => 16,
        };
        let mut per_record: std::collections::HashMap<u32, Vec<i64>> = Default::default();
        for &(record, diagonal) in &scratch.hits {
            per_record.entry(record).or_default().push(diagonal);
        }
        let mut all = Vec::new();
        for &record in &scratch.touched {
            let hits = scratch.counts[record as usize];
            if hits < floor {
                continue;
            }
            let diags = per_record.get_mut(&record).unwrap();
            diags.sort_unstable();
            // The widest window, leftmost among equals.
            let (mut width, mut start) = (0usize, 0usize);
            for lo in 0..diags.len() {
                let n = diags[lo..]
                    .iter()
                    .take_while(|&&d| d - diags[lo] <= window)
                    .count();
                if n > width {
                    (width, start) = (n, lo);
                }
            }
            let (frame_hits, best_diagonal) = (width as u32, diags[start + width / 2]);
            let score = match p.ranking {
                RankingScheme::Count => hits as f64,
                RankingScheme::Proportional => {
                    hits as f64 / record_lens[record as usize].max(1) as f64
                }
                RankingScheme::Frame { .. } => frame_hits as f64,
            };
            all.push(CoarseHit {
                record,
                score,
                hits,
                frame_hits,
                best_diagonal,
            });
        }
        all.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.record.cmp(&b.record))
        });
        all
    }

    /// The outcome's deterministic work counters.
    fn work(o: &CoarseOutcome) -> [u64; 6] {
        [
            o.intervals_looked_up,
            o.lists_fetched,
            o.postings_decoded,
            o.postings_bytes_read,
            o.blocks_decoded,
            o.total_hits,
        ]
    }

    proptest::proptest! {
        // Eight collections in the debug suite; the release run
        // (scripts/verify.sh) walks eight times as many.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 8 } else { 64 }
        ))]

        // The bounded walk, the floor-aware scatter and select + sort
        // return exactly the full ranking's candidates, for every scheme,
        // floor, cutoff and codec, through fresh and reused
        // scratch — and the rank never touches a work counter.
        #[test]
        fn bounded_rank_matches_the_full_ranking(seed in proptest::prelude::any::<u64>()) {
            use nucdb_index::ListCodec;
            let (records, query) = tie_heavy_collection(seed);
            let mut reused = CoarseScratch::new();
            let frame = RankingScheme::Frame { window: [4, 16][seed as usize % 2] };
            let rankings = [frame, RankingScheme::Count, RankingScheme::Proportional];
            for codec in [ListCodec::Paper, ListCodec::Block] {
                let mut builder = IndexBuilder::new(IndexParams::new(6)).with_codec(codec);
                for r in &records {
                    builder.add_record(r);
                }
                let index = builder.finish();
                // Floors across 0..=N, N the largest hit count.
                let open = SearchParams {
                    ranking: RankingScheme::Count,
                    min_coarse_hits: 0,
                    max_candidates: usize::MAX,
                    ..SearchParams::default()
                };
                let mut probe = CoarseScratch::new();
                coarse_rank_with(&index, &query, &open, &mut probe).unwrap();
                let n = probe.touched.iter().map(|&r| probe.counts[r as usize]).max();
                let n = n.unwrap_or(0);
                let mut floors = vec![0, 1, 2, n / 2, n, n + 1];
                floors.sort_unstable();
                floors.dedup();
                for floor in floors {
                    let mut floor_work = None;
                    for ranking in rankings {
                        let mut full: Option<Vec<CoarseHit>> = None;
                        // usize::MAX first: its run's state feeds the oracle.
                        for max_candidates in [usize::MAX, 0, 1, 2, 7, 30] {
                            let p = SearchParams {
                                ranking,
                                min_coarse_hits: floor,
                                max_candidates,
                                ..open
                            };
                            let mut fresh = CoarseScratch::new();
                            let a = coarse_rank_with(&index, &query, &p, &mut fresh).unwrap();
                            let b = coarse_rank_with(&index, &query, &p, &mut reused).unwrap();
                            let full = full.get_or_insert_with(|| {
                                reference_rank(&fresh, index.record_lens(), &p)
                            });
                            let expected = &full[..full.len().min(max_candidates)];
                            let case = format!("{codec:?} floor {floor} {ranking:?} C {max_candidates}");
                            proptest::prop_assert_eq!(&a.candidates[..], expected, "{}", case);
                            proptest::prop_assert_eq!(&b.candidates[..], expected, "{}", case);
                            let w = *floor_work.get_or_insert(work(&a));
                            proptest::prop_assert_eq!(work(&a), w, "{}", case);
                            proptest::prop_assert_eq!(work(&b), w, "{}", case);
                            let summed: u64 =
                                fresh.touched.iter().map(|&r| fresh.counts[r as usize] as u64).sum();
                            proptest::prop_assert_eq!(a.total_hits, summed, "{}", case);
                        }
                    }
                }
            }
        }
    }

    /// The single-pass accumulate the two passes replaced, kept as their
    /// oracle: every posting's offsets decoded during the fetch and every
    /// hit pushed, below the floor or not.
    struct HitAccumulator<'a> {
        generation: u32,
        qrun: &'a [(u64, u32)],
        stamp: &'a mut [u32],
        counts: &'a mut [u32],
        slot: &'a mut [u32],
        touched: &'a mut Vec<u32>,
        hits: &'a mut Vec<(u32, i64)>,
    }

    impl PostingsVisitor for HitAccumulator<'_> {
        fn visit(&mut self, record: u32, offset: u32) {
            let r = record as usize;
            if self.stamp[r] != self.generation {
                self.stamp[r] = self.generation;
                self.counts[r] = 0;
                self.slot[r] = self.touched.len() as u32;
                self.touched.push(record);
            }
            self.counts[r] += self.qrun.len() as u32;
            for &(_, qpos) in self.qrun {
                self.hits.push((record, offset as i64 - qpos as i64));
            }
        }
    }

    /// Coarse search with the single-pass accumulate above and the shared
    /// rank.
    fn single_pass<S: PostingsSource>(
        index: &S,
        query: &[Base],
        p: &SearchParams,
        scratch: &mut CoarseScratch,
    ) -> Result<CoarseOutcome, IndexError> {
        let mut outcome = CoarseOutcome::default();
        extract_codes(index.index_params(), query, p, scratch, &mut outcome);
        if scratch.codes.is_empty() || index.num_records() == 0 {
            return Ok(outcome);
        }
        scratch.begin(index.num_records() as usize);
        let CoarseScratch {
            generation,
            stamp,
            counts,
            slot,
            touched,
            hits,
            codes,
            ..
        } = &mut *scratch;
        let mut io_buf = Vec::new();
        let mut run_start = 0usize;
        while run_start < codes.len() {
            let code = codes[run_start].0;
            let mut run_end = run_start;
            while run_end < codes.len() && codes[run_end].0 == code {
                run_end += 1;
            }
            let mut acc = HitAccumulator {
                generation: *generation,
                qrun: &codes[run_start..run_end],
                stamp: stamp.as_mut_slice(),
                counts: counts.as_mut_slice(),
                slot: slot.as_mut_slice(),
                touched: &mut *touched,
                hits: &mut *hits,
            };
            run_start = run_end;
            if let Some(stats) = index.fetch_stream(code, &mut io_buf, &mut acc)? {
                outcome.lists_fetched += 1;
                outcome.postings_decoded += stats.ids_decoded;
                outcome.postings_bytes_read += stats.bytes_read;
                outcome.blocks_decoded += stats.blocks_decoded as u64;
            }
        }
        outcome.total_hits = hits.len() as u64;
        if !hits.is_empty() {
            rank_offsets(index, p, scratch, &mut outcome, None);
        }
        Ok(outcome)
    }

    /// The tie-heavy collection as a built index, an opened index and a
    /// segmented index of one built part and one opened part, all one
    /// codec. Returns the sources and the files to delete.
    fn three_sources(
        records: &[Vec<Base>],
        codec: nucdb_index::ListCodec,
        tag: &str,
    ) -> (Vec<crate::IndexVariant>, Vec<std::path::PathBuf>) {
        use crate::segment::SegmentedIndex;
        use std::sync::Arc;
        let build = |records: &[Vec<Base>]| {
            let mut builder = IndexBuilder::new(IndexParams::new(6)).with_codec(codec);
            for r in records {
                builder.add_record(r);
            }
            builder.finish()
        };
        let dir = std::env::temp_dir();
        let file = |part: &str| {
            let name = format!(
                "nucdb_coarse_{}_{tag}_{codec:?}_{part}.nucidx",
                std::process::id()
            );
            dir.join(name)
        };
        let joint = build(records);
        let (whole, tail) = (file("whole"), file("tail"));
        nucdb_index::write_index(&joint, &whole).unwrap();
        let split = records.len() / 2;
        nucdb_index::write_index(&build(&records[split..]), &tail).unwrap();
        let segmented = SegmentedIndex::new(vec![
            ("memtable".to_string(), Arc::new(build(&records[..split]))),
            (
                "seg-000001".to_string(),
                Arc::new(CompressedIndex::open(&tail).unwrap()),
            ),
        ])
        .unwrap();
        let sources = vec![
            crate::IndexVariant::Disk(joint),
            crate::IndexVariant::Disk(CompressedIndex::open(&whole).unwrap()),
            crate::IndexVariant::Segmented(segmented),
        ];
        (sources, vec![whole, tail])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 4 } else { 48 }
        ))]

        // Counting first and decoding offsets only for records that clear
        // the floor returns the single-pass candidates and every work
        // counter, on every source and codec, under every floor, stride
        // and cutoff, through fresh and reused scratch. On block
        // lists the hit arena holds exactly the survivors' hits.
        #[test]
        fn two_pass_accumulate_matches_the_single_pass_oracle(seed in proptest::prelude::any::<u64>()) {
            use nucdb_index::ListCodec;
            let (records, query) = tie_heavy_collection(seed);
            let ranking = [
                RankingScheme::Frame { window: 8 },
                RankingScheme::Count,
                RankingScheme::Proportional,
            ][seed as usize % 3];
            let mut reused = CoarseScratch::new();
            for codec in [ListCodec::Paper, ListCodec::Block] {
                let (sources, files) = three_sources(&records, codec, &seed.to_string());
                for (s, source) in sources.iter().enumerate() {
                    let open = SearchParams {
                        ranking,
                        min_coarse_hits: 0,
                        max_candidates: usize::MAX,
                        ..SearchParams::default()
                    };
                    let mut probe = CoarseScratch::new();
                    coarse_rank_with(source, &query, &open, &mut probe).unwrap();
                    let n = probe.touched.iter().map(|&r| probe.counts[r as usize]).max();
                    let n = n.unwrap_or(0);
                    for floor in [0, 1, 2, n / 2, n, n + 1] {
                        for query_stride in [1, 3] {
                            for max_candidates in [0, 1, 30] {
                                let p = SearchParams {
                                    min_coarse_hits: floor,
                                    query_stride,
                                    max_candidates,
                                    ..open
                                };
                                let case = format!(
                                    "{codec:?} source {s} floor {floor} stride {query_stride} C {max_candidates}"
                                );
                                let oracle = single_pass(source, &query, &p, &mut CoarseScratch::new()).unwrap();
                                let mut fresh = CoarseScratch::new();
                                let a = coarse_rank_with(source, &query, &p, &mut fresh).unwrap();
                                let b = coarse_rank_with(source, &query, &p, &mut reused).unwrap();
                                proptest::prop_assert_eq!(&a.candidates, &oracle.candidates, "{}", case);
                                proptest::prop_assert_eq!(&b.candidates, &oracle.candidates, "{}", case);
                                proptest::prop_assert_eq!(work(&a), work(&oracle), "{}", case);
                                proptest::prop_assert_eq!(work(&b), work(&oracle), "{}", case);
                                if codec == ListCodec::Block {
                                    let survivor_hits: u64 = fresh
                                        .touched
                                        .iter()
                                        .map(|&r| fresh.counts[r as usize])
                                        .filter(|&hits| hits >= floor)
                                        .map(u64::from)
                                        .sum();
                                    proptest::prop_assert_eq!(fresh.hits.len() as u64, survivor_hits, "{}", case);
                                }
                            }
                        }
                    }
                }
                drop(sources);
                for file in files {
                    let _ = std::fs::remove_file(file);
                }
            }
        }
    }

    #[test]
    fn counts_saturate_instead_of_overflowing() {
        // count × qlen = 70 000² > u32::MAX, as a 70 kb poly-A query
        // against a 70 kb poly-A record makes.
        let qrun: Vec<(u64, u32)> = (0..70_000).map(|qpos| (0, qpos)).collect();
        let (mut stamp, mut counts, mut slot) = (vec![0u32; 2], vec![0u32; 2], vec![0u32; 2]);
        let (mut touched, mut hits, mut kept, mut blocks) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut acc = Accumulator {
            generation: 1,
            qrun: &qrun,
            run: (0, qrun.len() as u32),
            total_hits: 0,
            stamp: &mut stamp,
            counts: &mut counts,
            slot: &mut slot,
            touched: &mut touched,
            hits: &mut hits,
            kept: &mut kept,
            blocks: &mut blocks,
        };
        acc.add(&[0, 1], &[70_000, 1]);
        acc.visit(0, 1);
        assert_eq!(acc.total_hits, 70_000 * 70_000 + 70_000 * 2);
        assert_eq!(counts, [u32::MAX, 70_000]);
        assert_eq!(touched, [0, 1]);
    }

    #[test]
    fn work_counters_report_block_decode_activity() {
        use nucdb_index::ListCodec;
        let (records, query) = shared_segment_collection();
        let paper = build_with(&records, 8, ListCodec::Paper);
        let block = build_with(&records, 8, ListCodec::Block);
        let p = SearchParams {
            min_coarse_hits: 1,
            max_candidates: 500,
            ..SearchParams::default()
        };
        let a = coarse_rank(&paper, &query, &p).unwrap();
        let b = coarse_rank(&block, &query, &p).unwrap();
        // Every posting decoded on both sides.
        assert_eq!(b.blocks_skipped, 0);
        assert!(b.blocks_decoded > 0);
        assert_eq!(a.postings_decoded, b.postings_decoded);
        assert!(a.postings_bytes_read > 0 && b.postings_bytes_read > 0);
        assert_eq!(a.blocks_decoded, 0);
    }
}
