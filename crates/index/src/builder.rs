//! Index construction.
//!
//! Three build paths, all producing the same [`CompressedIndex`]:
//!
//! * [`IndexBuilder`] — single-pass, in-memory: extract intervals record
//!   by record into per-interval postings, then sort, stop, and encode.
//! * [`build_chunked`] — the external build: the collection is processed
//!   in bounded-memory chunks, each chunk's postings are spilled to a
//!   sorted *run* file, and the runs are merged into the final index.
//!   Because chunks partition records in ascending id order, same-interval
//!   lists from successive runs concatenate without re-sorting. This is
//!   the build the paper's setting requires (the collection does not fit
//!   in memory).
//! * [`build_parallel`] — chunk building fanned out across scoped
//!   threads, merged in memory; equivalent output, faster wall-clock.

use std::collections::HashMap;
use std::fs::File;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use nucdb_seq::Base;

use crate::compress::{CompressedIndex, ListCodec};
use crate::error::IndexError;
use crate::interval::IndexParams;
use crate::postings::{PostingsList, RawPostings};

/// Multiplicative hasher for interval codes (trusted integer keys; the
/// default SipHash costs more than the table probe it guards).
#[derive(Default)]
pub struct CodeHasher {
    state: u64,
}

impl Hasher for CodeHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = self.state.rotate_left(8) ^ b as u64;
        }
        self.state = self.state.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u64(&mut self, value: u64) {
        self.state = value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type PostingsMap = HashMap<u64, RawPostings, BuildHasherDefault<CodeHasher>>;

/// Incremental in-memory index builder.
pub struct IndexBuilder {
    params: IndexParams,
    codec: ListCodec,
    record_lens: Vec<u32>,
    postings: PostingsMap,
}

impl IndexBuilder {
    /// Start a build with the given parameters and the paper's codec.
    pub fn new(params: IndexParams) -> IndexBuilder {
        IndexBuilder {
            params,
            codec: ListCodec::Paper,
            record_lens: Vec::new(),
            postings: PostingsMap::default(),
        }
    }

    /// Use a different postings codec (experiment E5).
    pub fn with_codec(mut self, codec: ListCodec) -> IndexBuilder {
        self.codec = codec;
        self
    }

    /// Add the next record; returns its id. Records receive consecutive
    /// ids in insertion order.
    pub fn add_record(&mut self, bases: &[Base]) -> u32 {
        let id = self.record_lens.len() as u32;
        self.record_lens.push(bases.len() as u32);
        for (offset, code) in self.params.extract(bases) {
            self.postings.entry(code).or_default().push(id, offset);
        }
        id
    }

    /// Number of records added so far.
    pub fn records_added(&self) -> u32 {
        self.record_lens.len() as u32
    }

    /// Finish: apply stopping, sort, compress.
    pub fn finish(self) -> CompressedIndex {
        let num_records = self.record_lens.len() as u32;
        let df_limit = match &self.params.stopping {
            Some(policy) => {
                policy.df_limit(num_records, self.postings.values().map(|p| p.df() as u32))
            }
            None => u32::MAX,
        };
        let mut lists: Vec<(u64, RawPostings)> = self
            .postings
            .into_iter()
            .filter(|(_, raw)| raw.df() as u32 <= df_limit)
            .collect();
        lists.sort_unstable_by_key(|&(code, _)| code);
        CompressedIndex::from_sorted_lists(
            self.params,
            self.codec,
            self.record_lens,
            lists.into_iter().map(|(code, raw)| (code, raw.into_list())),
        )
    }
}

// ---------------------------------------------------------------------------
// Run files: the external build's spill format.
// ---------------------------------------------------------------------------

fn write_vu64(out: &mut impl Write, mut value: u64) -> std::io::Result<()> {
    while value >= 0x80 {
        out.write_all(&[(value as u8 & 0x7f) | 0x80])?;
        value >>= 7;
    }
    out.write_all(&[value as u8])
}

fn read_vu64(input: &mut impl Read) -> Result<Option<u64>, IndexError> {
    let mut value = 0u64;
    let mut byte = [0u8; 1];
    for group in 0..10u32 {
        match input.read(&mut byte)? {
            0 if group == 0 => return Ok(None), // clean EOF at a boundary
            0 => {
                return Err(IndexError::bad_in(
                    "run file truncated mid-value",
                    "run-file",
                ))
            }
            _ => {}
        }
        value |= ((byte[0] & 0x7f) as u64) << (7 * group);
        if byte[0] & 0x80 == 0 {
            return Ok(Some(value));
        }
    }
    Err(IndexError::bad_in("run file varint too long", "run-file"))
}

/// Spill one chunk's postings to a sorted run file.
///
/// Format, per distinct code in ascending order:
/// `code_gap+1 | n_pairs | (record_gap, offset_or_gap)*` — record gaps are
/// from the previous pair (0 means same record, whose offsets are then
/// gap-coded; a new record's first offset is absolute).
fn spill_run(path: &Path, postings: PostingsMap) -> Result<(), IndexError> {
    let mut lists: Vec<(u64, RawPostings)> = postings.into_iter().collect();
    lists.sort_unstable_by_key(|&(code, _)| code);

    let mut out = BufWriter::new(File::create(path)?);
    let mut prev_code = 0u64;
    for (code, raw) in lists {
        write_vu64(&mut out, code - prev_code + 1)?;
        prev_code = code;
        write_vu64(&mut out, raw.len() as u64)?;
        let mut prev_record = 0u32;
        let mut prev_offset = 0u32;
        for &(record, offset) in raw.pairs() {
            let record_gap = record - prev_record;
            write_vu64(&mut out, record_gap as u64)?;
            // A record's first offset is stored absolutely; later offsets
            // of the same record as gaps from the previous one.
            let stored = if record_gap == 0 {
                offset - prev_offset
            } else {
                offset
            };
            write_vu64(&mut out, stored as u64)?;
            prev_offset = offset;
            prev_record = record;
        }
        // Group terminator is implicit via n_pairs.
    }
    out.flush()?;
    Ok(())
}

/// One decoded run-file group: an interval code and its sorted
/// `(record, offset)` pairs.
type RunGroup = (u64, Vec<(u32, u32)>);

/// Streaming reader over one run file: yields [`RunGroup`]s in ascending
/// code order.
struct RunReader {
    input: BufReader<File>,
    /// The group already decoded and waiting to be consumed.
    pending: Option<RunGroup>,
    prev_code: u64,
}

impl RunReader {
    fn open(path: &Path) -> Result<RunReader, IndexError> {
        let mut reader = RunReader {
            input: BufReader::new(File::open(path)?),
            pending: None,
            prev_code: 0,
        };
        reader.advance()?;
        Ok(reader)
    }

    /// Decode the next group into `pending` (None at EOF).
    fn advance(&mut self) -> Result<(), IndexError> {
        let Some(code_gap) = read_vu64(&mut self.input)? else {
            self.pending = None;
            return Ok(());
        };
        if code_gap == 0 {
            return Err(IndexError::bad_in("zero code gap in run file", "run-file"));
        }
        let overflow = || IndexError::bad_in("run file value overflow", "run-file");
        let code = self
            .prev_code
            .checked_add(code_gap - 1)
            .ok_or_else(overflow)?;
        self.prev_code = code;
        let n = read_vu64(&mut self.input)?.ok_or(IndexError::bad_in(
            "run file truncated at pair count",
            "run-file",
        ))? as usize;
        let mut pairs = Vec::with_capacity(n);
        let mut prev_record = 0u32;
        let mut prev_offset = 0u32;
        let mut first_of_record = true;
        for _ in 0..n {
            let record_gap = read_vu64(&mut self.input)?.ok_or(IndexError::bad_in(
                "run file truncated at record gap",
                "run-file",
            ))?;
            let stored = read_vu64(&mut self.input)?.ok_or(IndexError::bad_in(
                "run file truncated at offset",
                "run-file",
            ))?;
            let stored = u32::try_from(stored).map_err(|_| overflow())?;
            let record = u32::try_from(record_gap)
                .ok()
                .and_then(|gap| prev_record.checked_add(gap))
                .ok_or_else(overflow)?;
            if record_gap > 0 {
                first_of_record = true;
            }
            let offset = if first_of_record || prev_offset == 0 {
                stored
            } else {
                prev_offset.checked_add(stored).ok_or_else(overflow)?
            };
            pairs.push((record, offset));
            prev_record = record;
            prev_offset = offset;
            first_of_record = false;
        }
        self.pending = Some((code, pairs));
        Ok(())
    }

    fn peek_code(&self) -> Option<u64> {
        self.pending.as_ref().map(|&(code, _)| code)
    }

    fn take(&mut self) -> Result<Option<RunGroup>, IndexError> {
        let group = self.pending.take();
        if group.is_some() {
            self.advance()?;
        }
        Ok(group)
    }
}

/// External (bounded-memory) index build.
///
/// Records are consumed from `records` in id order; every `chunk_records`
/// records the accumulated postings are spilled to a run file under
/// `spill_dir`, and at the end the runs are merged into the final
/// compressed index. Run files are deleted afterwards.
pub fn build_chunked<I, B>(
    params: IndexParams,
    codec: ListCodec,
    records: I,
    chunk_records: usize,
    spill_dir: &Path,
) -> Result<CompressedIndex, IndexError>
where
    I: IntoIterator<Item = B>,
    B: AsRef<[Base]>,
{
    assert!(chunk_records >= 1, "chunk size must be positive");
    std::fs::create_dir_all(spill_dir)?;

    let mut record_lens: Vec<u32> = Vec::new();
    let mut chunk = PostingsMap::default();
    let mut run_paths: Vec<PathBuf> = Vec::new();
    let mut in_chunk = 0usize;

    let spill = |chunk: PostingsMap, runs: &mut Vec<PathBuf>| -> Result<(), IndexError> {
        let path = spill_dir.join(format!("run{:05}.nucrun", runs.len()));
        spill_run(&path, chunk)?;
        runs.push(path);
        Ok(())
    };

    for record in records {
        let bases = record.as_ref();
        let id = record_lens.len() as u32;
        record_lens.push(bases.len() as u32);
        for (offset, code) in params.extract(bases) {
            chunk.entry(code).or_default().push(id, offset);
        }
        in_chunk += 1;
        if in_chunk >= chunk_records {
            spill(std::mem::take(&mut chunk), &mut run_paths)?;
            in_chunk = 0;
        }
    }
    if !chunk.is_empty() || run_paths.is_empty() {
        spill(chunk, &mut run_paths)?;
    }

    let index = merge_runs(params, codec, record_lens, &run_paths)?;
    for path in &run_paths {
        let _ = std::fs::remove_file(path);
    }
    Ok(index)
}

/// Merge sorted run files into a compressed index. Runs are in record-id
/// order, so equal-code groups concatenate run-by-run.
fn merge_runs(
    params: IndexParams,
    codec: ListCodec,
    record_lens: Vec<u32>,
    run_paths: &[PathBuf],
) -> Result<CompressedIndex, IndexError> {
    let mut readers: Vec<RunReader> = run_paths
        .iter()
        .map(|p| RunReader::open(p))
        .collect::<Result<_, _>>()?;

    let num_records = record_lens.len() as u32;

    // First pass cannot know dfs without reading everything, so the
    // merge materialises lists one code at a time and filters by the
    // stopping limit afterwards. For TopK stopping the dfs of *all* codes
    // are needed first; collect them cheaply in that case.
    let df_limit = match &params.stopping {
        Some(crate::stopping::StopPolicy::TopK(_)) => {
            let mut dfs: HashMap<u64, u32, BuildHasherDefault<CodeHasher>> = HashMap::default();
            for path in run_paths {
                let mut r = RunReader::open(path)?;
                while let Some((code, pairs)) = r.take()? {
                    let mut df = 0u32;
                    let mut prev = None;
                    for &(record, _) in &pairs {
                        if prev != Some(record) {
                            df += 1;
                            prev = Some(record);
                        }
                    }
                    *dfs.entry(code).or_insert(0) += df;
                }
            }
            params
                .stopping
                .as_ref()
                .unwrap()
                .df_limit(num_records, dfs.values().copied())
        }
        Some(policy) => policy.df_limit(num_records, std::iter::empty()),
        None => u32::MAX,
    };

    let mut lists: Vec<(u64, PostingsList)> = Vec::new();
    while let Some(code) = readers.iter().filter_map(RunReader::peek_code).min() {
        let mut raw = RawPostings::default();
        for reader in &mut readers {
            if reader.peek_code() == Some(code) {
                let (_, pairs) = reader.take()?.expect("peeked group exists");
                for (record, offset) in pairs {
                    raw.push(record, offset);
                }
            }
        }
        let list = raw.into_list();
        if list.df() as u32 <= df_limit {
            lists.push((code, list));
        }
    }

    Ok(CompressedIndex::from_sorted_lists(
        params,
        codec,
        record_lens,
        lists.into_iter(),
    ))
}

/// Parallel in-memory build: records are split into `num_threads`
/// contiguous slices, each built on its own thread, and the per-thread
/// sorted lists merged (slice order is record order, so equal-code lists
/// concatenate).
pub fn build_parallel(
    params: IndexParams,
    codec: ListCodec,
    records: &[Vec<Base>],
    num_threads: usize,
) -> CompressedIndex {
    let num_threads = num_threads.max(1).min(records.len().max(1));
    let slice_len = records.len().div_ceil(num_threads);

    let mut partials: Vec<Vec<(u64, RawPostings)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, slice) in records.chunks(slice_len.max(1)).enumerate() {
            let params = &params;
            handles.push(scope.spawn(move || {
                let base_id = (t * slice_len) as u32;
                let mut map = PostingsMap::default();
                for (i, record) in slice.iter().enumerate() {
                    let id = base_id + i as u32;
                    for (offset, code) in params.extract(record) {
                        map.entry(code).or_default().push(id, offset);
                    }
                }
                let mut lists: Vec<(u64, RawPostings)> = map.into_iter().collect();
                lists.sort_unstable_by_key(|&(code, _)| code);
                lists
            }));
        }
        for handle in handles {
            partials.push(handle.join().expect("index build thread panicked"));
        }
    });

    let record_lens: Vec<u32> = records.iter().map(|r| r.len() as u32).collect();
    let num_records = record_lens.len() as u32;

    // Merge the per-thread sorted list vectors.
    let mut cursors = vec![0usize; partials.len()];
    let mut merged: Vec<(u64, PostingsList)> = Vec::new();
    loop {
        let mut next_code: Option<u64> = None;
        for (t, part) in partials.iter().enumerate() {
            if let Some(&(code, _)) = part.get(cursors[t]) {
                next_code = Some(next_code.map_or(code, |c: u64| c.min(code)));
            }
        }
        let Some(code) = next_code else { break };
        let mut raw = RawPostings::default();
        for (t, part) in partials.iter().enumerate() {
            if let Some((c, partial)) = part.get(cursors[t]) {
                if *c == code {
                    for &(record, offset) in partial.pairs() {
                        raw.push(record, offset);
                    }
                    cursors[t] += 1;
                }
            }
        }
        merged.push((code, raw.into_list()));
    }

    // Apply stopping exactly as the in-memory builder does.
    let df_limit = match &params.stopping {
        Some(policy) => policy.df_limit(num_records, merged.iter().map(|(_, l)| l.df() as u32)),
        None => u32::MAX,
    };
    merged.retain(|(_, list)| list.df() as u32 <= df_limit);

    CompressedIndex::from_sorted_lists(params, codec, record_lens, merged.into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stopping::StopPolicy;
    use nucdb_seq::random::{random_seq, CollectionSpec, SyntheticCollection};
    use nucdb_seq::{pack_kmer, DnaSeq};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bases(ascii: &[u8]) -> Vec<Base> {
        DnaSeq::from_ascii(ascii).unwrap().representative_bases()
    }

    fn tiny_records() -> Vec<Vec<Base>> {
        vec![
            bases(b"ACGTACGT"),
            bases(b"TTTTACGT"),
            bases(b"GGGGGGGG"),
            bases(b"ACGTTTTT"),
        ]
    }

    #[test]
    fn in_memory_build_and_lookup() {
        let mut builder = IndexBuilder::new(IndexParams::new(4));
        for r in tiny_records() {
            builder.add_record(&r);
        }
        assert_eq!(builder.records_added(), 4);
        let index = builder.finish();
        assert_eq!(index.num_records(), 4);

        let acgt = pack_kmer(&bases(b"ACGT"));
        let list = index.postings(acgt).unwrap().unwrap();
        // ACGT occurs in records 0 (offsets 0 and 4), 1 (offset 4), 3 (offset 0).
        assert_eq!(list.df(), 3);
        assert_eq!(list.entries[0].record, 0);
        assert_eq!(list.entries[0].offsets, vec![0, 4]);
        assert_eq!(list.entries[1].record, 1);
        assert_eq!(list.entries[1].offsets, vec![4]);
        assert_eq!(list.entries[2].record, 3);
        assert_eq!(list.entries[2].offsets, vec![0]);

        let gggg = pack_kmer(&bases(b"GGGG"));
        let list = index.postings(gggg).unwrap().unwrap();
        assert_eq!(list.df(), 1);
        assert_eq!(list.entries[0].offsets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_extracted_interval_is_findable() {
        // Lookup completeness: every interval of every record appears in
        // the index at its position.
        let mut rng = StdRng::seed_from_u64(3);
        let records: Vec<Vec<Base>> = (0..20)
            .map(|_| {
                DnaSeq::from_codes(random_seq(&mut rng, 200, 0.5, 0.0).codes().to_vec())
                    .representative_bases()
            })
            .collect();
        let params = IndexParams::new(8);
        let mut builder = IndexBuilder::new(params.clone());
        for r in &records {
            builder.add_record(r);
        }
        let index = builder.finish();
        for (id, record) in records.iter().enumerate() {
            for (offset, code) in params.extract(record) {
                let list = index
                    .postings(code)
                    .unwrap()
                    .unwrap_or_else(|| panic!("interval {code} of record {id} missing from index"));
                let entry = list
                    .entries
                    .iter()
                    .find(|p| p.record == id as u32)
                    .unwrap_or_else(|| panic!("record {id} missing from list {code}"));
                assert!(
                    entry.offsets.contains(&offset),
                    "offset {offset} missing for record {id}, interval {code}"
                );
            }
        }
    }

    #[test]
    fn stopping_drops_frequent_intervals() {
        // AAAA occurs in every record; with DfFraction(0.5) it must go.
        let records: Vec<Vec<Base>> = (0..4)
            .map(|i| {
                let mut r = bases(b"AAAAAA");
                r.extend_from_slice(&bases(match i {
                    0 => &b"CGCGT"[..],
                    1 => b"GTGTA",
                    2 => b"TCTCG",
                    _ => b"GACAC",
                }));
                r
            })
            .collect();
        let params = IndexParams::new(4).with_stopping(StopPolicy::DfFraction(0.5));
        let mut builder = IndexBuilder::new(params);
        for r in &records {
            builder.add_record(r);
        }
        let index = builder.finish();
        let aaaa = pack_kmer(&bases(b"AAAA"));
        assert!(
            index.postings(aaaa).unwrap().is_none(),
            "AAAA should be stopped"
        );
        // Rare intervals survive.
        let cgcg = pack_kmer(&bases(b"CGCG"));
        assert!(index.postings(cgcg).unwrap().is_some());
    }

    #[test]
    fn chunked_build_equals_in_memory() {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(21));
        let records: Vec<Vec<Base>> = coll
            .records
            .iter()
            .map(|r| r.seq.representative_bases())
            .collect();

        let params = IndexParams::new(6);
        let mut builder = IndexBuilder::new(params.clone());
        for r in &records {
            builder.add_record(r);
        }
        let reference = builder.finish();

        let dir = std::env::temp_dir().join(format!("nucdb_chunk_test_{}", std::process::id()));
        let chunked = build_chunked(
            params,
            ListCodec::Paper,
            records.iter().map(|r| r.as_slice()),
            7,
            &dir,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(chunked.num_records(), reference.num_records());
        assert_eq!(chunked.distinct_intervals(), reference.distinct_intervals());
        assert_eq!(
            chunked.decode_all().unwrap(),
            reference.decode_all().unwrap()
        );
        // Identical lists must compress to identical blobs.
        assert_eq!(chunked.blob(), reference.blob());
    }

    #[test]
    fn chunked_build_with_stopping_matches() {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(22));
        let records: Vec<Vec<Base>> = coll
            .records
            .iter()
            .map(|r| r.seq.representative_bases())
            .collect();
        let params = IndexParams::new(4).with_stopping(StopPolicy::DfAbsolute(5));

        let mut builder = IndexBuilder::new(params.clone());
        for r in &records {
            builder.add_record(r);
        }
        let reference = builder.finish();

        let dir = std::env::temp_dir().join(format!("nucdb_chunk_stop_{}", std::process::id()));
        let chunked = build_chunked(
            params,
            ListCodec::Paper,
            records.iter().map(|r| r.as_slice()),
            5,
            &dir,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            chunked.decode_all().unwrap(),
            reference.decode_all().unwrap()
        );
    }

    #[test]
    fn parallel_build_equals_in_memory() {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(23));
        let records: Vec<Vec<Base>> = coll
            .records
            .iter()
            .map(|r| r.seq.representative_bases())
            .collect();
        let params = IndexParams::new(6);

        let mut builder = IndexBuilder::new(params.clone());
        for r in &records {
            builder.add_record(r);
        }
        let reference = builder.finish();

        for threads in [1, 2, 4, 7] {
            let parallel = build_parallel(params.clone(), ListCodec::Paper, &records, threads);
            assert_eq!(
                parallel.decode_all().unwrap(),
                reference.decode_all().unwrap(),
                "threads = {threads}"
            );
            assert_eq!(parallel.blob(), reference.blob(), "threads = {threads}");
        }
    }

    #[test]
    fn empty_collection_builds_empty_index() {
        let builder = IndexBuilder::new(IndexParams::new(8));
        let index = builder.finish();
        assert_eq!(index.num_records(), 0);
        assert_eq!(index.distinct_intervals(), 0);
        assert!(index.postings(0).unwrap().is_none());
    }

    #[test]
    fn chunked_build_of_empty_collection() {
        let dir = std::env::temp_dir().join(format!("nucdb_chunk_empty_{}", std::process::id()));
        let index = build_chunked(
            IndexParams::new(8),
            ListCodec::Paper,
            std::iter::empty::<Vec<Base>>(),
            4,
            &dir,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(index.num_records(), 0);
        assert_eq!(index.distinct_intervals(), 0);
    }

    #[test]
    fn run_file_round_trip() {
        // Exercise the spill format directly with awkward values:
        // offset 0 first occurrences, repeated records, code gaps of 1.
        let mut map = PostingsMap::default();
        for (code, rec, off) in [
            (5u64, 0u32, 0u32),
            (5, 0, 1),
            (5, 2, 0),
            (6, 1, 7),
            (100, 0, 0),
            (100, 0, 3),
            (100, 0, 4),
            (100, 3, 9),
        ] {
            map.entry(code).or_default().push(rec, off);
        }
        let path = std::env::temp_dir().join(format!("nucdb_run_rt_{}.run", std::process::id()));
        spill_run(&path, map).unwrap();
        let mut reader = RunReader::open(&path).unwrap();
        let mut groups = Vec::new();
        while let Some(g) = reader.take().unwrap() {
            groups.push(g);
        }
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            groups,
            vec![
                (5u64, vec![(0u32, 0u32), (0, 1), (2, 0)]),
                (6, vec![(1, 7)]),
                (100, vec![(0, 0), (0, 3), (0, 4), (3, 9)]),
            ]
        );
    }
}
