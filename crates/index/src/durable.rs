//! Durability primitives shared by the on-disk formats.
//!
//! Three small, dependency-free building blocks:
//!
//! - [`Crc32`] / [`crc32`]: the standard IEEE CRC-32 (the polynomial used
//!   by gzip, zip, and PNG), hand-rolled because the workspace builds
//!   with no registry access, and computed slicing-by-16 (sixteen table
//!   lookups fold sixteen bytes) since every decoded block passes
//!   through it. Every versioned file format checksums its header with
//!   it, and v3 formats carry per-section checksums too.
//! - [`CountingReader`] / [`read_exact_chunked`]: streaming-parse
//!   helpers. The counter lets parsers report the *file offset* of a
//!   violation without requiring `Seek`; chunked reading lets loaders
//!   allocate from untrusted length fields without risking a
//!   multi-gigabyte `Vec` from a corrupt 8-byte varint.
//! - [`read_image`]: the one read of a whole file at open, with bounded
//!   retry of transient errors; [`walk`], the verification walk that
//!   loads, `fsck` and the scrubber share; and [`KeptFile`], the handle
//!   the scrubber re-reads the disk through.
//! - [`AtomicFile`]: write-to-temp + `fsync` + atomic-rename
//!   persistence, so an interrupted build or append can never leave a
//!   torn file at the destination path — readers see either the old
//!   complete file or the new complete file, nothing in between.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// Slicing-by-16 tables. `[0]` is the classic byte-at-a-time table;
/// `[k][b]` is the CRC contribution of byte `b` followed by `k` zero
/// bytes, so sixteen lookups fold sixteen input bytes at once.
const fn crc32_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; SLICE] = crc32_tables();

/// Incremental IEEE CRC-32 hasher.
///
/// ```
/// use nucdb_index::durable::{crc32, Crc32};
/// let mut h = Crc32::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finish(), crc32(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feed `bytes` into the checksum: sixteen bytes per step through
    /// the sliced tables, then the tail a byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(SLICE);
        for chunk in &mut chunks {
            let b: &[u8; SLICE] = chunk.try_into().expect("chunks_exact yields SLICE bytes");
            let lead = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(lead & 0xFF) as usize]
                ^ t[14][((lead >> 8) & 0xFF) as usize]
                ^ t[13][((lead >> 16) & 0xFF) as usize]
                ^ t[12][(lead >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Counting / bounded readers
// ---------------------------------------------------------------------------

/// A [`Read`] adapter that tracks how many bytes have been consumed, so
/// streaming parsers can report the file offset of a violation without
/// requiring `Seek` on the source (which would rule out pipes, faulty
/// shims, and in-memory slices).
#[derive(Debug)]
pub struct CountingReader<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> CountingReader<R> {
    /// Wrap `inner`, starting the byte counter at zero.
    pub fn new(inner: R) -> CountingReader<R> {
        CountingReader { inner, pos: 0 }
    }

    /// Bytes consumed from `inner` so far.
    pub fn pos(&self) -> u64 {
        self.pos
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Read exactly `len` bytes into a fresh `Vec`, growing it in bounded
/// chunks. `len` typically comes from an *untrusted* length field in a
/// file header; chunked growth means a corrupt length fails with
/// `UnexpectedEof` after at most one wasted chunk instead of attempting
/// a huge up-front allocation (which aborts the process on OOM — a
/// durability violation in its own right).
pub fn read_exact_chunked<R: Read>(reader: &mut R, len: usize) -> io::Result<Vec<u8>> {
    const CHUNK: usize = 64 * 1024;
    let mut out = Vec::with_capacity(len.min(CHUNK));
    while out.len() < len {
        let take = (len - out.len()).min(CHUNK);
        let start = out.len();
        out.resize(start + take, 0);
        reader.read_exact(&mut out[start..])?;
    }
    Ok(out)
}

/// Maximum number of transient-error retries absorbed while reading one
/// file image before the error is surfaced.
pub const TRANSIENT_RETRY_LIMIT: u32 = 8;

/// Read `input` to its end: the image an index or store keeps from
/// `open`. Transient errors (`Interrupted`, `WouldBlock`, `TimedOut`)
/// are retried at most [`TRANSIENT_RETRY_LIMIT`] times in all, so a
/// flaky device degrades to a typed error instead of hanging an open
/// forever. `size_hint` presizes the buffer.
pub fn read_image(mut input: impl Read, size_hint: usize) -> io::Result<Vec<u8>> {
    const CHUNK: usize = 64 * 1024;
    let mut image = Vec::with_capacity(size_hint + CHUNK);
    let mut transient_retries = 0u32;
    loop {
        let filled = image.len();
        image.resize(filled + CHUNK, 0);
        let got = input.read(&mut image[filled..]);
        image.truncate(filled + *got.as_ref().unwrap_or(&0));
        match got {
            Ok(0) => return Ok(image),
            Ok(_) => {}
            Err(e) if is_transient(&e) && transient_retries < TRANSIENT_RETRY_LIMIT => {
                transient_retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One step of the verification walk over an index or store file: its
/// checksummed header (the index header, the store TOC), or the `n`th
/// list or record after it, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStep {
    /// The magic and the header or TOC.
    Header,
    /// One postings list or record blob, by position.
    Item(usize),
}

/// The one verification walk over a file read from `input` in file
/// order: its first `header_len` bytes, checked by `header`, then one
/// item per length in `items`, each checked by `item`. `each` hears
/// every step's outcome — the bytes it verified, or the error locating
/// the damage — and may stop the walk.
pub fn walk<E: From<io::Error>>(
    input: impl Read,
    header_len: u64,
    header: impl FnOnce(&[u8]) -> Result<(), E>,
    items: impl IntoIterator<Item = u32>,
    mut item: impl FnMut(usize, &[u8]) -> Result<(), E>,
    mut each: impl FnMut(WalkStep, Result<u64, E>) -> ControlFlow<()>,
) {
    let mut input = BufReader::new(input);
    let outcome = read_exact_chunked(&mut input, header_len as usize)
        .map_err(E::from)
        .and_then(|bytes| header(&bytes))
        .map(|()| header_len);
    if each(WalkStep::Header, outcome).is_break() {
        return;
    }
    let mut bytes = Vec::new();
    for (n, len) in items.into_iter().enumerate() {
        bytes.resize(len as usize, 0);
        let outcome = (input.read_exact(&mut bytes).map_err(E::from))
            .and_then(|()| item(n, &bytes))
            .map(|()| u64::from(len));
        if each(WalkStep::Item(n), outcome).is_break() {
            return;
        }
    }
}

/// Run `walk` to its first damage: that error, or `Ok` when every step
/// verified.
pub fn first_damage<E>(
    walk: impl FnOnce(&mut dyn FnMut(WalkStep, Result<u64, E>) -> ControlFlow<()>),
) -> Result<(), E> {
    let mut verdict = Ok(());
    walk(&mut |_, outcome| match outcome {
        Ok(_) => ControlFlow::Continue(()),
        Err(e) => {
            verdict = Err(e);
            ControlFlow::Break(())
        }
    });
    verdict
}

/// The file an index or store image was read from, kept so the scrub
/// walk can re-read what is on disk now. Empty for one built in memory.
#[derive(Debug, Clone, Default)]
pub struct KeptFile(Option<Arc<Mutex<File>>>);

impl KeptFile {
    /// Keep `file`.
    pub fn new(file: File) -> KeptFile {
        KeptFile(Some(Arc::new(Mutex::new(file))))
    }

    /// Hand `walk` the file rewound to its first byte, holding it for
    /// the walk; a failed rewind is the header step's error. Nothing
    /// happens when no file was kept.
    pub fn scrub<E: From<io::Error>>(
        &self,
        mut each: impl FnMut(WalkStep, Result<u64, E>) -> ControlFlow<()>,
        walk: impl FnOnce(&File, &mut dyn FnMut(WalkStep, Result<u64, E>) -> ControlFlow<()>),
    ) {
        let Some(file) = &self.0 else {
            return;
        };
        let mut file = file.lock().unwrap_or_else(|e| e.into_inner());
        match file.seek(SeekFrom::Start(0)) {
            Ok(_) => walk(&file, &mut each),
            Err(e) => {
                let _ = each(WalkStep::Header, Err(e.into()));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Atomic persistence
// ---------------------------------------------------------------------------

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A buffered writer that makes the destination file appear atomically.
///
/// Bytes go to a uniquely named temporary file in the *same directory*
/// as the destination (rename is only atomic within a filesystem). On
/// [`commit`](AtomicFile::commit) the data is flushed and `fsync`ed,
/// the temp file is renamed over the destination, and (on unix) the
/// parent directory is `fsync`ed so the rename itself survives a crash.
/// If the `AtomicFile` is dropped without committing — including via
/// `?` on a write error — the temp file is removed and the destination
/// is left untouched.
#[derive(Debug)]
pub struct AtomicFile {
    out: Option<BufWriter<File>>,
    tmp: PathBuf,
    dest: PathBuf,
}

impl AtomicFile {
    /// Start writing a new version of `dest`.
    pub fn create(dest: &Path) -> io::Result<AtomicFile> {
        let nonce = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut tmp_name = dest
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "out".into());
        tmp_name.push(format!(".tmp.{}.{}", std::process::id(), nonce));
        let tmp = dest.with_file_name(tmp_name);
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            out: Some(BufWriter::new(file)),
            tmp,
            dest: dest.to_path_buf(),
        })
    }

    /// Flush, `fsync`, and atomically rename the temp file over the
    /// destination. Consumes the writer; after this returns `Ok`, the
    /// complete new file is visible at the destination path.
    pub fn commit(mut self) -> io::Result<()> {
        let out = self.out.take().expect("commit called once by construction");
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.dest)?;
        #[cfg(unix)]
        if let Some(parent) = self.dest.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            if let Ok(d) = File::open(dir) {
                d.sync_all()?;
            }
        }
        Ok(())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out
            .as_mut()
            .expect("write before commit by construction")
            .write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out
            .as_mut()
            .expect("flush before commit by construction")
            .flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.out.take().is_some() {
            // Not committed: discard the partial temp file.
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyReader};
    use proptest::prelude::*;

    /// The byte-at-a-time loop the sliced one replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_crc32_matches_bytewise_oracle(
            data in prop::collection::vec(any::<u8>(), 0..=4096),
            cuts in prop::collection::vec(0usize..=4096, 0..6),
            offset in 0usize..16,
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            // Arbitrary split points across `update` calls: chunk
            // boundaries land off the 16-byte grid.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finish(), crc32_bytewise(&data));
            // An unaligned start: the same bytes at every address offset.
            let mut shifted = vec![0u8; offset];
            shifted.extend_from_slice(&data);
            prop_assert_eq!(crc32(&shifted[offset..]), crc32_bytewise(&data));
        }
    }

    #[test]
    fn sliced_crc32_matches_oracle_on_constant_inputs() {
        for fill in [0x00u8, 0xFF] {
            let data = vec![fill; 4096];
            for len in 0..=data.len() {
                assert_eq!(
                    crc32(&data[..len]),
                    crc32_bytewise(&data[..len]),
                    "{fill:#x} × {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Reference values from the IEEE CRC-32 used by gzip/zip/PNG.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 7 + 3) as u8).collect();
        for split in [0, 1, 13, 500, 999, 1000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data));
        }
    }

    #[test]
    fn counting_reader_tracks_position() {
        let data = [7u8; 100];
        let mut r = CountingReader::new(&data[..]);
        let mut buf = [0u8; 30];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(r.pos(), 30);
        r.read_exact(&mut buf).unwrap();
        assert_eq!(r.pos(), 60);
    }

    #[test]
    fn chunked_read_handles_lying_lengths() {
        let data = vec![1u8; 100];
        // Claimed length far beyond what the source holds: clean EOF error,
        // no giant allocation.
        let err = read_exact_chunked(&mut &data[..], usize::MAX / 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Exact length round-trips.
        assert_eq!(read_exact_chunked(&mut &data[..], 100).unwrap(), data);
        // Multi-chunk length round-trips.
        let big = vec![9u8; 200_000];
        assert_eq!(read_exact_chunked(&mut &big[..], big.len()).unwrap(), big);
    }

    #[test]
    fn faulty_backing_short_reads_are_reassembled() {
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 253) as u8).collect();
        let reader = FaultyReader::new(&payload[..], FaultPlan::clean(21).with_short_reads(0.9));
        assert_eq!(read_image(reader, 0).unwrap(), payload);
    }

    #[test]
    fn bounded_retry_absorbs_transient_errors_within_budget() {
        let payload = vec![42u8; 1024];
        // Budget equals the retry limit: every injected error fits within
        // the read's retry allowance, so the read must succeed.
        let plan = FaultPlan::clean(4).with_transient_errors(1.0, TRANSIENT_RETRY_LIMIT);
        let image = read_image(FaultyReader::new(&payload[..], plan), 1024).unwrap();
        assert_eq!(image, payload);
    }

    #[test]
    fn unbounded_transient_errors_eventually_surface() {
        let payload = vec![42u8; 1024];
        // More faults than the retry limit allows: the error must surface
        // instead of spinning forever.
        let plan = FaultPlan::clean(4).with_transient_errors(1.0, 1000);
        let err = read_image(FaultyReader::new(&payload[..], plan), 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn truncated_faulty_file_reports_a_short_image() {
        let payload = vec![7u8; 512];
        let plan = FaultPlan::clean(9).with_truncation(100);
        let image = read_image(FaultyReader::new(&payload[..], plan), 512).unwrap();
        assert_eq!(image, &payload[..100]);
    }

    #[test]
    fn atomic_file_commit_and_abandon() {
        let dir = std::env::temp_dir().join(format!("nucdb_durable_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("target.bin");

        // Commit path: file appears with full contents.
        let mut w = AtomicFile::create(&dest).unwrap();
        w.write_all(b"generation-1").unwrap();
        w.commit().unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"generation-1");

        // Abandon path: destination untouched, temp cleaned up.
        let mut w = AtomicFile::create(&dest).unwrap();
        w.write_all(b"partial garbage").unwrap();
        drop(w);
        assert_eq!(std::fs::read(&dest).unwrap(), b"generation-1");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("target.bin")]);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
