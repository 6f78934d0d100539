//! The sequence store: where fine search reads candidate records from.
//!
//! The paper's system keeps the collection itself alongside the index, and
//! fine search retrieves candidate records *in relevance order* — so
//! records must be independently decodable. Two storage modes exist so
//! experiment **E6** can reproduce the direct-coding comparison:
//!
//! * [`StorageMode::Ascii`] — one byte per base, the uncompressed
//!   baseline (what a FASTA-backed store effectively costs).
//! * [`StorageMode::DirectCoding`] — the 2-bit packed representation with
//!   a wildcard exception list ([`nucdb_seq::PackedSeq`]); a quarter the
//!   space and faster to hand to alignment, which is why the CAFE system
//!   reported >20% faster retrieval after adopting it.
//!
//! On-disk format, `NUCSTO02`, written by [`SequenceStore::write_to`]
//! (`v` = LEB128-style varint):
//!
//! ```text
//! magic "NUCSTO02"
//! toc_len:u32le  toc_crc:u32le      — IEEE CRC-32 of the TOC bytes
//! toc:
//!   mode:u8  count:v
//!   (id_len:v  id  seq_len:v  blob_len:v  blob_crc:v)*
//! payload: record blobs, concatenated in record order
//! ```
//!
//! Every byte of the file is covered by a checksum — the TOC by
//! `toc_crc`, each payload blob by its `blob_crc` — so corruption is
//! detected at load ([`SequenceStore::read_from`]) or, on the
//! [`OnDiskStore`] pread path, the moment the affected record is
//! fetched, as a typed [`SeqError::Corruption`]. The retired
//! checksum-free `NUCSTO01` is refused at open with
//! [`SeqError::UnsupportedFormat`]. Files are written through
//! [`AtomicFile`], so a crashed build never leaves a torn store.

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use nucdb_index::durable::{crc32, read_exact_chunked, AtomicFile, CountingReader};
use nucdb_index::fault::{FaultPlan, FaultyFile};
use nucdb_index::PositionalReader;
use nucdb_obs::{Counter, MetricsRegistry};
use nucdb_seq::{Base, DnaSeq, PackedSeq, SeqError};

const MAGIC_V2: &[u8; 8] = b"NUCSTO02";
/// The retired checksum-free generation, kept only to name the refusal.
const RETIRED_MAGIC_V1: &str = "NUCSTO01";
/// Bytes before the TOC: magic + toc_len + toc_crc.
const V2_PREFIX_LEN: u64 = 16;

/// Accept the current magic; refuse the retired one by name and anything
/// else as damage.
fn check_magic(magic: &[u8]) -> Result<(), SeqError> {
    if magic == MAGIC_V2 {
        Ok(())
    } else if magic == RETIRED_MAGIC_V1.as_bytes() {
        Err(SeqError::UnsupportedFormat(RETIRED_MAGIC_V1.to_string()))
    } else {
        Err(SeqError::corrupt_at("bad store magic", "magic", 0))
    }
}

/// Anything fine search (and the exhaustive baselines) can read candidate
/// records from: the in-memory store, the on-disk store, or the engine's
/// variant wrapper.
pub trait RecordSource {
    /// Number of records.
    fn len(&self) -> usize;
    /// Is the source empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// External identifier of a record.
    fn id(&self, record: u32) -> &str;
    /// Record length in bases.
    fn record_len(&self, record: u32) -> usize;
    /// Representative-base view of a record (wildcards collapsed).
    /// In-memory sources cannot fail; on-disk sources may panic on I/O
    /// errors — query paths must use [`RecordSource::try_bases`].
    fn bases(&self, record: u32) -> Vec<Base>;
    /// Fallible variant of [`RecordSource::bases`]: surfaces read and
    /// corruption errors from on-disk sources instead of panicking. This
    /// is what the search engine calls.
    fn try_bases(&self, record: u32) -> Result<Vec<Base>, SeqError> {
        Ok(self.bases(record))
    }
    /// Lossless decode of a record.
    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError>;
    /// Total bases across records.
    fn total_bases(&self) -> usize {
        (0..self.len() as u32).map(|r| self.record_len(r)).sum()
    }
}

/// How record sequences are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageMode {
    /// One ASCII byte per base.
    Ascii,
    /// 2-bit direct coding with wildcard exceptions (the paper's choice).
    #[default]
    DirectCoding,
}

impl StorageMode {
    fn tag(self) -> u8 {
        match self {
            StorageMode::Ascii => 0,
            StorageMode::DirectCoding => 1,
        }
    }

    fn from_tag(tag: u8, offset: u64) -> Result<StorageMode, SeqError> {
        match tag {
            0 => Ok(StorageMode::Ascii),
            1 => Ok(StorageMode::DirectCoding),
            _ => Err(SeqError::corrupt_at(
                "unknown storage mode",
                "store-header",
                offset,
            )),
        }
    }
}

#[derive(Debug, Clone)]
enum StoredSeq {
    Ascii(Vec<u8>),
    Packed(PackedSeq),
}

/// An in-memory store of named records supporting independent access.
#[derive(Debug, Clone, Default)]
pub struct SequenceStore {
    mode: StorageMode,
    ids: Vec<String>,
    seqs: Vec<StoredSeq>,
}

impl SequenceStore {
    /// An empty store.
    pub fn new(mode: StorageMode) -> SequenceStore {
        SequenceStore {
            mode,
            ids: Vec::new(),
            seqs: Vec::new(),
        }
    }

    /// Append a record; returns its id (consecutive from 0).
    pub fn add(&mut self, id: impl Into<String>, seq: &DnaSeq) -> u32 {
        let record = self.seqs.len() as u32;
        self.ids.push(id.into());
        self.seqs.push(match self.mode {
            StorageMode::Ascii => StoredSeq::Ascii(seq.to_ascii_vec()),
            StorageMode::DirectCoding => StoredSeq::Packed(PackedSeq::pack(seq)),
        });
        record
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Storage mode.
    pub fn mode(&self) -> StorageMode {
        self.mode
    }

    /// The external identifier of record `record`.
    pub fn id(&self, record: u32) -> &str {
        &self.ids[record as usize]
    }

    /// Record length in bases.
    pub fn record_len(&self, record: u32) -> usize {
        match &self.seqs[record as usize] {
            StoredSeq::Ascii(a) => a.len(),
            StoredSeq::Packed(p) => p.len(),
        }
    }

    /// Decode record `record` to representative bases (the alignment
    /// view; wildcards collapse).
    pub fn bases(&self, record: u32) -> Vec<Base> {
        match &self.seqs[record as usize] {
            StoredSeq::Ascii(ascii) => ascii
                .iter()
                .map(|&b| {
                    nucdb_seq::IupacCode::from_ascii(b)
                        .expect("store contains only validated bases")
                        .representative()
                })
                .collect(),
            StoredSeq::Packed(packed) => packed.unpack_bases(),
        }
    }

    /// Decode record `record` losslessly (wildcards restored).
    pub fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        match &self.seqs[record as usize] {
            StoredSeq::Ascii(ascii) => DnaSeq::from_ascii(ascii),
            StoredSeq::Packed(packed) => Ok(packed.unpack()),
        }
    }

    /// Bytes the stored sequences occupy (the quantity E6 compares).
    pub fn stored_bytes(&self) -> usize {
        self.seqs
            .iter()
            .map(|s| match s {
                StoredSeq::Ascii(a) => a.len(),
                StoredSeq::Packed(p) => p.packed_bytes(),
            })
            .sum()
    }

    /// Total bases across records.
    pub fn total_bases(&self) -> usize {
        (0..self.len() as u32).map(|r| self.record_len(r)).sum()
    }

    /// Append every record of `other` (re-encoding into this store's
    /// mode if the modes differ). Record ids of the appended records
    /// follow the existing ones.
    pub fn extend_from_store(&mut self, other: &SequenceStore) -> Result<(), SeqError> {
        for record in 0..other.len() as u32 {
            let seq = other.sequence(record)?;
            self.add(other.id(record).to_string(), &seq);
        }
        Ok(())
    }

    fn record_blob(&self, record: usize) -> Vec<u8> {
        match &self.seqs[record] {
            StoredSeq::Ascii(a) => a.clone(),
            StoredSeq::Packed(p) => p.to_bytes(),
        }
    }

    /// Persist the store to `path` — see the
    /// module docs for the layout. The write is atomic: staged in a temp
    /// file, `fsync`ed, and renamed into place, so a crash mid-write
    /// never leaves a torn store.
    pub fn write_to(&self, path: &Path) -> Result<(), SeqError> {
        let mut toc = Vec::new();
        toc.push(self.mode.tag());
        write_vu64(&mut toc, self.seqs.len() as u64)?;
        let blobs: Vec<Vec<u8>> = (0..self.seqs.len()).map(|r| self.record_blob(r)).collect();
        for ((id, blob), record) in self.ids.iter().zip(&blobs).zip(0..) {
            write_vu64(&mut toc, id.len() as u64)?;
            toc.extend_from_slice(id.as_bytes());
            write_vu64(&mut toc, self.record_len(record) as u64)?;
            write_vu64(&mut toc, blob.len() as u64)?;
            write_vu64(&mut toc, crc32(blob) as u64)?;
        }
        let toc_len = u32::try_from(toc.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "store TOC exceeds 4 GiB"))?;

        let mut out = AtomicFile::create(path)?;
        out.write_all(MAGIC_V2)?;
        out.write_all(&toc_len.to_le_bytes())?;
        out.write_all(&crc32(&toc).to_le_bytes())?;
        out.write_all(&toc)?;
        for blob in &blobs {
            out.write_all(blob)?;
        }
        out.commit()?;
        Ok(())
    }

    /// Load a store written by [`SequenceStore::write_to`]; every byte is
    /// verified before the store is returned.
    pub fn read_from(path: &Path) -> Result<SequenceStore, SeqError> {
        let (toc, mut input) = open_toc(path)?;
        let mut store = SequenceStore::new(toc.mode);
        for (record, id) in toc.ids.into_iter().enumerate() {
            let (offset, blob_len) = toc.blobs[record];
            let blob = read_exact_chunked(&mut input, blob_len as usize)?;
            let expected = toc.crcs[record];
            let actual = crc32(&blob);
            if actual != expected {
                return Err(SeqError::checksum("record", offset, expected, actual));
            }
            let seq = decode_blob(toc.mode, &blob).map_err(|e| e.located("record", offset))?;
            if seq_len(&seq) != toc.lens[record] as usize {
                return Err(SeqError::corrupt_at(
                    "record length disagrees with TOC",
                    "record",
                    offset,
                ));
            }
            store.ids.push(id);
            store.seqs.push(seq);
        }
        Ok(store)
    }
}

/// Parse and validate one record blob into its stored form.
fn decode_blob(mode: StorageMode, blob: &[u8]) -> Result<StoredSeq, SeqError> {
    match mode {
        StorageMode::Ascii => {
            DnaSeq::from_ascii(blob)?;
            Ok(StoredSeq::Ascii(blob.to_vec()))
        }
        StorageMode::DirectCoding => Ok(StoredSeq::Packed(PackedSeq::from_bytes(blob)?)),
    }
}

fn seq_len(seq: &StoredSeq) -> usize {
    match seq {
        StoredSeq::Ascii(a) => a.len(),
        StoredSeq::Packed(p) => p.len(),
    }
}

impl RecordSource for SequenceStore {
    fn len(&self) -> usize {
        SequenceStore::len(self)
    }

    fn id(&self, record: u32) -> &str {
        SequenceStore::id(self, record)
    }

    fn record_len(&self, record: u32) -> usize {
        SequenceStore::record_len(self, record)
    }

    fn bases(&self, record: u32) -> Vec<Base> {
        SequenceStore::bases(self, record)
    }

    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        SequenceStore::sequence(self, record)
    }

    fn total_bases(&self) -> usize {
        SequenceStore::total_bases(self)
    }
}

/// Parsed table of contents — everything [`OnDiskStore`] keeps in memory.
/// Blob offsets are absolute file offsets.
struct TocV2 {
    mode: StorageMode,
    ids: Vec<String>,
    /// Per record: sequence length in bases.
    lens: Vec<u32>,
    /// Per record: byte offset and length of the payload blob.
    blobs: Vec<(u64, u32)>,
    /// Per record: CRC-32 of the payload blob.
    crcs: Vec<u32>,
    /// Where the payload region begins: the end of the checksummed prefix.
    payload_start: u64,
}

/// Open a store file, check its magic and parse its TOC, leaving the
/// reader at the start of the payload.
fn open_toc(path: &Path) -> Result<(TocV2, CountingReader<BufReader<File>>), SeqError> {
    let mut input = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    check_magic(&magic)?;
    let mut input = CountingReader::new(input);
    let toc = read_toc_v2(&mut input)?;
    Ok((toc, input))
}

/// Parse a v2 TOC. `input` is positioned just past the magic (absolute
/// offset 8) and is left positioned at the start of the payload.
fn read_toc_v2<R: Read>(input: &mut CountingReader<R>) -> Result<TocV2, SeqError> {
    let mut word = [0u8; 4];
    input.read_exact(&mut word)?;
    let toc_len = u32::from_le_bytes(word) as usize;
    input.read_exact(&mut word)?;
    let expected = u32::from_le_bytes(word);
    let toc_bytes = read_exact_chunked(input, toc_len)?;
    let actual = crc32(&toc_bytes);
    if actual != expected {
        return Err(SeqError::checksum("toc", V2_PREFIX_LEN, expected, actual));
    }

    let mut toc = CountingReader::new(&toc_bytes[..]);
    let at = |toc: &CountingReader<&[u8]>| V2_PREFIX_LEN + toc.pos();
    let mut mode_byte = [0u8; 1];
    toc.read_exact(&mut mode_byte)?;
    let mode = StorageMode::from_tag(mode_byte[0], V2_PREFIX_LEN)?;
    let count = read_vu64(&mut toc)? as usize;
    // The TOC is checksum-verified, so `count` is trusted; the cap only
    // guards against a writer bug producing absurd values.
    let mut ids = Vec::with_capacity(count.min(1 << 20));
    let mut lens = Vec::with_capacity(count.min(1 << 20));
    let mut blobs = Vec::with_capacity(count.min(1 << 20));
    let mut crcs = Vec::with_capacity(count.min(1 << 20));
    let payload_start = V2_PREFIX_LEN + toc_len as u64;
    let mut offset = payload_start;
    for _ in 0..count {
        let id_len = read_vu64(&mut toc)? as usize;
        let id = read_exact_chunked(&mut toc, id_len)?;
        ids.push(
            String::from_utf8(id)
                .map_err(|_| SeqError::corrupt_at("record id is not UTF-8", "toc", at(&toc)))?,
        );
        let len = u32::try_from(read_vu64(&mut toc)?)
            .map_err(|_| SeqError::corrupt_at("record length overflow", "toc", at(&toc)))?;
        let blob_len = u32::try_from(read_vu64(&mut toc)?)
            .map_err(|_| SeqError::corrupt_at("blob length overflow", "toc", at(&toc)))?;
        let crc = u32::try_from(read_vu64(&mut toc)?)
            .map_err(|_| SeqError::corrupt_at("blob checksum overflow", "toc", at(&toc)))?;
        lens.push(len);
        blobs.push((offset, blob_len));
        crcs.push(crc);
        offset += blob_len as u64;
    }
    if toc.pos() != toc_len as u64 {
        return Err(SeqError::corrupt_at(
            "trailing bytes in TOC",
            "toc",
            at(&toc),
        ));
    }
    Ok(TocV2 {
        mode,
        ids,
        lens,
        blobs,
        crcs,
        payload_start,
    })
}

/// A sequence store whose record payloads stay on disk: ids and byte
/// locations are memory-resident, each record is fetched with a
/// positioned read when fine search asks for it — the paper's operating
/// point, where retrieving candidate sequences is disk traffic and the
/// direct-coded store's 4× smaller reads are the win. Record fetches use
/// lock-free positional reads, so concurrent searchers never serialise on
/// a shared file cursor. Counts bytes read.
///
/// Every fetched blob is verified against its stored CRC-32; a mismatch
/// surfaces as [`SeqError::Corruption`] naming the file
/// offset, and no decoded (potentially wrong) sequence escapes.
pub struct OnDiskStore {
    file: PositionalReader,
    mode: StorageMode,
    ids: Vec<String>,
    /// Per record: byte offset and length of the payload blob.
    blobs: Vec<(u64, u32)>,
    /// Per record: sequence length in bases.
    lens: Vec<u32>,
    /// Per-record blob CRC-32s.
    crcs: Vec<u32>,
    /// Absolute file offset where the payload region begins — the end of
    /// the checksummed prefix a [`OnDiskStore::scrub_toc`] pass re-reads.
    payload_start: u64,
    /// I/O counters: standalone by default, swapped for registry-backed
    /// handles by [`OnDiskStore::bind_metrics`]. The accessor methods
    /// below are thin shims over these handles either way.
    bytes_read: Counter,
    records_read: Counter,
}

impl OnDiskStore {
    /// Open a store file written by [`SequenceStore::write_to`], reading
    /// only its table of contents.
    pub fn open(path: &Path) -> Result<OnDiskStore, SeqError> {
        let (toc, input) = open_toc(path)?;
        let file = input.into_inner().into_inner();
        Ok(OnDiskStore::from_toc(toc, PositionalReader::new(file)))
    }

    /// Open like [`OnDiskStore::open`], but serve all record reads
    /// through a deterministic fault-injection shim. The TOC is parsed
    /// from the pristine file; only the pread path sees `plan`'s faults.
    /// This is the durability-test entry point.
    pub fn open_faulty(path: &Path, plan: FaultPlan) -> Result<OnDiskStore, SeqError> {
        let (toc, _) = open_toc(path)?;
        let file = PositionalReader::faulty(FaultyFile::from_path(path, plan)?);
        Ok(OnDiskStore::from_toc(toc, file))
    }

    fn from_toc(toc: TocV2, file: PositionalReader) -> OnDiskStore {
        OnDiskStore {
            file,
            mode: toc.mode,
            ids: toc.ids,
            blobs: toc.blobs,
            lens: toc.lens,
            crcs: toc.crcs,
            payload_start: toc.payload_start,
            bytes_read: Counter::new(),
            records_read: Counter::new(),
        }
    }

    /// Swap the I/O counters for handles registered in `registry`
    /// (carrying over any already-accumulated values). After binding,
    /// [`OnDiskStore::bytes_read`] and friends read the registry series.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        let bytes_read = registry.counter(
            "nucdb_store_bytes_read_total",
            "Bytes fetched from the on-disk store",
        );
        let records_read = registry.counter(
            "nucdb_store_records_read_total",
            "Records fetched from the on-disk store",
        );
        bytes_read.add(self.bytes_read.get());
        records_read.add(self.records_read.get());
        self.bytes_read = bytes_read;
        self.records_read = records_read;
    }

    /// Storage mode of the underlying file.
    pub fn mode(&self) -> StorageMode {
        self.mode
    }

    /// Read one record's blob and check it against its stored CRC-32.
    fn read_verified(&self, record: u32) -> Result<Vec<u8>, SeqError> {
        let (offset, len) = self.blobs[record as usize];
        let mut bytes = vec![0u8; len as usize];
        self.file.read_exact_at(&mut bytes, offset)?;
        let expected = self.crcs[record as usize];
        let actual = crc32(&bytes);
        if actual != expected {
            return Err(SeqError::checksum("record", offset, expected, actual));
        }
        Ok(bytes)
    }

    fn fetch_blob(&self, record: u32) -> Result<Vec<u8>, SeqError> {
        let bytes = self.read_verified(record)?;
        self.bytes_read.add(bytes.len() as u64);
        self.records_read.inc();
        Ok(bytes)
    }

    /// Store bytes fetched since the last reset.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Records fetched since the last reset.
    pub fn records_read(&self) -> u64 {
        self.records_read.get()
    }

    /// Reset the I/O counters.
    pub fn reset_io_counters(&self) {
        self.bytes_read.reset();
        self.records_read.reset();
    }

    /// Number of records in the store.
    pub fn num_records(&self) -> usize {
        self.ids.len()
    }

    /// Bytes the stored sequence payload blobs occupy on disk.
    pub fn stored_bytes(&self) -> usize {
        self.blobs.iter().map(|&(_, len)| len as usize).sum()
    }

    /// Absolute byte offset and length of a record's payload blob
    /// (panics if out of range) — for health reports that locate damage.
    pub fn record_location(&self, record: u32) -> (u64, u32) {
        self.blobs[record as usize]
    }

    /// Re-read the checksummed file prefix (magic + TOC) from disk and
    /// re-verify it: magic, stored TOC CRC, and full field structure.
    /// Returns the bytes verified. Reads through the live file
    /// handle, so it observes damage that arrived after open (and
    /// injected faults under [`OnDiskStore::open_faulty`]). Does not
    /// touch the query I/O counters.
    pub fn scrub_toc(&self) -> Result<u64, SeqError> {
        let mut buf = vec![0u8; self.payload_start as usize];
        self.file.read_exact_at(&mut buf, 0)?;
        check_magic(&buf[..8])?;
        let mut input = CountingReader::new(&buf[8..]);
        read_toc_v2(&mut input)?;
        Ok(self.payload_start)
    }

    /// Fetch and fully verify one record: stored CRC, structural
    /// decode, and TOC length agreement. Returns the blob bytes
    /// verified. Does not touch the query I/O counters, so a background
    /// scrub never distorts `nucdb_store_bytes_read_total`.
    pub fn verify_record(&self, record: u32) -> Result<u64, SeqError> {
        let (offset, len) = self.blobs[record as usize];
        let bytes = self.read_verified(record)?;
        let seq = decode_blob(self.mode, &bytes).map_err(|e| e.located("record", offset))?;
        if seq_len(&seq) != self.lens[record as usize] as usize {
            return Err(SeqError::corrupt_at(
                "record length disagrees with TOC",
                "record",
                offset,
            ));
        }
        Ok(len as u64)
    }
}

impl RecordSource for OnDiskStore {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn id(&self, record: u32) -> &str {
        &self.ids[record as usize]
    }

    fn record_len(&self, record: u32) -> usize {
        self.lens[record as usize] as usize
    }

    fn bases(&self, record: u32) -> Vec<Base> {
        self.try_bases(record)
            .expect("caller chose the panicking accessor; use try_bases on query paths")
    }

    fn try_bases(&self, record: u32) -> Result<Vec<Base>, SeqError> {
        match self.mode {
            StorageMode::Ascii => Ok(self.sequence(record)?.representative_bases()),
            // The 2-bit payload already holds the representative base
            // under every wildcard, so the exception list is validated
            // but never applied: no `Vec<IupacCode>` in between.
            StorageMode::DirectCoding => {
                let (offset, _) = self.blobs[record as usize];
                let blob = self.fetch_blob(record)?;
                let packed =
                    PackedSeq::from_bytes(&blob).map_err(|e| e.located("record", offset))?;
                Ok(packed.unpack_bases())
            }
        }
    }

    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        let (offset, _) = self.blobs[record as usize];
        let blob = self.fetch_blob(record)?;
        let decoded = match self.mode {
            StorageMode::Ascii => DnaSeq::from_ascii(&blob),
            StorageMode::DirectCoding => PackedSeq::from_bytes(&blob).map(|p| p.unpack()),
        };
        decoded.map_err(|e| e.located("record", offset))
    }

    fn total_bases(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }
}

/// The sequence store backing a database: memory-resident or on disk.
pub enum StoreVariant {
    /// Fully in-memory store.
    Memory(SequenceStore),
    /// On-disk store with per-record fetching.
    Disk(OnDiskStore),
    /// Ordered set of store parts (live ingestion segments + memtable).
    Segmented(crate::segment::SegmentedStore),
}

impl StoreVariant {
    /// Bytes the stored sequence payloads occupy (in memory or on disk).
    pub fn stored_bytes(&self) -> usize {
        match self {
            StoreVariant::Memory(s) => s.stored_bytes(),
            StoreVariant::Disk(s) => s.stored_bytes(),
            StoreVariant::Segmented(s) => s.stored_bytes(),
        }
    }

    /// The store this variant wraps: every [`RecordSource`] call
    /// forwards through this one `match`.
    fn source(&self) -> &dyn RecordSource {
        match self {
            StoreVariant::Memory(s) => s,
            StoreVariant::Disk(s) => s,
            StoreVariant::Segmented(s) => s,
        }
    }
}

impl RecordSource for StoreVariant {
    fn len(&self) -> usize {
        self.source().len()
    }

    fn id(&self, record: u32) -> &str {
        self.source().id(record)
    }

    fn record_len(&self, record: u32) -> usize {
        self.source().record_len(record)
    }

    fn bases(&self, record: u32) -> Vec<Base> {
        self.source().bases(record)
    }

    fn try_bases(&self, record: u32) -> Result<Vec<Base>, SeqError> {
        self.source().try_bases(record)
    }

    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        self.source().sequence(record)
    }

    fn total_bases(&self) -> usize {
        self.source().total_bases()
    }
}

fn write_vu64(out: &mut impl Write, mut value: u64) -> std::io::Result<()> {
    while value >= 0x80 {
        out.write_all(&[(value as u8 & 0x7f) | 0x80])?;
        value >>= 7;
    }
    out.write_all(&[value as u8])
}

fn read_vu64(input: &mut impl Read) -> Result<u64, SeqError> {
    let mut value = 0u64;
    let mut byte = [0u8; 1];
    for group in 0..10u32 {
        input.read_exact(&mut byte)?;
        value |= ((byte[0] & 0x7f) as u64) << (7 * group);
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(SeqError::corrupt("store varint too long"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(&'static str, DnaSeq)> {
        vec![
            ("a", DnaSeq::from_ascii(b"ACGTACGTNACGT").unwrap()),
            ("b", DnaSeq::from_ascii(b"TTTT").unwrap()),
            ("c", DnaSeq::from_ascii(b"RYGGGGGGGGGGGGGGGG").unwrap()),
        ]
    }

    #[test]
    fn both_modes_round_trip() {
        for mode in [StorageMode::Ascii, StorageMode::DirectCoding] {
            let mut store = SequenceStore::new(mode);
            for (id, seq) in sample() {
                store.add(id, &seq);
            }
            assert_eq!(store.len(), 3);
            for (record, (id, seq)) in sample().into_iter().enumerate() {
                let record = record as u32;
                assert_eq!(store.id(record), id);
                assert_eq!(store.record_len(record), seq.len());
                assert_eq!(store.sequence(record).unwrap(), seq, "mode {mode:?}");
                assert_eq!(store.bases(record), seq.representative_bases());
            }
        }
    }

    #[test]
    fn direct_coding_is_smaller() {
        // On realistic record lengths the 2-bit payload dominates the
        // exception list: close to 4x smaller than ASCII.
        let mut body = vec![b'A'; 2000];
        body[100] = b'N';
        body[1500] = b'R';
        let seq = DnaSeq::from_ascii(&body).unwrap();
        let mut ascii = SequenceStore::new(StorageMode::Ascii);
        let mut packed = SequenceStore::new(StorageMode::DirectCoding);
        ascii.add("x", &seq);
        packed.add("x", &seq);
        assert!(
            packed.stored_bytes() * 3 < ascii.stored_bytes(),
            "packed {} vs ascii {}",
            packed.stored_bytes(),
            ascii.stored_bytes()
        );
        assert_eq!(ascii.total_bases(), packed.total_bases());
    }

    #[test]
    fn empty_store() {
        let store = SequenceStore::new(StorageMode::DirectCoding);
        assert!(store.is_empty());
        assert_eq!(store.stored_bytes(), 0);
        assert_eq!(store.total_bases(), 0);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nucdb_store_{}_{}", name, std::process::id()))
    }

    #[test]
    fn persistence_round_trip_both_modes() {
        for (tag, mode) in [("a", StorageMode::Ascii), ("p", StorageMode::DirectCoding)] {
            let mut store = SequenceStore::new(mode);
            for (id, seq) in sample() {
                store.add(id, &seq);
            }
            let path = temp_path(tag);
            store.write_to(&path).unwrap();
            let loaded = SequenceStore::read_from(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(loaded.mode(), mode);
            assert_eq!(loaded.len(), store.len());
            for record in 0..store.len() as u32 {
                assert_eq!(loaded.id(record), store.id(record));
                assert_eq!(
                    loaded.sequence(record).unwrap(),
                    store.sequence(record).unwrap()
                );
            }
        }
    }

    #[test]
    fn persistence_rejects_corruption() {
        let mut store = SequenceStore::new(StorageMode::DirectCoding);
        for (id, seq) in sample() {
            store.add(id, &seq);
        }
        let path = temp_path("corrupt");
        store.write_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X'; // magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(SequenceStore::read_from(&path).is_err());
        // Truncation must also fail, not panic.
        let good = {
            bytes[0] = b'N';
            bytes
        };
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(SequenceStore::read_from(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_payload_detected_with_offset() {
        let mut store = SequenceStore::new(StorageMode::DirectCoding);
        for (id, seq) in sample() {
            store.add(id, &seq);
        }
        let path = temp_path("crc");
        store.write_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // final payload byte: inside the last record
        bytes[last] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        match SequenceStore::read_from(&path) {
            Err(SeqError::Corruption {
                section, offset, ..
            }) => {
                assert_eq!(section, "record");
                assert!(offset <= last as u64);
            }
            other => panic!("expected record corruption, got {other:?}"),
        }

        // The pread path opens fine (TOC intact) but must refuse the
        // corrupt record the moment it is fetched — and keep serving
        // intact records.
        let disk = OnDiskStore::open(&path).unwrap();
        let last_record = (RecordSource::len(&disk) - 1) as u32;
        match RecordSource::sequence(&disk, last_record) {
            Err(SeqError::Corruption { section, .. }) => assert_eq!(section, "record"),
            other => panic!("expected fetch-time corruption, got {other:?}"),
        }
        assert!(RecordSource::try_bases(&disk, last_record).is_err());
        assert_eq!(
            RecordSource::sequence(&disk, 0).unwrap(),
            store.sequence(0).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn extend_from_store_appends_and_reencodes() {
        let mut packed = SequenceStore::new(StorageMode::DirectCoding);
        packed.add("p0", &DnaSeq::from_ascii(b"ACGT").unwrap());
        let mut ascii = SequenceStore::new(StorageMode::Ascii);
        ascii.add("a0", &DnaSeq::from_ascii(b"TTNN").unwrap());
        ascii.add("a1", &DnaSeq::from_ascii(b"GGGG").unwrap());

        packed.extend_from_store(&ascii).unwrap();
        assert_eq!(packed.len(), 3);
        assert_eq!(packed.id(1), "a0");
        assert_eq!(packed.sequence(1).unwrap().to_ascii_vec(), b"TTNN");
        assert_eq!(packed.sequence(2).unwrap().to_ascii_vec(), b"GGGG");
        assert_eq!(packed.mode(), StorageMode::DirectCoding);
    }

    #[test]
    fn on_disk_store_matches_memory() {
        for (tag, mode) in [
            ("oda", StorageMode::Ascii),
            ("odp", StorageMode::DirectCoding),
        ] {
            let mut store = SequenceStore::new(mode);
            for (id, seq) in sample() {
                store.add(id, &seq);
            }
            let path = temp_path(tag);
            store.write_to(&path).unwrap();
            let disk = OnDiskStore::open(&path).unwrap();
            assert_eq!(disk.mode(), mode);
            assert_eq!(RecordSource::len(&disk), store.len());
            assert_eq!(RecordSource::total_bases(&disk), store.total_bases());
            for record in 0..store.len() as u32 {
                assert_eq!(RecordSource::id(&disk, record), store.id(record));
                assert_eq!(
                    RecordSource::record_len(&disk, record),
                    store.record_len(record)
                );
                assert_eq!(
                    RecordSource::sequence(&disk, record).unwrap(),
                    store.sequence(record).unwrap(),
                    "mode {mode:?} record {record}"
                );
                assert_eq!(RecordSource::bases(&disk, record), store.bases(record));
                assert_eq!(
                    RecordSource::try_bases(&disk, record).unwrap(),
                    store.bases(record)
                );
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn on_disk_store_counts_io() {
        let mut store = SequenceStore::new(StorageMode::DirectCoding);
        for (id, seq) in sample() {
            store.add(id, &seq);
        }
        let path = temp_path("odio");
        store.write_to(&path).unwrap();
        let disk = OnDiskStore::open(&path).unwrap();
        assert_eq!(disk.bytes_read(), 0);
        let _ = RecordSource::sequence(&disk, 0).unwrap();
        assert!(disk.bytes_read() > 0);
        assert_eq!(disk.records_read(), 1);
        // Metadata access costs no I/O.
        let before = disk.bytes_read();
        let _ = RecordSource::record_len(&disk, 1);
        let _ = RecordSource::id(&disk, 2);
        assert_eq!(disk.bytes_read(), before);
        disk.reset_io_counters();
        assert_eq!(disk.records_read(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn on_disk_store_rejects_corruption() {
        let mut store = SequenceStore::new(StorageMode::DirectCoding);
        for (id, seq) in sample() {
            store.add(id, &seq);
        }
        let path = temp_path("odbad");
        store.write_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(OnDiskStore::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_store_persists() {
        let store = SequenceStore::new(StorageMode::Ascii);
        let path = temp_path("empty");
        store.write_to(&path).unwrap();
        let loaded = SequenceStore::read_from(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(loaded.is_empty());
        assert_eq!(loaded.mode(), StorageMode::Ascii);
    }
}
