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
//! `toc_crc`, each payload blob by its `blob_crc`. A [`SequenceStore`]
//! keeps one byte image of the file, read once by
//! [`SequenceStore::open`], which refuses a truncated file. Every record
//! fetch checks its blob's CRC and surfaces a mismatch as a typed
//! [`SeqError::Corruption`]; the scrubber and `fsck` find later rot on
//! disk with [`SequenceStore::walk`], the walk
//! [`SequenceStore::read_from`] runs over the image. The retired
//! checksum-free `NUCSTO01` is refused at open with
//! [`SeqError::UnsupportedFormat`]. Files are written through
//! [`AtomicFile`], so a crashed build never leaves a torn store.

use std::fs::File;
use std::io::{self, Read, Write};
use std::ops::ControlFlow;
use std::path::Path;

use nucdb_index::durable::{
    crc32, first_damage, read_exact_chunked, read_image, walk, AtomicFile, CountingReader,
    KeptFile, WalkStep,
};
use nucdb_index::fault::{FaultPlan, FaultyReader};
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
/// records from: a store, a segmented view over stores, or the engine's
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
    /// Panics on a record that fails its checksum — query paths must use
    /// [`RecordSource::try_bases`].
    fn bases(&self, record: u32) -> Vec<Base>;
    /// Fallible variant of [`RecordSource::bases`]: surfaces corruption
    /// errors instead of panicking. This is what the search engine
    /// calls.
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

/// A store of named records, each independently decodable: the TOC
/// fields, the per-blob CRCs, and one byte image of the store file.
///
/// The image is what [`SequenceStore::write_to`] writes, read once by
/// [`SequenceStore::open`]; a store built in memory with
/// [`SequenceStore::add`] holds only the payload, its TOC being written
/// from the fields. Every record fetch slices the image, checks the
/// blob's CRC-32 at its absolute file offset, counts the bytes and the
/// record as read, and decodes; a mismatch surfaces as
/// [`SeqError::Corruption`] and no decoded (potentially wrong) sequence
/// escapes.
#[derive(Clone)]
pub struct SequenceStore {
    mode: StorageMode,
    ids: Vec<String>,
    /// Per record: sequence length in bases.
    lens: Vec<u32>,
    /// Per record: offset of the payload blob in the image — for an
    /// opened store, its absolute file offset — and its length.
    blobs: Vec<(u64, u32)>,
    /// Per record: CRC-32 of the payload blob.
    crcs: Vec<u32>,
    image: Vec<u8>,
    /// Where the payload begins in the image: past the checksummed
    /// prefix (magic + TOC) for an opened store, 0 for one built in
    /// memory.
    payload_start: u64,
    /// The file the image was read from, kept for the scrub walk.
    file: KeptFile,
    /// I/O counters: standalone by default, swapped for registry-backed
    /// handles by [`SequenceStore::bind_metrics`].
    bytes_read: Counter,
    records_read: Counter,
}

impl std::fmt::Debug for SequenceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequenceStore")
            .field("mode", &self.mode)
            .field("records", &self.ids.len())
            .field("image_bytes", &self.image.len())
            .finish_non_exhaustive()
    }
}

impl SequenceStore {
    /// An empty store.
    pub fn new(mode: StorageMode) -> SequenceStore {
        SequenceStore {
            mode,
            ids: Vec::new(),
            lens: Vec::new(),
            blobs: Vec::new(),
            crcs: Vec::new(),
            image: Vec::new(),
            payload_start: 0,
            file: KeptFile::default(),
            bytes_read: Counter::new(),
            records_read: Counter::new(),
        }
    }

    /// Append a record; returns its id (consecutive from 0).
    pub fn add(&mut self, id: impl Into<String>, seq: &DnaSeq) -> u32 {
        let record = self.ids.len() as u32;
        let blob = match self.mode {
            StorageMode::Ascii => seq.to_ascii_vec(),
            StorageMode::DirectCoding => PackedSeq::pack(seq).to_bytes(),
        };
        self.ids.push(id.into());
        self.lens.push(seq.len() as u32);
        self.blobs
            .push((self.image.len() as u64, blob.len() as u32));
        self.crcs.push(crc32(&blob));
        self.image.extend_from_slice(&blob);
        record
    }

    /// Open a store file written by [`SequenceStore::write_to`]: read its
    /// whole image once and parse the TOC. A file too short for the
    /// payload its TOC declares is refused here as corruption. The blobs
    /// are not verified at open; every fetch checks its blob's CRC.
    pub fn open(path: &Path) -> Result<SequenceStore, SeqError> {
        SequenceStore::open_with(path, None)
    }

    /// Open like [`SequenceStore::open`], but read the image through a
    /// deterministic fault-injection shim: the TOC comes from the
    /// pristine file, and `plan` applies to every byte after it, at
    /// absolute offsets. This is the durability-test entry point.
    pub fn open_faulty(path: &Path, plan: FaultPlan) -> Result<SequenceStore, SeqError> {
        SequenceStore::open_with(path, Some(plan))
    }

    fn open_with(path: &Path, plan: Option<FaultPlan>) -> Result<SequenceStore, SeqError> {
        let file = File::open(path)?;
        let mut image = read_image(&file, file.metadata()?.len() as usize)?;
        let mut store = read_toc(&mut CountingReader::new(&image[..]))?;
        let payload_start = store.payload_start as usize;
        if let Some(plan) = plan {
            let faulty = read_image(FaultyReader::new(&image[..], plan), image.len())?;
            image.truncate(payload_start);
            image.extend_from_slice(faulty.get(payload_start..).unwrap_or_default());
        }
        let end = (store.blobs.last()).map_or(store.payload_start, |&(at, len)| at + len as u64);
        if (image.len() as u64) < end {
            return Err(SeqError::corrupt_at(
                "store file truncated inside its payload",
                "record",
                image.len() as u64,
            ));
        }
        image.truncate(end as usize);
        store.image = image;
        store.file = KeptFile::new(file);
        Ok(store)
    }

    /// Open a store file and verify every byte of it before returning.
    pub fn read_from(path: &Path) -> Result<SequenceStore, SeqError> {
        let store = SequenceStore::open(path)?;
        first_damage(|each| store.walk(&store.image[..], each))?;
        Ok(store)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
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
        self.lens[record as usize] as usize
    }

    /// Check record `record`'s blob against its stored CRC-32; returns
    /// the blob's offset, which errors name.
    fn check_crc(&self, record: usize, blob: &[u8]) -> Result<u64, SeqError> {
        let (offset, _) = self.blobs[record];
        let (expected, actual) = (self.crcs[record], crc32(blob));
        if actual != expected {
            return Err(SeqError::checksum("record", offset, expected, actual));
        }
        Ok(offset)
    }

    /// Fetch one record's blob, checked against its CRC and counted as
    /// read, with its offset.
    fn fetch(&self, record: u32) -> Result<(&[u8], u64), SeqError> {
        let (offset, len) = self.blobs[record as usize];
        let blob = &self.image[offset as usize..][..len as usize];
        self.check_crc(record as usize, blob)?;
        self.bytes_read.add(len as u64);
        self.records_read.inc();
        Ok((blob, offset))
    }

    /// Decode record `record` to representative bases (the alignment
    /// view; wildcards collapse). Panics if the record fails its
    /// checksum; see [`RecordSource::try_bases`].
    pub fn bases(&self, record: u32) -> Vec<Base> {
        self.try_bases(record)
            .expect("caller chose the panicking accessor; use try_bases on query paths")
    }

    /// Decode record `record` losslessly (wildcards restored).
    pub fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        let (blob, offset) = self.fetch(record)?;
        let decoded = match self.mode {
            StorageMode::Ascii => DnaSeq::from_ascii(blob),
            StorageMode::DirectCoding => PackedSeq::from_bytes(blob).map(|p| p.unpack()),
        };
        decoded.map_err(|e| e.located("record", offset))
    }

    /// Bytes the stored payload blobs occupy, in memory and in the file
    /// alike (the quantity E6 compares).
    pub fn stored_bytes(&self) -> usize {
        self.image.len() - self.payload_start as usize
    }

    /// Total bases across records.
    pub fn total_bases(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Byte offset and length of a record's payload blob (panics if out
    /// of range) — for health reports that locate damage.
    pub fn record_location(&self, record: u32) -> (u64, u32) {
        self.blobs[record as usize]
    }

    /// Where the payload begins: the size of the checksummed prefix
    /// (magic + TOC) of an opened store's file, 0 for a store built in
    /// memory.
    pub fn payload_start(&self) -> u64 {
        self.payload_start
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

    /// Persist the store to `path` — see the module docs for the layout.
    /// The write is atomic: staged in a temp file, `fsync`ed, and renamed
    /// into place, so a crash mid-write never leaves a torn store.
    pub fn write_to(&self, path: &Path) -> Result<(), SeqError> {
        let mut toc = Vec::new();
        toc.push(self.mode.tag());
        write_vu64(&mut toc, self.ids.len() as u64)?;
        for (record, id) in self.ids.iter().enumerate() {
            write_vu64(&mut toc, id.len() as u64)?;
            toc.extend_from_slice(id.as_bytes());
            write_vu64(&mut toc, self.lens[record] as u64)?;
            write_vu64(&mut toc, self.blobs[record].1 as u64)?;
            write_vu64(&mut toc, self.crcs[record] as u64)?;
        }
        let toc_len = u32::try_from(toc.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "store TOC exceeds 4 GiB"))?;

        let mut out = AtomicFile::create(path)?;
        out.write_all(MAGIC_V2)?;
        out.write_all(&toc_len.to_le_bytes())?;
        out.write_all(&crc32(&toc).to_le_bytes())?;
        out.write_all(&toc)?;
        out.write_all(&self.image[self.payload_start as usize..])?;
        out.commit()?;
        Ok(())
    }

    /// The one verification walk over a copy of this store's file, read
    /// from `input` in file order: the checksummed prefix (magic, stored
    /// TOC CRC, full field structure), then every record blob — its CRC,
    /// its structural decode, and its length against the TOC. Touches no
    /// query I/O counter.
    pub fn walk(
        &self,
        input: impl Read,
        each: impl FnMut(WalkStep, Result<u64, SeqError>) -> ControlFlow<()>,
    ) {
        let toc = |bytes: &[u8]| read_toc(&mut CountingReader::new(bytes)).map(drop);
        let blob = |record: usize, blob: &[u8]| {
            let offset = self.check_crc(record, blob)?;
            let decoded = match self.mode {
                StorageMode::Ascii => DnaSeq::from_ascii(blob).map(|_| blob.len()),
                StorageMode::DirectCoding => PackedSeq::from_bytes(blob).map(|p| p.len()),
            };
            match decoded.map_err(|e| e.located("record", offset))? {
                n if n == self.lens[record] as usize => Ok(()),
                _ => Err(SeqError::corrupt_at(
                    "record length disagrees with TOC",
                    "record",
                    offset,
                )),
            }
        };
        let lens = self.blobs.iter().map(|&(_, len)| len);
        walk(input, self.payload_start, toc, lens, blob, each)
    }

    /// [`SequenceStore::walk`] over the file as it is on disk now,
    /// through the handle `open` kept — rot since open shows up here,
    /// though queries never see it. A store that was never opened from
    /// a file has nothing on disk to scrub: the walk is empty.
    pub fn scrub(&self, each: impl FnMut(WalkStep, Result<u64, SeqError>) -> ControlFlow<()>) {
        self.file.scrub(each, |file, each| self.walk(file, each));
    }

    /// Swap the I/O counters for handles registered in `registry`
    /// (carrying over any already-accumulated values). After binding,
    /// [`SequenceStore::bytes_read`] and friends read the registry series.
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
}

/// The name the frozen benchmark harness still uses for the one store
/// type.
pub type OnDiskStore = SequenceStore;

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

    fn try_bases(&self, record: u32) -> Result<Vec<Base>, SeqError> {
        match self.mode {
            StorageMode::Ascii => Ok(self.sequence(record)?.representative_bases()),
            // The 2-bit payload already holds the representative base
            // under every wildcard, so the exception list is validated
            // but never applied: no `Vec<IupacCode>` in between.
            StorageMode::DirectCoding => {
                let (blob, offset) = self.fetch(record)?;
                let packed =
                    PackedSeq::from_bytes(blob).map_err(|e| e.located("record", offset))?;
                Ok(packed.unpack_bases())
            }
        }
    }

    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        SequenceStore::sequence(self, record)
    }

    fn total_bases(&self) -> usize {
        SequenceStore::total_bases(self)
    }
}

/// Check the magic and parse the v2 TOC into a store with no image yet,
/// leaving `input` at the start of the payload. Blob offsets are
/// absolute file offsets.
fn read_toc<R: Read>(input: &mut CountingReader<R>) -> Result<SequenceStore, SeqError> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    check_magic(&magic)?;
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
    let mut store = SequenceStore::new(StorageMode::from_tag(mode_byte[0], V2_PREFIX_LEN)?);
    store.payload_start = V2_PREFIX_LEN + toc_len as u64;
    let mut offset = store.payload_start;
    for _ in 0..read_vu64(&mut toc)? {
        let id_len = read_vu64(&mut toc)? as usize;
        let id = read_exact_chunked(&mut toc, id_len)?;
        store.ids.push(
            String::from_utf8(id)
                .map_err(|_| SeqError::corrupt_at("record id is not UTF-8", "toc", at(&toc)))?,
        );
        let len = u32::try_from(read_vu64(&mut toc)?)
            .map_err(|_| SeqError::corrupt_at("record length overflow", "toc", at(&toc)))?;
        let blob_len = u32::try_from(read_vu64(&mut toc)?)
            .map_err(|_| SeqError::corrupt_at("blob length overflow", "toc", at(&toc)))?;
        let crc = u32::try_from(read_vu64(&mut toc)?)
            .map_err(|_| SeqError::corrupt_at("blob checksum overflow", "toc", at(&toc)))?;
        store.lens.push(len);
        store.blobs.push((offset, blob_len));
        store.crcs.push(crc);
        offset += blob_len as u64;
    }
    if toc.pos() != toc_len as u64 {
        return Err(SeqError::corrupt_at(
            "trailing bytes in TOC",
            "toc",
            at(&toc),
        ));
    }
    Ok(store)
}

/// The sequence store backing a database: one store, or a segmented
/// view over several.
pub enum StoreVariant {
    /// One store (its file image, or one built in memory).
    Disk(SequenceStore),
    /// Ordered set of store parts (live ingestion segments + memtable).
    Segmented(crate::segment::SegmentedStore),
}

impl StoreVariant {
    /// Bytes the stored sequence payloads occupy.
    pub fn stored_bytes(&self) -> usize {
        match self {
            StoreVariant::Disk(s) => s.stored_bytes(),
            StoreVariant::Segmented(s) => s.stored_bytes(),
        }
    }

    /// The store this variant wraps: every [`RecordSource`] call
    /// forwards through this one `match`.
    fn source(&self) -> &dyn RecordSource {
        match self {
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

        // Open reads the image without verifying blobs (TOC intact), but
        // the fetch must refuse the corrupt record — and keep serving
        // intact records.
        let disk = SequenceStore::open(&path).unwrap();
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
            let disk = SequenceStore::open(&path).unwrap();
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
    fn stored_bytes_agree_before_write_and_after_open() {
        for (tag, mode) in [
            ("sba", StorageMode::Ascii),
            ("sbp", StorageMode::DirectCoding),
        ] {
            let mut store = SequenceStore::new(mode);
            for (id, seq) in sample() {
                store.add(id, &seq);
            }
            let path = temp_path(tag);
            store.write_to(&path).unwrap();
            let opened = SequenceStore::open(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(opened.stored_bytes(), store.stored_bytes(), "mode {mode:?}");
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
        let disk = SequenceStore::open(&path).unwrap();
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
        assert!(SequenceStore::open(&path).is_err());
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
