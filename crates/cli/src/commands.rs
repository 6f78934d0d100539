//! The eleven subcommands: generate / build / ingest / search / merge /
//! stat / fsck / bench / serve / profile / version.

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nucdb::{
    CoarseScratch, Collection, CollectionOptions, FineMode, SearchParams, SequenceStore, Shape,
    StorageMode, Strand, INDEX_FILE, STORE_FILE,
};
use nucdb_align::calibrate_gumbel;
use nucdb_index::{
    build_chunked, CompressedIndex, IndexError, IndexParams, ListCodec, Manifest, ShardManifest,
    StopPolicy,
};
use nucdb_obs::json::{num, Value};
use nucdb_obs::{
    CaptureLog, Forensics, ForensicsConfig, HistogramSnapshot, MetricsRegistry, ValueSnapshot,
};
use nucdb_seq::kmer::MAX_K;
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::{FastaReader, FastaRecord, FastaWriter};

use crate::args::{Args, UsageError};

type CommandResult = Result<(), Box<dyn Error>>;

/// Top-level usage text.
pub const USAGE: &str = "\
nucdb — indexed nucleotide homology search (partitioned coarse/fine evaluation)

commands:
  generate   write a synthetic GenBank-like collection as FASTA
             --bases N --out FILE [--seed N] [--families N] [--family-size N]
             [--repeat-prob F] [--queries-out FILE] [--divergence F]
  build      build an on-disk database (index + sequence store) from FASTA
             --collection FILE --db DIR [--k N] [--stride N] [--stop-fraction F]
             [--codec paper|block] [--chunk N] [--shards N]
  ingest     stream FASTA records into a live (segmented) database
             --collection FILE --db DIR [--batch N] [--memtable-max-records N]
             [--max-segments N] [--compact] [--k N] [--stride N]
             [--codec paper|block]
  search     run homology queries (each FASTA record is one query)
             --db DIR --query FILE [--candidates N] [--fine banded:W|full|trace]
             [--both-strands] [--max-results N] [--min-score N] [--evalue] [--mask]
             [--query-stride N] [--explain]
             [--metrics FILE] [--metrics-format prometheus|json]
             [--trace FILE] [--trace-sample N]
  merge      merge two databases into one (record ids of B follow A's)
             --db-a DIR --db-b DIR --out DIR
  stat       per-index health statistics report (text + JSON under results/)
             --db DIR [--out DIR]
  fsck       walk every stored checksum, cross-check each store against
             its index, and report damage (exit 0 clean, 1 payload damage,
             2 header/TOC unreadable)
             --db DIR [--json]
  bench      time a query workload against a database
             --db DIR --query FILE [--repeat N] [--metrics FILE]
             [--metrics-format prometheus|json] [--trace FILE] [--trace-sample N]
             [--trace-max-bytes N] [--flight-recorder N] [--slow-ms MS]
  serve      run a resident HTTP query server over one database
             --db DIR [--live] [--addr HOST:PORT] [--threads N] [--queue-depth N]
             [--deadline-ms N] [--memtable-max-records N] [--max-segments N]
             [--compact-bytes-per-sec N] [--scrub-bytes-per-sec N] [--metrics FILE]
             [--metrics-format prometheus|json] [--trace FILE] [--trace-sample N]
             [--trace-max-bytes N] [--flight-recorder N] [--slow-ms MS]
  profile    aggregate a JSONL capture log or flight-recorder dump into a
             per-stage self-time and work-counter report
             --input FILE [--top N] [--out DIR]
  version    print version, git hash, and compiled codec tiers
  help       this message (or `nucdb help CMD` / `nucdb CMD --help`)

Options may be spelled --key value or --key=value. search also accepts
--tabular for TSV output (query, subject, score, strand,
hits[, bits, evalue]).

--metrics FILE writes a metrics snapshot (counters + latency histograms)
when the command finishes. --trace FILE is the capture log: one JSON line
per captured query, every Nth query (--trace-sample N, default 1) plus,
with --slow-ms MS (bench, serve), every query slower than MS or failed,
each query at most once. --flight-recorder N keeps the last N query
traces in memory; serve enables it by default (N=256; --flight-recorder 0
disables).";

/// Per-subcommand usage text, shown by `nucdb CMD --help` and
/// `nucdb help CMD`.
pub fn usage_for(command: &str) -> Option<&'static str> {
    Some(match command {
        "generate" => {
            "usage: nucdb generate --bases N --out FILE [options]
  --bases N          total bases across all records (default 1000000)
  --out FILE         FASTA output path (a .truth.tsv sidecar is also written)
  --seed N           RNG seed (default 42)
  --families N       planted homologous families
  --family-size N    members per family
  --repeat-prob F    probability a record gains an internal repeat (default 0.25)
  --divergence F     per-base mutation rate within a family (default 0.08)
  --queries-out FILE also write one query per family"
        }
        "build" => {
            "usage: nucdb build --collection FILE --db DIR [options]
  --collection FILE  input FASTA
  --db DIR           output database directory
  --k N              interval (k-mer) length, 1..=32 (default 8)
  --stride N         sampling stride across each record, 1 or more (default 1)
  --stop-fraction F  drop intervals present in more than F of records
  --codec NAME       postings codec: paper|block
                     (block = NUCIDX04 fast-decode tier with skip pointers)
  --chunk N          records per in-memory build chunk (default 2048)
  --shards N         partition the collection into N shards (a SHARDS
                     manifest plus one database directory per shard;
                     search/serve/stat/fsck detect the layout). Answers
                     are bit-identical to an unsharded build"
        }
        "search" => {
            "usage: nucdb search --db DIR --query FILE [options]
  --db DIR           database directory (from `nucdb build`)
  --query FILE       FASTA of queries (each record is one query)
  --candidates N     coarse candidates to align finely
  --fine M           fine alignment: banded[:W]|full|trace
  --max-results N    answers to keep per query (default 20)
  --min-score N      drop answers scoring below N
  --both-strands     also search the reverse complement
  --evalue           report bit scores and e-values
  --mask             DUST-mask low-complexity query regions
  --query-stride N   sample query intervals at stride N
  --explain          print the query plan (lists consulted, ids and blocks
                     decoded, survivors, per-candidate fine outcome)
  --tabular          TSV output
  --metrics FILE     write a metrics snapshot when done
  --metrics-format F prometheus (default) or json
  --trace FILE       capture log: one JSON line per logged query
  --trace-sample N   log every Nth query (default 1)

--db may also be a sharded root (from `nucdb build --shards N`): the
shards are searched as the parts of one view, bit-identical to an
unsharded build; a warning names any shard that failed to answer.
--explain, --trace, --metrics and request ids work as for any database
(a sharded plan has one segment row per shard)"
        }
        "ingest" => {
            "usage: nucdb ingest --collection FILE --db DIR [options]
  --collection FILE  input FASTA (every record is one insert)
  --db DIR           live database directory (created with a segment
                     manifest if absent; shape options below only apply
                     on creation — reopen recovers them from the manifest)
  --batch N          records per insert batch (default 256)
  --memtable-max-records N  auto-flush threshold (default 1024)
  --max-segments N   compaction falls back to smallest-pair above this
  --compact          run compaction to quiescence after the final flush
  --k N              interval (k-mer) length, 1..=32 (default 8)
  --stride N         sampling stride across each record, 1 or more (default 1)
  --codec NAME       postings codec: paper|block"
        }
        "merge" => {
            "usage: nucdb merge --db-a DIR --db-b DIR --out DIR
  record ids of B follow A's in the merged database"
        }
        "stat" => {
            "usage: nucdb stat --db DIR [--out DIR]
  per-index health statistics: list-length / bits-per-posting / skew
  histograms, the ten heaviest intervals (candidates for stopping),
  skip-table density, codec tier, and bytes by section.
  Prints text and writes STAT.txt + STAT.json under --out (default
  results/). A live directory (segment manifest present) gets a manifest
  summary plus the same report for every segment; a sharded root (SHARDS
  manifest present) gets the same report for every shard"
        }
        "fsck" => {
            "usage: nucdb fsck --db DIR [--json]
  walk every stored checksum (index header, every postings list, store
  TOC, every record blob) and report all damage with section + offset.
  Last, for each index + store pair that walked clean, cross-check the
  two: record counts and every record length must agree, and sampled
  intervals of stored records must be in the index (payload damage).
  A live directory (segment manifest present) is walked via the manifest:
  every referenced segment is verified and unreferenced (orphaned) files
  are flagged. A sharded root (SHARDS manifest present) verifies every
  shard directory and reports the worst shard's condition as the exit
  code. exit 0 = clean, 1 = payload damage or orphans,
  2 = header/TOC/manifest unreadable or a segment/shard file missing"
        }
        "bench" => {
            "usage: nucdb bench --db DIR --query FILE [options]
  --repeat N         repetitions per query (default 3)
  --metrics FILE     write a metrics snapshot when done
  --metrics-format F prometheus (default) or json
  --trace FILE       capture log: one JSON line per logged query
  --trace-sample N   log every Nth query (default 1)
  --trace-max-bytes N rotate the log at N bytes (one .1 predecessor is kept)
  --flight-recorder N keep the last N query traces; a slowest-query table
                     is printed when the run ends
  --slow-ms MS       always capture queries slower than MS milliseconds, and
                     failed ones, in the slow ring and the log"
        }
        "serve" => {
            "usage: nucdb serve --db DIR [options]
  --db DIR           database directory (from `nucdb build`, or a live
                     directory from `nucdb ingest` with --live)
  --live             serve a segmented live database: POST /insert and
                     POST /flush are accepted, a background compactor
                     runs, and /stats gains a live block
  --memtable-max-records N  live: auto-flush threshold (default 1024)
  --max-segments N   live: compaction fallback threshold (default 8)
  --compact-bytes-per-sec N  live: compaction I/O budget (default 8388608;
                     0 disables background compaction)
  --addr HOST:PORT   listen address (default 127.0.0.1:7878)
  --threads N        worker threads handling connections (default 4)
  --queue-depth N    admission queue capacity; overflow is shed with 503
  --deadline-ms N    max queue wait before a request is dropped (default 5000)
  --metrics FILE     write a final metrics snapshot after draining
  --metrics-format F prometheus (default) or json
  --trace FILE       capture log: one JSON line per logged query
  --trace-sample N   log every Nth query (default 1)
  --trace-max-bytes N rotate the log at N bytes (one .1 predecessor is kept)
  --flight-recorder N keep the last N query traces (default 256; 0 = off)
  --slow-ms MS       always capture queries slower than MS milliseconds, and
                     failed ones, in the slow ring and the log
  --scrub-bytes-per-sec N background scrub I/O budget (default 4194304;
                     0 disables the scrubber)

A sharded root (SHARDS manifest from `nucdb build --shards N`) is
detected automatically and searched as one view of its shards: every
per-query answer carries a coverage object, and failed shards degrade
the answer instead of erroring it.
/metrics gains per-shard nucdb_shard_* families; request ids,
/debug/queries and /debug/slow work as for any database (a partial
answer is filed with the errors).

endpoints: POST /search (FASTA or JSON body; \"explain\": true returns the
plan), GET /metrics (Prometheus), GET /healthz, GET /readyz (503 until the
first scrub pass over header + TOC), GET /stats, GET /debug/queries,
GET /debug/slow. Every response carries an X-Request-Id. SIGINT/SIGTERM
drain and exit cleanly."
        }
        "profile" => {
            "usage: nucdb profile --input FILE [options]
  --input FILE       JSONL dump: a --trace capture log, or a saved
                     /debug/queries|/debug/slow response body
  --top N            slowest queries to tabulate (default 10)
  --out DIR          also write PROFILE.txt + PROFILE.json here
                     (default results/)"
        }
        "version" => "usage: nucdb version\n  print version, git hash, and compiled codec tiers",
        _ => return None,
    })
}

/// Heaviest lists shown per strand by `nucdb search --explain`.
const EXPLAIN_MAX_LISTS: usize = 12;

/// `nucdb generate`
pub fn generate(raw: &[String]) -> CommandResult {
    let args = Args::parse(
        "generate",
        raw,
        &[
            "bases",
            "out",
            "seed",
            "families",
            "family-size",
            "repeat-prob",
            "queries-out",
            "divergence",
        ],
        &[],
    )?;
    let bases: usize = args.get_or("bases", 1_000_000)?;
    let out = PathBuf::from(args.required("out")?);
    let seed: u64 = args.get_or("seed", 42)?;
    let divergence: f64 = args.get_or("divergence", 0.08)?;

    let mut spec = CollectionSpec::sized(seed, bases);
    spec.num_families = args.get_or("families", spec.num_families)?;
    spec.family_size = args.get_or("family-size", spec.family_size)?;
    spec.repeat_prob = args.get_or("repeat-prob", 0.25)?;
    spec.mutation = MutationModel::standard(divergence);

    let coll = SyntheticCollection::generate(&spec);
    let mut writer = FastaWriter::new(BufWriter::new(File::create(&out)?));
    for record in &coll.records {
        writer.write_record(&FastaRecord::new(record.id.clone(), record.seq.clone()))?;
    }
    writer.into_inner()?;
    println!(
        "wrote {} records / {} bases to {}",
        coll.records.len(),
        coll.total_bases(),
        out.display()
    );

    // Ground truth sidecar: family -> member record ids.
    let truth_path = out.with_extension("truth.tsv");
    let mut truth = BufWriter::new(File::create(&truth_path)?);
    for (f, family) in coll.families.iter().enumerate() {
        let members: Vec<String> = family
            .member_ids
            .iter()
            .map(|&m| coll.records[m as usize].id.clone())
            .collect();
        writeln!(truth, "fam{f:02}\t{}", members.join("\t"))?;
    }
    truth.flush()?;
    println!(
        "wrote planted-family ground truth to {}",
        truth_path.display()
    );

    if let Some(qpath) = args.get("queries-out") {
        let qpath = PathBuf::from(qpath);
        let mut writer = FastaWriter::new(BufWriter::new(File::create(&qpath)?));
        for f in 0..coll.families.len() {
            let query = coll.query_for_family(f, 0.6, &MutationModel::standard(divergence));
            writer.write_record(&FastaRecord::new(format!("query_fam{f:02}"), query))?;
        }
        writer.into_inner()?;
        println!(
            "wrote {} queries to {}",
            coll.families.len(),
            qpath.display()
        );
    }
    Ok(())
}

fn parse_codec(name: &str) -> Result<ListCodec, UsageError> {
    Ok(match name {
        "paper" => ListCodec::Paper,
        "block" => ListCodec::Block,
        _ => {
            return Err(UsageError(format!(
                "unknown codec {name:?} (expected paper|block)"
            )))
        }
    })
}

/// `--k` and `--stride` as index parameters, range-checked here because
/// [`IndexParams`] asserts its ranges.
fn interval_params(args: &Args) -> Result<IndexParams, UsageError> {
    let k: usize = args.get_or("k", 8)?;
    if !(1..=MAX_K).contains(&k) {
        return Err(UsageError(format!(
            "--k {k} is out of range (allowed 1..={MAX_K})"
        )));
    }
    let stride: usize = args.get_or("stride", 1)?;
    if stride == 0 {
        return Err(UsageError(
            "--stride 0 is out of range (allowed 1 or more)".to_string(),
        ));
    }
    Ok(IndexParams::new(k).with_stride(stride))
}

/// `nucdb build`
pub fn build(raw: &[String]) -> CommandResult {
    let args = Args::parse(
        "build",
        raw,
        &[
            "collection",
            "db",
            "k",
            "stride",
            "stop-fraction",
            "codec",
            "chunk",
            "shards",
        ],
        &[],
    )?;
    let collection = PathBuf::from(args.required("collection")?);
    let db_dir = PathBuf::from(args.required("db")?);
    let mut params = interval_params(&args)?;
    let codec = parse_codec(args.get("codec").unwrap_or("paper"))?;
    let chunk: usize = args.get_or("chunk", 2048)?;

    if let Some(frac) = args.get("stop-fraction") {
        let frac: f64 = frac
            .parse()
            .map_err(|_| UsageError(format!("--stop-fraction: cannot parse {frac:?}")))?;
        params = params.with_stopping(StopPolicy::DfFraction(frac));
    }
    let shards: usize = args.get_or("shards", 1)?;
    if shards == 0 {
        return Err(UsageError("--shards must be positive".to_string()).into());
    }
    if shards > 1 {
        return build_sharded(
            &collection,
            &db_dir,
            shards,
            nucdb::DbConfig {
                index: params,
                codec,
                ..nucdb::DbConfig::default()
            },
        );
    }

    std::fs::create_dir_all(&db_dir)?;
    let start = std::time::Instant::now();

    // Stream the FASTA once, filling the store; the index build re-reads
    // record bases from the store (bounded memory via the chunked build).
    let mut store = SequenceStore::new(StorageMode::DirectCoding);
    let reader = FastaReader::new(BufReader::new(File::open(&collection)?));
    for record in reader {
        let record = record?;
        store.add(record.id, &record.seq);
    }
    println!(
        "loaded {} records / {} bases ({:.1} ms)",
        store.len(),
        store.total_bases(),
        start.elapsed().as_secs_f64() * 1e3
    );

    let t_index = std::time::Instant::now();
    let index = build_chunked(
        params,
        codec,
        (0..store.len() as u32).map(|r| store.bases(r)),
        chunk,
        &db_dir.join("tmp_runs"),
    )?;
    let _ = std::fs::remove_dir_all(db_dir.join("tmp_runs"));
    println!(
        "built index: {} distinct intervals, {} postings entries ({:.1} ms)",
        index.distinct_intervals(),
        index.stats().postings_entries,
        t_index.elapsed().as_secs_f64() * 1e3
    );

    nucdb_index::write_index(&index, &db_dir.join(INDEX_FILE))?;
    store.write_to(&db_dir.join(STORE_FILE))?;
    println!(
        "database written to {} (index {} B, store {} B)",
        db_dir.display(),
        std::fs::metadata(db_dir.join(INDEX_FILE))?.len(),
        std::fs::metadata(db_dir.join(STORE_FILE))?.len(),
    );
    Ok(())
}

/// `nucdb build --shards N`: partition the collection into N contiguous
/// slices and write a sharded root — `SHARDS` manifest plus one plain
/// database directory per shard, built in parallel. Search over the
/// root is bit-identical to an unsharded build of the same FASTA.
fn build_sharded(
    collection: &Path,
    db_dir: &Path,
    shards: usize,
    config: nucdb::DbConfig,
) -> CommandResult {
    let start = std::time::Instant::now();
    let mut records: Vec<(String, nucdb_seq::DnaSeq)> = Vec::new();
    let mut bases = 0u64;
    let reader = FastaReader::new(BufReader::new(File::open(collection)?));
    for record in reader {
        let record = record?;
        bases += record.seq.len() as u64;
        records.push((record.id, record.seq));
    }
    println!(
        "loaded {} records / {bases} bases ({:.1} ms)",
        records.len(),
        start.elapsed().as_secs_f64() * 1e3
    );
    let t_build = std::time::Instant::now();
    let counts = nucdb::build_sharded_root(db_dir, records, shards, &config)?;
    println!(
        "built {} shards in parallel ({:.1} ms):",
        counts.len(),
        t_build.elapsed().as_secs_f64() * 1e3
    );
    let mut base = 0u64;
    for (i, count) in counts.iter().enumerate() {
        let name = nucdb_index::shard_dir_name(i);
        println!(
            "  {name}: {count} records, ids {base}..{}",
            base + u64::from(*count)
        );
        base += u64::from(*count);
    }
    println!("sharded root written to {}", db_dir.display());
    Ok(())
}

/// `nucdb ingest`
pub fn ingest(raw: &[String]) -> CommandResult {
    let args = Args::parse(
        "ingest",
        raw,
        &[
            "collection",
            "db",
            "k",
            "stride",
            "codec",
            "batch",
            "memtable-max-records",
            "max-segments",
        ],
        &["compact"],
    )?;
    let collection = PathBuf::from(args.required("collection")?);
    let db_dir = PathBuf::from(args.required("db")?);
    let batch: usize = args.get_or("batch", 256)?;
    if batch == 0 {
        return Err(UsageError("--batch must be positive".to_string()).into());
    }

    // Index/store shape options only matter when the live database is
    // created by this run; on reopen the manifest is authoritative.
    let config = nucdb::DbConfig {
        index: interval_params(&args)?,
        codec: parse_codec(args.get("codec").unwrap_or("paper"))?,
        ..nucdb::DbConfig::default()
    };

    let mut opts = nucdb::LiveOptions::default();
    opts.memtable_max_records = args.get_or("memtable-max-records", opts.memtable_max_records)?;
    opts.max_segments = args.get_or("max-segments", opts.max_segments)?;

    std::fs::create_dir_all(&db_dir)?;
    let live = nucdb::LiveDatabase::open_or_create(&db_dir, &config, opts)?;
    let before = live.status();
    println!(
        "live database at {}: {} segments, {} memtable records (manifest v{})",
        db_dir.display(),
        before.segments.len(),
        before.memtable_records,
        before.manifest_version,
    );

    let start = std::time::Instant::now();
    let mut inserted = 0u64;
    let mut bases = 0u64;
    let reader = FastaReader::new(BufReader::new(File::open(&collection)?));
    let mut pending: Vec<(String, nucdb_seq::DnaSeq)> = Vec::with_capacity(batch);
    for record in reader {
        let record = record?;
        bases += record.seq.len() as u64;
        pending.push((record.id, record.seq));
        if pending.len() >= batch {
            inserted += live.insert_batch(std::mem::take(&mut pending))?.inserted as u64;
        }
    }
    if !pending.is_empty() {
        inserted += live.insert_batch(pending)?.inserted as u64;
    }
    live.flush()?;

    if args.flag("compact") {
        for run in live.compact_all()? {
            println!(
                "compacted segments {:?}: {} B in, {} B out ({:.1} ms)",
                run.inputs,
                run.input_bytes,
                run.output_bytes,
                run.nanos as f64 / 1e6,
            );
        }
    }

    let status = live.status();
    let secs = start.elapsed().as_secs_f64();
    println!(
        "ingested {inserted} records / {bases} bases in {:.2} s ({:.0} records/s)",
        secs,
        inserted as f64 / secs.max(1e-9),
    );
    println!(
        "now: {} segments, {} flushes this run, manifest v{}",
        status.segments.len(),
        status.flushes,
        status.manifest_version,
    );
    Ok(())
}

/// Shared observability option names for `search`, `bench`, and `serve`.
const OBS_VALUE_OPTS: [&str; 4] = ["metrics", "metrics-format", "trace", "trace-sample"];

/// The capture options `bench` and `serve` add: log rotation and the
/// flight recorder's rings.
const CAPTURE_VALUE_OPTS: [&str; 3] = ["trace-max-bytes", "flight-recorder", "slow-ms"];

/// Where and how to dump the metrics snapshot after a run.
struct MetricsOutput {
    registry: Arc<MetricsRegistry>,
    path: PathBuf,
    json: bool,
}

impl MetricsOutput {
    /// Snapshot the registry and write the exposition file.
    fn write(&self) -> Result<(), Box<dyn Error>> {
        let snapshot = self.registry.snapshot();
        let text = if self.json {
            let mut rendered = snapshot.to_json().render();
            rendered.push('\n');
            rendered
        } else {
            snapshot.to_prometheus()
        };
        std::fs::write(&self.path, text)?;
        println!("metrics written to {}", self.path.display());
        Ok(())
    }

    /// The end-to-end query latency distribution, if any queries ran.
    fn query_latency(&self) -> Option<HistogramSnapshot> {
        match self.registry.snapshot().get("nucdb_query_latency_ns") {
            Some(ValueSnapshot::Histogram(hist)) if hist.count() > 0 => Some(hist.clone()),
            _ => None,
        }
    }
}

/// The shared observability options, validated before anything heavy runs.
///
/// `--metrics FILE` registers the full metric bundle and arranges for a
/// snapshot to be written when the command finishes, as Prometheus text
/// or JSON per `--metrics-format`. The rest configure the one capture
/// handle: `--trace FILE` is its JSONL log (`--trace-sample N` logs every
/// Nth query, `--trace-max-bytes N` rotates the file), `--flight-recorder
/// N` sizes the recent ring and `--slow-ms MS` arms tail sampling.
struct ObsOptions {
    metrics: Option<(PathBuf, bool)>,
    /// The capture handle's settings, its log left out (`None` = capture
    /// off).
    capture: Option<ForensicsConfig>,
    /// Where the capture log goes, and its size cap in bytes.
    log: Option<(PathBuf, Option<u64>)>,
}

impl ObsOptions {
    fn parse(args: &Args) -> Result<ObsOptions, UsageError> {
        ObsOptions::parse_with(args, 0)
    }

    /// Parse with a command-specific flight-recorder default capacity
    /// (`serve` keeps the recorder on unless `--flight-recorder 0`).
    fn parse_with(args: &Args, default_flight: usize) -> Result<ObsOptions, UsageError> {
        let path = args.get("trace").map(PathBuf::from);
        for needs_log in ["trace-sample", "trace-max-bytes"] {
            if path.is_none() && args.get(needs_log).is_some() {
                return Err(UsageError(format!("--{needs_log} requires --trace")));
            }
        }
        let sample_every: u64 = args.get_or("trace-sample", 1)?;
        if sample_every == 0 {
            return Err(UsageError("--trace-sample must be positive".to_string()));
        }
        let max_bytes: Option<u64> = match args.get("trace-max-bytes") {
            Some(_) => Some(args.get_or("trace-max-bytes", 0)?),
            None => None,
        };
        if max_bytes == Some(0) {
            return Err(UsageError("--trace-max-bytes must be positive".to_string()));
        }
        let capacity: usize = args.get_or("flight-recorder", default_flight)?;
        let slow_ms: f64 = args.get_or("slow-ms", 0.0)?;
        // NaN fails every comparison and infinity saturates to "never
        // slow": both would quietly leave tail sampling off.
        if !slow_ms.is_finite() || slow_ms < 0.0 {
            return Err(UsageError(
                "--slow-ms must be a non-negative number".to_string(),
            ));
        }
        let tail = slow_ms > 0.0;
        // The log, a ring or a slow threshold each turn capture on. A
        // slow threshold alone also keeps the default recent ring, so
        // bench can print its slowest-query table.
        let capture = (path.is_some() || capacity > 0 || tail).then(|| ForensicsConfig {
            recent_capacity: if capacity == 0 && tail {
                ForensicsConfig::default().recent_capacity
            } else {
                capacity
            },
            slow_threshold_ns: if tail {
                (slow_ms * 1e6) as u64
            } else {
                u64::MAX
            },
            sample_every,
            ..ForensicsConfig::default()
        });
        let metrics = match args.get("metrics") {
            Some(path) => {
                let json = match args.get("metrics-format").unwrap_or("prometheus") {
                    "prometheus" => false,
                    "json" => true,
                    other => {
                        return Err(UsageError(format!(
                            "unknown metrics format {other:?} (expected prometheus|json)"
                        )))
                    }
                };
                Some((PathBuf::from(path), json))
            }
            None if args.get("metrics-format").is_some() => {
                return Err(UsageError(
                    "--metrics-format requires --metrics".to_string(),
                ))
            }
            None => None,
        };
        Ok(ObsOptions {
            metrics,
            capture,
            log: path.map(|path| (path, max_bytes)),
        })
    }

    /// The capture handle, its log created now (live mode hands it to
    /// the segment layer, which re-binds it to every query snapshot).
    fn forensics(&self) -> std::io::Result<Forensics> {
        let Some(config) = &self.capture else {
            return Ok(Forensics::disabled());
        };
        let log = match &self.log {
            Some((path, max_bytes)) => Some(CaptureLog::create(path, *max_bytes)?),
            None => None,
        };
        Ok(Forensics::new(ForensicsConfig {
            log,
            ..config.clone()
        }))
    }

    /// The registry a command's queries record into: live only when
    /// `--metrics` asked for a snapshot.
    fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::new(match self.metrics {
            Some(_) => MetricsRegistry::new(),
            None => MetricsRegistry::disabled(),
        })
    }

    /// Open whatever `dir` holds (plain, live read-only, or sharded)
    /// bound to `registry`, with the requested sinks attached. Shards
    /// that would not open are named on stderr; the set still answers.
    fn open(
        &self,
        dir: &Path,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Collection, Box<dyn Error>> {
        let collection = Collection::open(
            dir,
            &CollectionOptions {
                registry: Arc::clone(registry),
                forensics: self.forensics()?,
            },
        )?;
        if let Some(set) = collection.as_sharded() {
            for (name, _, records, error) in set.shard_rows() {
                if let Some(cause) = error {
                    eprintln!("warning: {name} ({records} records) is unavailable: {cause}");
                }
            }
        }
        Ok(collection)
    }

    /// Where `--metrics` wants `registry`'s snapshot written, if it does.
    fn metrics_output(&self, registry: Arc<MetricsRegistry>) -> Option<MetricsOutput> {
        self.metrics.as_ref().map(|(path, json)| MetricsOutput {
            registry,
            path: path.clone(),
            json: *json,
        })
    }
}

/// The one-line description `search`, `bench`, and `serve` print after
/// opening a collection.
fn describe(collection: &Collection) -> String {
    match collection.as_sharded() {
        Some(set) => format!(
            "sharded database: {} records across {} shards",
            set.len(),
            set.num_shards()
        ),
        None => format!("database: {} records", collection.len()),
    }
}

/// `+`, `-`, or `?` for a result's strand.
fn strand_symbol(strand: Strand) -> char {
    match strand {
        Strand::Forward => '+',
        Strand::Reverse => '-',
        Strand::Both => '?',
    }
}

fn parse_fine(spec: &str) -> Result<FineMode, UsageError> {
    if spec == "full" {
        return Ok(FineMode::Full);
    }
    if spec == "trace" {
        return Ok(FineMode::FullWithTraceback);
    }
    if let Some(rest) = spec.strip_prefix("banded") {
        let half_width = match rest.strip_prefix(':') {
            None if rest.is_empty() => 24,
            Some(w) => w
                .parse()
                .map_err(|_| UsageError(format!("--fine banded:{w}: bad half-width")))?,
            _ => return Err(UsageError(format!("bad fine spec {spec:?}"))),
        };
        return Ok(FineMode::Banded { half_width });
    }
    Err(UsageError(format!(
        "unknown fine mode {spec:?} (expected banded[:W]|full|trace)"
    )))
}

/// `nucdb search`
pub fn search(raw: &[String]) -> CommandResult {
    let mut value_opts = vec![
        "db",
        "query",
        "candidates",
        "fine",
        "max-results",
        "min-score",
        "query-stride",
    ];
    value_opts.extend(OBS_VALUE_OPTS);
    let args = Args::parse(
        "search",
        raw,
        &value_opts,
        &["both-strands", "evalue", "mask", "tabular", "explain"],
    )?;
    let tabular = args.flag("tabular");
    let db_dir = PathBuf::from(args.required("db")?);
    let query_path = PathBuf::from(args.required("query")?);

    let mut params = SearchParams::default();
    params.max_candidates = args.get_or("candidates", params.max_candidates)?;
    params.max_results = args.get_or("max-results", 20)?;
    params.min_score = args.get_or("min-score", params.min_score)?;
    if let Some(spec) = args.get("fine") {
        params.fine = parse_fine(spec)?;
    }
    if args.flag("both-strands") {
        params.strand = Strand::Both;
    }
    if args.flag("mask") {
        params.mask = Some(nucdb_seq::DustParams::default());
    }
    params.explain = args.flag("explain");
    params.query_stride = args.get_or("query-stride", params.query_stride)?;

    let obs = ObsOptions::parse(&args)?;
    let registry = obs.registry();
    let collection = obs.open(&db_dir, &registry)?;
    let metrics_out = obs.metrics_output(registry);
    if tabular {
        println!(
            "#query\tsubject\tscore\tstrand\thits{}",
            if args.flag("evalue") {
                "\tbits\tevalue"
            } else {
                ""
            }
        );
    } else {
        println!("{}", describe(&collection));
    }

    // Summing the collection is O(records): only when e-values are wanted.
    let mean_len = args
        .flag("evalue")
        .then(|| (collection.total_bases() as usize / collection.len().max(1)).max(1));
    let reader = FastaReader::new(BufReader::new(File::open(&query_path)?));
    let mut scratch = CoarseScratch::new();
    for record in reader {
        let record = record?;
        let fit = mean_len.map(|mean_len| {
            calibrate_gumbel(
                &params.scheme,
                record.seq.len().max(16),
                mean_len,
                48,
                0xCAFE,
            )
        });
        // The query's FASTA id doubles as the request id, so trace lines
        // and flight-recorder entries are joinable with the output.
        let outcome =
            collection.search_with_id(&record.seq, &params, &mut scratch, Some(&record.id))?;
        // A sharded answer may be partial: the query still completes,
        // and a warning on stderr names each shard that did not answer.
        let degraded = outcome.coverage.as_ref().filter(|c| !c.coverage.is_full());
        if let Some(report) = degraded {
            eprintln!("warning: query {} answered by {report}", record.id);
        }
        // (bit score, e-value) of one answer, when asked for.
        let significance = |result: &nucdb::SearchResult| {
            fit.as_ref().map(|fit| {
                let target_len = collection.record_len(result.record);
                (
                    fit.bit_score(result.score),
                    fit.evalue(record.seq.len(), target_len, result.score),
                )
            })
        };
        if tabular {
            for result in &outcome.results {
                let tail = significance(result)
                    .map(|(bits, evalue)| format!("\t{bits:.1}\t{evalue:.2e}"))
                    .unwrap_or_default();
                println!(
                    "{}\t{}\t{}\t{}\t{}{}",
                    record.id,
                    result.id,
                    result.score,
                    strand_symbol(result.strand),
                    result.coarse_hits,
                    tail
                );
            }
            if let Some(plan) = &outcome.explain {
                // Comment-prefixed so the TSV stays machine-parseable.
                for line in plan.render_text(EXPLAIN_MAX_LISTS).lines() {
                    println!("# {line}");
                }
            }
            continue;
        }
        let from_shards = outcome
            .coverage
            .as_ref()
            .map(|c| {
                format!(
                    " from {}/{} shards",
                    c.coverage.shards_ok, c.coverage.shards_total
                )
            })
            .unwrap_or_default();
        println!(
            "\nquery {} ({} bases): {} answers{from_shards}  [coarse {:.2} ms, fine {:.2} ms, {} lists, {} postings]",
            record.id,
            record.seq.len(),
            outcome.results.len(),
            outcome.stats.coarse_nanos as f64 / 1e6,
            outcome.stats.fine_nanos as f64 / 1e6,
            outcome.stats.lists_fetched,
            outcome.stats.postings_decoded,
        );
        for (rank, result) in outcome.results.iter().enumerate() {
            let significance = significance(result)
                .map(|(bits, evalue)| format!("  bits {bits:>7.1}  E {evalue:.2e}"))
                .unwrap_or_default();
            println!(
                "  {:>3}. {:<14} score {:>6}  strand {}  hits {:>5}{}",
                rank + 1,
                result.id,
                result.score,
                strand_symbol(result.strand),
                result.coarse_hits,
                significance,
            );
            if let Some(alignment) = &result.alignment {
                println!(
                    "       q[{}..{}] x t[{}..{}]  identity {:.1}%  {}",
                    alignment.query_range.start,
                    alignment.query_range.end,
                    alignment.target_range.start,
                    alignment.target_range.end,
                    alignment.identity() * 100.0,
                    alignment.cigar_string(),
                );
            }
        }
        if let Some(plan) = &outcome.explain {
            print!("{}", plan.render_text(EXPLAIN_MAX_LISTS));
        }
    }
    collection.forensics().flush();
    if let Some(out) = &metrics_out {
        out.write()?;
    }
    Ok(())
}

/// `nucdb merge`
pub fn merge(raw: &[String]) -> CommandResult {
    let args = Args::parse("merge", raw, &["db-a", "db-b", "out"], &[])?;
    let dir_a = PathBuf::from(args.required("db-a")?);
    let dir_b = PathBuf::from(args.required("db-b")?);
    let out = PathBuf::from(args.required("out")?);

    let index_a = CompressedIndex::open(&dir_a.join(INDEX_FILE))?;
    let index_b = CompressedIndex::open(&dir_b.join(INDEX_FILE))?;
    let merged = nucdb_index::merge_indexes(&index_a, &index_b)?;

    let mut store = SequenceStore::open(&dir_a.join(STORE_FILE))?;
    let store_b = SequenceStore::open(&dir_b.join(STORE_FILE))?;
    store.extend_from_store(&store_b)?;

    std::fs::create_dir_all(&out)?;
    nucdb_index::write_index(&merged, &out.join(INDEX_FILE))?;
    store.write_to(&out.join(STORE_FILE))?;
    println!(
        "merged {} + {} records into {} ({} distinct intervals)",
        index_a.num_records(),
        index_b.num_records(),
        out.display(),
        merged.distinct_intervals()
    );
    Ok(())
}

/// `nucdb bench`
pub fn bench(raw: &[String]) -> CommandResult {
    let mut value_opts = vec!["db", "query", "repeat"];
    value_opts.extend(OBS_VALUE_OPTS);
    value_opts.extend(CAPTURE_VALUE_OPTS);
    let args = Args::parse("bench", raw, &value_opts, &[])?;
    let db_dir = PathBuf::from(args.required("db")?);
    let query_path = PathBuf::from(args.required("query")?);
    let repeat: usize = args.get_or("repeat", 3)?;

    let obs = ObsOptions::parse(&args)?;
    let registry = obs.registry();
    let collection = obs.open(&db_dir, &registry)?;
    let metrics_out = obs.metrics_output(registry);
    // Per-query I/O tallies exist where there is one plain index.
    let parts = collection.parts();
    let disk_index = match parts[..] {
        [("", index, _)] => Some(index),
        _ => None,
    };
    let params = SearchParams::default();
    let queries: Vec<_> = FastaReader::new(BufReader::new(File::open(&query_path)?))
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "{}; {} queries x {} repetitions",
        describe(&collection),
        queries.len(),
        repeat
    );

    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "query", "best ms", "mean ms", "answers", "bytes read", "lists"
    );
    let mut scratch = CoarseScratch::new();
    for record in &queries {
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        let mut answers = 0usize;
        let mut bytes = 0u64;
        let mut lists = 0u64;
        for _ in 0..repeat.max(1) {
            if let Some(disk) = disk_index {
                disk.reset_io_counters();
            }
            let t0 = std::time::Instant::now();
            let outcome =
                collection.search_with_id(&record.seq, &params, &mut scratch, Some(&record.id))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            best = best.min(ms);
            total += ms;
            answers = outcome.results.len();
            if let Some(disk) = disk_index {
                bytes = disk.bytes_read();
                lists = disk.lists_read();
            }
        }
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>10} {:>12} {:>8}",
            record.id,
            best,
            total / repeat.max(1) as f64,
            answers,
            bytes,
            lists
        );
    }
    let forensics = collection.forensics();
    forensics.flush();
    print_slowest(&forensics, 5);
    if let Some(out) = &metrics_out {
        if let Some(latency) = out.query_latency() {
            println!(
                "query latency: p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
                latency.p50() as f64 / 1e6,
                latency.p90() as f64 / 1e6,
                latency.p99() as f64 / 1e6,
                latency.max as f64 / 1e6,
            );
        }
        out.write()?;
    }
    Ok(())
}

/// Print the flight recorder's slowest retained queries (no-op when the
/// recent ring is off).
fn print_slowest(forensics: &Forensics, top: usize) {
    if forensics.recent_capacity() == 0 {
        return;
    }
    let mut entries = forensics.recent();
    entries.sort_by_key(|e| std::cmp::Reverse(e.trace.total_ns));
    println!(
        "\nslowest queries (flight recorder, {} retained):",
        entries.len()
    );
    println!(
        "{:<20} {:>10} {:>8}  reason",
        "query", "total ms", "results"
    );
    for entry in entries.iter().take(top) {
        let id = if entry.trace.request_id.is_empty() {
            "-"
        } else {
            &entry.trace.request_id
        };
        println!(
            "{:<20} {:>10.3} {:>8}  {}",
            id,
            entry.trace.total_ns as f64 / 1e6,
            entry.trace.results,
            entry.reason.as_str(),
        );
    }
}

/// `nucdb serve`
pub fn serve(raw: &[String]) -> CommandResult {
    let mut value_opts = vec![
        "db",
        "addr",
        "threads",
        "queue-depth",
        "deadline-ms",
        "scrub-bytes-per-sec",
        "memtable-max-records",
        "max-segments",
        "compact-bytes-per-sec",
    ];
    value_opts.extend(OBS_VALUE_OPTS);
    value_opts.extend(CAPTURE_VALUE_OPTS);
    let args = Args::parse("serve", raw, &value_opts, &["live"])?;
    // A zero deadline expires every request, and a zero thread count or
    // queue depth is clamped to 1 while the startup line still prints 0:
    // refuse them before opening anything.
    for name in ["threads", "queue-depth", "deadline-ms"] {
        if args.get_or(name, 1u64)? == 0 {
            return Err(UsageError(format!("--{name} must be positive")).into());
        }
    }
    let db_dir = PathBuf::from(args.required("db")?);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let live_mode = args.flag("live");

    let mut config = nucdb_serve::ServeConfig::default();
    config.threads = args.get_or("threads", config.threads)?;
    config.queue_depth = args.get_or("queue-depth", config.queue_depth)?;
    config.deadline = std::time::Duration::from_millis(args.get_or("deadline-ms", 5_000u64)?);
    config.scrub_bytes_per_sec = args.get_or("scrub-bytes-per-sec", config.scrub_bytes_per_sec)?;
    config.compact_bytes_per_sec =
        args.get_or("compact-bytes-per-sec", config.compact_bytes_per_sec)?;
    for live_only in ["memtable-max-records", "max-segments"] {
        if !live_mode && args.get(live_only).is_some() {
            return Err(UsageError(format!("--{live_only} requires --live")).into());
        }
    }

    // serve keeps the flight recorder on by default (capacity 256) so
    // /debug/queries and /debug/slow work out of the box; pass
    // `--flight-recorder 0` to run without it.
    let obs = ObsOptions::parse_with(&args, 256)?;
    nucdb_serve::install_termination_flag();
    // The server always keeps a live registry: /metrics exposes it, and
    // --metrics additionally writes a snapshot after the drain.
    let registry = Arc::new(MetricsRegistry::new());
    let collection = if live_mode {
        // Live ingestion: the directory holds a segment manifest (created
        // on first start); the database accepts POST /insert.
        let mut opts = nucdb::LiveOptions {
            registry: Arc::clone(&registry),
            forensics: obs.forensics()?,
            ..nucdb::LiveOptions::default()
        };
        opts.memtable_max_records =
            args.get_or("memtable-max-records", opts.memtable_max_records)?;
        opts.max_segments = args.get_or("max-segments", opts.max_segments)?;
        let live = nucdb::LiveDatabase::open_or_create(&db_dir, &nucdb::DbConfig::default(), opts)?;
        let status = live.status();
        println!(
            "live database: {} records ({} segments, {} in memtable)",
            live.snapshot().len(),
            status.segments.len(),
            status.memtable_records,
        );
        Collection::Live(Arc::new(live))
    } else {
        let collection = obs.open(&db_dir, &registry)?;
        println!("{}", describe(&collection));
        collection
    };
    let handle = nucdb_serve::start_collection(
        addr.as_str(),
        collection,
        registry,
        SearchParams::default(),
        config,
    )?;
    println!(
        "serving on http://{} ({} workers, queue depth {})",
        handle.addr(),
        handle.config().threads,
        handle.config().queue_depth,
    );

    while !nucdb_serve::termination_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("shutdown requested; draining in-flight requests");
    let served = handle.requests_ok();
    let registry = handle.shutdown();
    println!("drained cleanly after {served} successful queries");
    if let Some(out) = registry.and_then(|registry| obs.metrics_output(registry)) {
        out.write()?;
    }
    Ok(())
}

/// `nucdb profile`
pub fn profile(raw: &[String]) -> CommandResult {
    let args = Args::parse("profile", raw, &["input", "top", "out"], &[])?;
    let input = PathBuf::from(args.required("input")?);
    let top: usize = args.get_or("top", 10)?;
    let out_dir = PathBuf::from(args.get("out").unwrap_or("results"));

    let text = std::fs::read_to_string(&input)?;
    let report = nucdb_obs::aggregate(&text, top);
    if report.queries == 0 {
        return Err(format!(
            "no parseable query traces in {} ({} lines skipped)",
            input.display(),
            report.skipped_lines
        )
        .into());
    }
    print!("{}", report.render_text());

    std::fs::create_dir_all(&out_dir)?;
    let txt_path = out_dir.join("PROFILE.txt");
    let json_path = out_dir.join("PROFILE.json");
    std::fs::write(&txt_path, report.render_text())?;
    let mut rendered = report.to_value().render();
    rendered.push('\n');
    std::fs::write(&json_path, rendered)?;
    println!(
        "report written to {} and {}",
        txt_path.display(),
        json_path.display()
    );
    Ok(())
}

/// `nucdb version`
pub fn version(raw: &[String]) -> CommandResult {
    Args::parse("version", raw, &[], &[])?;
    println!("{}", nucdb::build_info::human());
    Ok(())
}

/// One index + store pair under a database directory, and how `stat`
/// and `fsck` name it.
struct Part {
    index: PathBuf,
    store: PathBuf,
    /// Records the manifest says the part holds (`None` for a plain
    /// directory, which has no manifest to say so).
    records: Option<u32>,
    /// `segment 000003` / `shard-001`; empty for a plain directory.
    label: String,
    /// What `stat`'s heading says after the record count.
    detail: String,
    /// The JSON member identifying the part in a report.
    key: Option<(String, Value)>,
    /// First global record id, where the manifest assigns one.
    base: Option<u64>,
}

/// A database directory's shape together with the manifest describing
/// it. Everything `stat` and `fsck` say differently per shape — how the
/// parts are found and named, the summary above them, the JSON document
/// around them — is decided here, so each command is one walk over
/// [`Layout::parts`].
enum Layout {
    Plain,
    Live(Manifest),
    Sharded(ShardManifest),
}

impl Layout {
    /// Detect `dir`'s shape and load its manifest, if it has one.
    fn load(dir: &Path) -> Result<Layout, IndexError> {
        Ok(match Shape::of(dir) {
            Shape::Plain => Layout::Plain,
            Shape::Live => Layout::Live(Manifest::load(dir)?),
            Shape::Sharded => Layout::Sharded(ShardManifest::load(dir)?),
        })
    }

    /// Every index + store pair under `dir`, in record-id order.
    fn parts(&self, dir: &Path) -> Vec<Part> {
        match self {
            Layout::Plain => vec![Part {
                index: dir.join(INDEX_FILE),
                store: dir.join(STORE_FILE),
                records: None,
                label: String::new(),
                detail: String::new(),
                key: None,
                base: None,
            }],
            Layout::Live(manifest) => manifest
                .segments
                .iter()
                .map(|seg| Part {
                    index: dir.join(seg.index_file()),
                    store: dir.join(seg.store_file()),
                    records: Some(seg.records),
                    label: format!("segment {:06}", seg.id),
                    detail: format!("{} B", seg.bytes()),
                    key: Some(("id".to_string(), num(seg.id))),
                    base: None,
                })
                .collect(),
            Layout::Sharded(manifest) => manifest
                .shards
                .iter()
                .enumerate()
                .map(|(i, meta)| {
                    let name = nucdb_index::shard_dir_name(i);
                    Part {
                        index: dir.join(&name).join(INDEX_FILE),
                        store: dir.join(&name).join(STORE_FILE),
                        records: Some(meta.records),
                        detail: format!("id base {}", manifest.base_of(i)),
                        key: Some(("shard".to_string(), Value::Str(name.clone()))),
                        label: name,
                        base: Some(manifest.base_of(i)),
                    }
                })
                .collect(),
        }
    }

    /// A shard set is built to degrade: a part that will not open is
    /// reported in place, with its own exit code, instead of failing
    /// the whole report.
    fn degrades(&self) -> bool {
        matches!(self, Layout::Sharded(_))
    }

    /// Files in `dir` a live manifest does not reference.
    fn orphans(&self, dir: &Path) -> Result<Vec<String>, IndexError> {
        match self {
            Layout::Live(manifest) => manifest.orphans_in(dir),
            _ => Ok(Vec::new()),
        }
    }

    /// What `stat` says about the manifest: the text above the parts
    /// and the JSON members before them.
    fn stat_summary(&self, dir: &Path, orphans: &[String]) -> (String, Vec<(String, Value)>) {
        match self {
            Layout::Plain => (String::new(), Vec::new()),
            Layout::Live(manifest) => (
                format!(
                    "live database {} (manifest v{})\n  k={} stride={} codec={:?}\n  \
                     {} segments, {} records, {} B on disk\n",
                    dir.display(),
                    manifest.version,
                    manifest.k,
                    manifest.stride,
                    manifest.codec,
                    manifest.segments.len(),
                    manifest.total_records(),
                    manifest.total_bytes(),
                ),
                vec![
                    ("manifest_version".to_string(), num(manifest.version)),
                    (
                        "segment_count".to_string(),
                        num(manifest.segments.len() as u64),
                    ),
                    ("records".to_string(), num(manifest.total_records())),
                    ("bytes".to_string(), num(manifest.total_bytes())),
                    ("orphans".to_string(), strings(orphans)),
                ],
            ),
            Layout::Sharded(manifest) => (
                format!(
                    "sharded database {} (SHARDS v{})\n  k={} stride={} codec={:?}\n  \
                     {} shards, {} records\n",
                    dir.display(),
                    manifest.version,
                    manifest.k,
                    manifest.stride,
                    manifest.codec,
                    manifest.shards.len(),
                    manifest.total_records(),
                ),
                vec![
                    ("shard_count".to_string(), num(manifest.shards.len() as u64)),
                    ("records".to_string(), num(manifest.total_records())),
                ],
            ),
        }
    }

    /// What `fsck` says about the manifest, likewise.
    fn fsck_summary(&self, orphans: &[String], worst: i32) -> (String, Vec<(String, Value)>) {
        match self {
            Layout::Plain => (String::new(), Vec::new()),
            Layout::Live(manifest) => (
                format!(
                    "manifest v{}: {} segments, {} records\n",
                    manifest.version,
                    manifest.segments.len(),
                    manifest.total_records(),
                ),
                vec![
                    ("manifest_version".to_string(), num(manifest.version)),
                    ("orphans".to_string(), strings(orphans)),
                ],
            ),
            Layout::Sharded(manifest) => (
                format!(
                    "SHARDS v{}: {} shards, {} records\n",
                    manifest.version,
                    manifest.shards.len(),
                    manifest.total_records(),
                ),
                vec![
                    ("shard_count".to_string(), num(manifest.shards.len() as u64)),
                    ("exit_code".to_string(), num(worst as u64)),
                ],
            ),
        }
    }

    /// A walk's JSON document: a plain directory's is its one report; a
    /// manifest's is its summary followed by the per-part objects.
    fn doc(
        &self,
        mut summary: Vec<(String, Value)>,
        mut parts: Vec<Vec<(String, Value)>>,
    ) -> Value {
        let parts_key = match self {
            Layout::Plain => {
                let report = parts.pop().and_then(|mut members| members.pop());
                return report.map_or(Value::Null, |(_, report)| report);
            }
            Layout::Live(_) => "segments",
            Layout::Sharded(_) => "shards",
        };
        let parts = parts.into_iter().map(Value::Obj).collect();
        summary.push((parts_key.to_string(), Value::Arr(parts)));
        Value::Obj(summary)
    }
}

fn strings(items: &[String]) -> Value {
    Value::Arr(items.iter().cloned().map(Value::Str).collect())
}

/// Open one part's files for `stat`. A manifest-listed part must have
/// both files; a plain directory may hold either alone.
fn stat_part(part: &Part) -> Result<nucdb::StatReport, Box<dyn Error>> {
    let listed = part.records.is_some();
    Ok(nucdb::StatReport {
        index: (listed || part.index.exists())
            .then(|| CompressedIndex::open(&part.index))
            .transpose()?
            .map(|index| nucdb::IndexStatReport::from_disk(&index)),
        store: (listed || part.store.exists())
            .then(|| nucdb::SequenceStore::open(&part.store))
            .transpose()?
            .map(|store| nucdb::StoreStatReport::from_disk(&store)),
    })
}

/// `nucdb stat` — per-index statistics: list-length / bit-width / skew
/// histograms, skip-table density, codec tier, and bytes by section, as
/// text (stdout + STAT.txt) and JSON (STAT.json). One walk over the
/// directory's parts whatever its shape: a live directory gets a
/// manifest summary plus the report for every segment (so per-segment
/// histograms expose skew between settled and freshly flushed
/// segments), a sharded root the same for every shard — a shard that
/// will not open is reported in place, with its manifest-recorded
/// record count, instead of aborting the whole report.
pub fn stat(raw: &[String]) -> CommandResult {
    let args = Args::parse("stat", raw, &["db", "out"], &[])?;
    let db_dir = PathBuf::from(args.required("db")?);
    let out_dir = PathBuf::from(args.get("out").unwrap_or("results"));

    let layout = Layout::load(&db_dir)?;
    let orphans = layout.orphans(&db_dir)?;
    let (mut text, summary) = layout.stat_summary(&db_dir, &orphans);
    if !orphans.is_empty() {
        text += &format!("  orphaned files (run fsck): {}\n", orphans.join(", "));
    }

    let mut part_values = Vec::new();
    for part in layout.parts(&db_dir) {
        let report = stat_part(&part);
        let mut members = Vec::new();
        if let Some(records) = part.records {
            text += &format!(
                "\n== {} ({} records, {}) ==\n",
                part.label, records, part.detail
            );
            members.extend(part.key);
            members.push(("records".to_string(), num(u64::from(records))));
            members.extend(part.base.map(|base| ("record_base".to_string(), num(base))));
        }
        match report {
            Ok(report) if report.index.is_none() && report.store.is_none() => {
                return Err(format!("no index or store files in {}", db_dir.display()).into());
            }
            Ok(report) => {
                text += &report.render_text();
                members.push(("report".to_string(), report.to_value()));
            }
            Err(e) if layout.degrades() => {
                text += &format!("shard will not open: {e}\n");
                members.push(("error".to_string(), Value::Str(e.to_string())));
            }
            Err(e) => return Err(e),
        }
        part_values.push(members);
    }
    let doc = layout.doc(summary, part_values);

    print!("{text}");
    std::fs::create_dir_all(&out_dir)?;
    let txt_path = out_dir.join("STAT.txt");
    let json_path = out_dir.join("STAT.json");
    std::fs::write(&txt_path, &text)?;
    let mut rendered = doc.render();
    rendered.push('\n');
    std::fs::write(&json_path, rendered)?;
    println!(
        "report written to {} and {}",
        txt_path.display(),
        json_path.display()
    );
    Ok(())
}

/// `nucdb fsck` — walk every checksummed region of the database files
/// and report all damage found, one walk over the directory's parts
/// whatever its shape: a live directory is walked via its manifest
/// (every referenced segment verified, unreferenced files flagged as
/// orphans), a sharded root shard by shard; a part whose two files walk
/// clean is then cross-checked store against index. Returns the process
/// exit code, the *worst* part's condition: 0 clean; 1 payload damage
/// (a cross-check disagreement included), orphaned files, or a part
/// whose record count disagrees with its manifest; 2 structural damage — header/TOC/manifest unreadable, or a
/// file that is missing or refuses to open at all.
pub fn fsck(raw: &[String]) -> Result<i32, Box<dyn Error>> {
    let args = Args::parse("fsck", raw, &["db"], &["json"])?;
    let db_dir = PathBuf::from(args.required("db")?);
    let layout = match Layout::load(&db_dir) {
        Ok(layout) => layout,
        Err(e) => {
            eprintln!(
                "fsck: {} in {} will not load: {e}",
                manifest_name(Shape::of(&db_dir)),
                db_dir.display()
            );
            return Ok(2);
        }
    };
    let (worst, text, doc) = fsck_walk(&layout, &db_dir)?;
    if args.flag("json") {
        println!("{}", doc.render());
    } else {
        print!("{text}");
    }
    Ok(worst)
}

/// How messages call a shape's manifest.
fn manifest_name(shape: Shape) -> &'static str {
    match shape {
        Shape::Sharded => "SHARDS manifest",
        Shape::Plain | Shape::Live => "manifest",
    }
}

/// The walk behind [`fsck`]: the exit code, the text report and the JSON
/// document. A file that will not open — missing, damaged past its
/// header, or of a retired format — is a structural finding of its part.
fn fsck_walk(layout: &Layout, db_dir: &Path) -> Result<(i32, String, Value), Box<dyn Error>> {
    let mut text = String::new();
    let mut worst = 0;
    let mut part_values = Vec::new();
    for part in layout.parts(db_dir) {
        let listed = part.records.is_some();
        if !listed && !part.index.exists() && !part.store.exists() {
            return Err(format!("no index or store files in {}", db_dir.display()).into());
        }
        let mut report = nucdb::FsckReport::default();
        let mut part_worst = 0;
        if listed || part.index.exists() {
            let records = nucdb::fsck_index(&part.index, &mut report);
            if let (Some(records), Some(listed)) = (records, part.records) {
                if records != listed {
                    part_worst = 1;
                    eprintln!(
                        "fsck: {} holds {records} records but the {} says {listed}",
                        part.label,
                        manifest_name(Shape::of(db_dir)),
                    );
                }
            }
        }
        if listed || part.store.exists() {
            nucdb::fsck_store(&part.store, &mut report);
        }
        // Both files walked clean: do they describe the same records?
        if report.is_clean() && part.index.exists() && part.store.exists() {
            nucdb::fsck_cross_check(&part.index, &part.store, &mut report);
        }
        part_worst = part_worst.max(report.exit_code());
        worst = worst.max(part_worst);
        if let Some(records) = part.records {
            text += &format!("== {} ({records} records) ==\n", part.label);
        }
        text += &report.render_text();
        let mut members: Vec<(String, Value)> = part.key.into_iter().collect();
        if layout.degrades() {
            members.push(("exit_code".to_string(), num(part_worst as u64)));
        }
        members.push(("report".to_string(), report.to_value()));
        part_values.push(members);
    }
    let orphans = layout.orphans(db_dir)?;
    if !orphans.is_empty() {
        worst = worst.max(1);
        text += &format!(
            "orphaned files not in the manifest (safe to delete; a live open \
             removes them): {}\n",
            orphans.join(", ")
        );
    }

    let (header, summary) = layout.fsck_summary(&orphans, worst);
    Ok((worst, header + &text, layout.doc(summary, part_values)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_specs() {
        assert_eq!(parse_fine("full").unwrap(), FineMode::Full);
        assert_eq!(parse_fine("trace").unwrap(), FineMode::FullWithTraceback);
        assert_eq!(
            parse_fine("banded").unwrap(),
            FineMode::Banded { half_width: 24 }
        );
        assert_eq!(
            parse_fine("banded:8").unwrap(),
            FineMode::Banded { half_width: 8 }
        );
        assert!(parse_fine("banded:x").is_err());
        assert!(parse_fine("quux").is_err());
    }

    #[test]
    fn codec_specs() {
        assert_eq!(parse_codec("paper").unwrap(), ListCodec::Paper);
        assert_eq!(parse_codec("block").unwrap(), ListCodec::Block);
        // A retired name is as unknown as any other, and the error lists
        // exactly the two that are left.
        for name in ["vbyte", "interp", "zip"] {
            let usage = parse_codec(name).unwrap_err().0;
            assert!(usage.ends_with("(expected paper|block)"), "{usage}");
        }
    }

    #[test]
    fn out_of_range_interval_parameters_are_usage_errors_before_any_io() {
        let dir = std::env::temp_dir().join(format!("nucdb_cli_range_{}", std::process::id()));
        let db = dir.join("db");
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        let base = [
            "--collection",
            "missing.fasta",
            "--db",
            db.to_str().unwrap(),
        ];
        let cases = [
            (&["--k", "0"][..], "--k 0", "1..=32"),
            (&["--k", "40"][..], "--k 40", "1..=32"),
            (&["--stride", "0"][..], "--stride 0", "1 or more"),
        ];
        for command in [build as fn(&[String]) -> CommandResult, ingest] {
            for (extra, flag, range) in cases {
                let err = command(&s(&[&base[..], extra].concat())).unwrap_err();
                let usage = err
                    .downcast_ref::<UsageError>()
                    .expect("a usage error")
                    .0
                    .clone();
                assert!(usage.contains(flag) && usage.contains(range), "{usage}");
                assert!(!dir.exists(), "{usage}: wrote before refusing");
            }
        }
    }

    #[test]
    fn merge_two_databases() {
        let dir = std::env::temp_dir().join(format!("nucdb_cli_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };

        for (name, seed) in [("a", "11"), ("b", "12")] {
            let fasta = dir.join(format!("{name}.fasta"));
            generate(&s(&[
                "--bases",
                "80000",
                "--out",
                fasta.to_str().unwrap(),
                "--seed",
                seed,
            ]))
            .unwrap();
            build(&s(&[
                "--collection",
                fasta.to_str().unwrap(),
                "--db",
                dir.join(name).to_str().unwrap(),
            ]))
            .unwrap();
        }

        merge(&s(&[
            "--db-a",
            dir.join("a").to_str().unwrap(),
            "--db-b",
            dir.join("b").to_str().unwrap(),
            "--out",
            dir.join("ab").to_str().unwrap(),
        ]))
        .unwrap();

        // The merged database answers queries spanning both halves.
        let db = Collection::open(&dir.join("ab"), &CollectionOptions::default()).unwrap();
        let a = SequenceStore::open(&dir.join("a").join(STORE_FILE)).unwrap();
        let b = SequenceStore::open(&dir.join("b").join(STORE_FILE)).unwrap();
        assert_eq!(db.len(), a.len() + b.len());
        for (store, offset) in [(&a, 0u32), (&b, a.len() as u32)] {
            let probe = store.sequence(3).unwrap();
            let outcome = db
                .search_with_id(
                    &probe,
                    &SearchParams::default(),
                    &mut CoarseScratch::new(),
                    None,
                )
                .unwrap();
            assert_eq!(outcome.results[0].record, 3 + offset);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_bands_answer_like_a_wide_one() {
        // `2 * half_width + 1` used to wrap (a search that never ended)
        // or ask for 320 GB; both widths cover every record, so both must
        // answer exactly as a band of 100 000 does, and promptly.
        let dir = std::env::temp_dir().join(format!("nucdb_cli_band_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        let (fasta, queries, db) = (dir.join("c.fasta"), dir.join("q.fasta"), dir.join("db"));
        let (fasta, queries, db) = (
            fasta.to_str().unwrap(),
            queries.to_str().unwrap(),
            db.to_str().unwrap(),
        );
        generate(&s(&[
            "--bases",
            "60000",
            "--out",
            fasta,
            "--seed",
            "5",
            "--queries-out",
            queries,
        ]))
        .unwrap();
        build(&s(&["--collection", fasta, "--db", db])).unwrap();

        // Two queries, five candidates each: a band over the whole
        // matrix is slow work in an unoptimised test build.
        let mut probes: Vec<FastaRecord> =
            FastaReader::new(BufReader::new(File::open(queries).unwrap()))
                .collect::<Result<_, _>>()
                .unwrap();
        probes.truncate(2);
        let mut writer = FastaWriter::new(File::create(queries).unwrap());
        for probe in &probes {
            writer.write_record(probe).unwrap();
        }
        writer.into_inner().unwrap();

        let collection = Collection::open(Path::new(db), &CollectionOptions::default()).unwrap();
        let answers = |spec: &str| -> Vec<Vec<(u32, i32)>> {
            let params = SearchParams {
                fine: parse_fine(spec).unwrap(),
                max_candidates: 5,
                ..SearchParams::default()
            };
            probes
                .iter()
                .map(|probe| {
                    let outcome = collection
                        .search_with_id(&probe.seq, &params, &mut CoarseScratch::new(), None)
                        .unwrap();
                    outcome
                        .results
                        .iter()
                        .map(|r| (r.record, r.score))
                        .collect()
                })
                .collect()
        };
        let wide = answers("banded:100000");
        assert!(wide.iter().all(|results| !results.is_empty()));
        for spec in ["banded:40000000000", "banded:9223372036854775807"] {
            assert_eq!(answers(spec), wide, "{spec}");
            search(&s(&[
                "--db",
                db,
                "--query",
                queries,
                "--candidates",
                "5",
                "--fine",
                spec,
            ]))
            .unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_to_end_generate_build_search_stats() {
        let dir = std::env::temp_dir().join(format!("nucdb_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fasta = dir.join("coll.fasta");
        let queries = dir.join("queries.fasta");
        let db = dir.join("db");

        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        generate(&s(&[
            "--bases",
            "200000",
            "--out",
            fasta.to_str().unwrap(),
            "--seed",
            "7",
            "--queries-out",
            queries.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(fasta.exists());
        assert!(dir.join("coll.truth.tsv").exists());
        assert!(queries.exists());

        build(&s(&[
            "--collection",
            fasta.to_str().unwrap(),
            "--db",
            db.to_str().unwrap(),
            "--k",
            "8",
            "--chunk",
            "50",
        ]))
        .unwrap();
        assert!(db.join(INDEX_FILE).exists());
        assert!(db.join(STORE_FILE).exists());

        search(&s(&[
            "--db",
            db.to_str().unwrap(),
            "--query",
            queries.to_str().unwrap(),
            "--candidates",
            "20",
            "--both-strands",
            "--evalue",
        ]))
        .unwrap();
        search(&s(&[
            "--db",
            db.to_str().unwrap(),
            "--query",
            queries.to_str().unwrap(),
            "--tabular",
            "--mask",
        ]))
        .unwrap();

        let stat_dir = dir.join("stat");
        stat(&s(&[
            "--db",
            db.to_str().unwrap(),
            "--out",
            stat_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(stat_dir.join("STAT.txt")).unwrap();
        assert!(text.contains("most frequent intervals"), "{text}");
        assert_eq!(fsck(&s(&["--db", db.to_str().unwrap()])).unwrap(), 0);
        bench(&s(&[
            "--db",
            db.to_str().unwrap(),
            "--query",
            queries.to_str().unwrap(),
            "--repeat",
            "2",
        ]))
        .unwrap();

        // Observability flags: Prometheus metrics + JSONL trace on search,
        // JSON metrics on bench, all in --key=value form.
        let metrics = dir.join("metrics.prom");
        let trace = dir.join("trace.jsonl");
        search(&s(&[
            "--db",
            db.to_str().unwrap(),
            "--query",
            queries.to_str().unwrap(),
            &format!("--metrics={}", metrics.display()),
            &format!("--trace={}", trace.display()),
            "--trace-sample=1",
        ]))
        .unwrap();
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("nucdb_queries_total"));
        assert!(prom.contains("nucdb_query_latency_ns_bucket"));
        assert!(prom.contains("nucdb_index_bytes_read_total"));
        let traced = std::fs::read_to_string(&trace).unwrap();
        assert!(traced.lines().count() > 0);
        assert!(traced.lines().all(|l| l.contains("\"reason\":\"recent\"")));

        let metrics_json = dir.join("metrics.json");
        bench(&s(&[
            "--db",
            db.to_str().unwrap(),
            "--query",
            queries.to_str().unwrap(),
            "--repeat",
            "1",
            "--metrics",
            metrics_json.to_str().unwrap(),
            "--metrics-format",
            "json",
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&metrics_json).unwrap();
        assert!(json.contains("nucdb_query_latency_ns"));

        // One capture log: every query is both the stride's and slow, so
        // it is logged once, as slow, in the order bench ran them, and
        // `profile` reads every line back.
        let (log, out) = (dir.join("t.jsonl"), dir.join("profile"));
        bench(&s(&[
            "--db",
            db.to_str().unwrap(),
            "--query",
            queries.to_str().unwrap(),
            "--trace",
            log.to_str().unwrap(),
            "--trace-sample",
            "1",
            "--slow-ms",
            "0.000001",
            "--repeat",
            "1",
        ]))
        .unwrap();
        let ids: Vec<String> = FastaReader::new(BufReader::new(File::open(&queries).unwrap()))
            .map(|record| record.unwrap().id)
            .collect();
        let text = std::fs::read_to_string(&log).unwrap();
        assert_eq!(text.lines().count(), ids.len());
        for (line, id) in text.lines().zip(&ids) {
            let line = nucdb_obs::json::parse(line).unwrap();
            assert_eq!(line.get("reason").and_then(Value::as_str), Some("slow"));
            assert_eq!(line.get("request_id").and_then(Value::as_str), Some(&**id));
        }
        let (log, out) = (log.to_str().unwrap(), out.to_str().unwrap());
        profile(&s(&["--input", log, "--out", out])).unwrap();
        let report = std::fs::read_to_string(dir.join("profile").join("PROFILE.json")).unwrap();
        let report = nucdb_obs::json::parse(&report).unwrap();
        let count = |key: &str| report.get(key).and_then(Value::as_f64);
        assert_eq!(count("queries"), Some(ids.len() as f64));
        assert_eq!(count("skipped_lines"), Some(0.0));

        // The same collection as a sharded root goes through the same
        // commands, `--explain` included.
        let root = dir.join("root");
        let (root_arg, out) = (root.to_str().unwrap(), dir.join("stat"));
        let (fasta, queries) = (fasta.to_str().unwrap(), queries.to_str().unwrap());
        build(&s(&[
            "--collection",
            fasta,
            "--db",
            root_arg,
            "--shards",
            "2",
        ]))
        .unwrap();
        search(&s(&["--db", root_arg, "--query", queries, "--tabular"])).unwrap();
        search(&s(&["--db", root_arg, "--query", queries, "--explain"])).unwrap();
        stat(&s(&["--db", root_arg, "--out", out.to_str().unwrap()])).unwrap();
        let doc = std::fs::read_to_string(out.join("STAT.json")).unwrap();
        assert!(doc.contains("\"shard_count\":2") && doc.contains("\"record_base\""));
        assert_eq!(fsck(&s(&["--db", root_arg])).unwrap(), 0);

        // A store that disagrees with its index under fresh checksums
        // (record 2 a base short) is payload damage in every shape.
        let (live, batch) = (
            dir.join("live"),
            ["--batch", "40", "--memtable-max-records", "40"],
        );
        let live_args = ["--collection", fasta, "--db", live.to_str().unwrap()];
        ingest(&s(&[&live_args[..], &batch].concat())).unwrap();
        let segment = Manifest::load(&live).unwrap().segments[1].store_file();
        let shard = root.join("shard-001").join(STORE_FILE);
        for (db, store) in [
            (&db, db.join(STORE_FILE)),
            (&live, live.join(segment)),
            (&root, shard),
        ] {
            let (old, mut planted) = (
                SequenceStore::open(&store).unwrap(),
                SequenceStore::new(StorageMode::DirectCoding),
            );
            for record in 0..old.len() as u32 {
                let seq = old.sequence(record).unwrap();
                let short = seq.subseq(0..seq.len() - usize::from(record == 2));
                planted.add(old.id(record).to_string(), &short);
            }
            planted.write_to(&store).unwrap();
            let (code, text, doc) = fsck_walk(&Layout::load(db).unwrap(), db).unwrap();
            assert_eq!(code, 1, "{text}");
            assert!(text.contains("\"cross-check\": record 2 is"), "{text}");
            assert!(doc.render().contains("\"section\":\"cross-check\""));
        }
        std::fs::remove_file(root.join("shard-001").join(STORE_FILE)).unwrap();
        assert_eq!(fsck(&s(&["--db", root_arg])).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("nucdb_cli_verify_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        let (fasta, db) = (dir.join("c.fasta"), dir.join("db"));
        let (fasta_arg, db_arg) = (fasta.to_str().unwrap(), db.to_str().unwrap());
        generate(&s(&["--bases", "60000", "--out", fasta_arg, "--seed", "3"])).unwrap();
        build(&s(&["--collection", fasta_arg, "--db", db_arg])).unwrap();
        assert_eq!(fsck(&s(&["--db", db_arg])).unwrap(), 0);

        // Drop a record from the store under fresh checksums: both files
        // walk clean, so only fsck's store/index cross-check can see it.
        let store = SequenceStore::open(&db.join(STORE_FILE)).unwrap();
        let mut truncated = SequenceStore::new(StorageMode::DirectCoding);
        for record in 0..store.len() as u32 - 1 {
            truncated.add(
                store.id(record).to_string(),
                &store.sequence(record).unwrap(),
            );
        }
        truncated.write_to(&db.join(STORE_FILE)).unwrap();
        let (code, text, _) = fsck_walk(&Layout::load(&db).unwrap(), &db).unwrap();
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("records but the index"), "{text}");
        assert_eq!(fsck(&s(&["--db", db_arg])).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_a_retired_file_as_a_structural_finding() {
        let dir = std::env::temp_dir().join(format!("nucdb_cli_retired_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        let (fasta, db) = (dir.join("c.fasta"), dir.join("db"));
        let (fasta_arg, db_arg) = (fasta.to_str().unwrap(), db.to_str().unwrap());
        generate(&s(&["--bases", "20000", "--out", fasta_arg, "--seed", "3"])).unwrap();
        build(&s(&["--collection", fasta_arg, "--db", db_arg])).unwrap();
        assert_eq!(fsck(&s(&["--db", db_arg])).unwrap(), 0);

        // Each file in turn as a retired writer left it: the old magic,
        // then fields under no checksum.
        for (file, magic) in [(INDEX_FILE, "NUCIDX02"), (STORE_FILE, "NUCSTO01")] {
            let good = std::fs::read(db.join(file)).unwrap();
            let retired = [magic.as_bytes(), &[8, 1, 0, 0, 0, 1, 40, 0][..]].concat();
            std::fs::write(db.join(file), retired).unwrap();
            let (code, text, doc) = fsck_walk(&Layout::load(&db).unwrap(), &db).unwrap();
            assert_eq!(code, 2, "{text}");
            assert!(text.contains("structural damage"), "{text}");
            assert!(text.contains(magic), "{text}");
            assert!(doc.render().contains(magic));
            std::fs::write(db.join(file), good).unwrap();
        }
        // An intact index header declaring record-granularity postings
        // (granularity byte 1, CRC re-stamped).
        let good = std::fs::read(db.join(INDEX_FILE)).unwrap();
        let mut records = good.clone();
        let header_len = u32::from_le_bytes(good[8..12].try_into().unwrap()) as usize;
        assert_eq!(records[16 + 4], 0);
        records[16 + 4] = 1;
        let crc = nucdb_index::crc32(&records[16..16 + header_len]);
        records[12..16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(db.join(INDEX_FILE), records).unwrap();
        let (code, text, _) = fsck_walk(&Layout::load(&db).unwrap(), &db).unwrap();
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("record-granularity"), "{text}");
        std::fs::write(db.join(INDEX_FILE), &good).unwrap();
        // An intact store TOC declaring the retired ASCII mode (mode byte
        // 0, CRC re-stamped).
        let good_store = std::fs::read(db.join(STORE_FILE)).unwrap();
        let mut ascii = good_store.clone();
        let toc_len = u32::from_le_bytes(good_store[8..12].try_into().unwrap()) as usize;
        assert_eq!(ascii[16], 1);
        ascii[16] = 0;
        let crc = nucdb_index::crc32(&ascii[16..16 + toc_len]);
        ascii[12..16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(db.join(STORE_FILE), ascii).unwrap();
        let (code, text, _) = fsck_walk(&Layout::load(&db).unwrap(), &db).unwrap();
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("ASCII store mode 0"), "{text}");
        std::fs::write(db.join(STORE_FILE), good_store).unwrap();
        // A vocabulary whose second code gap runs the interval code past
        // u64::MAX, CRC stamped: a typed finding, never a panic or wrap.
        let mut header = vec![8u8, 1, 0, 0, 0, 1, 40, 2];
        header.extend([0xFF; 9].into_iter().chain([0x01, 0, 0, 0, 3, 0, 0, 0, 0]));
        let mut hostile = b"NUCIDX03".to_vec();
        hostile.extend((header.len() as u32).to_le_bytes());
        hostile.extend(nucdb_index::crc32(&header).to_le_bytes());
        hostile.extend(header);
        std::fs::write(db.join(INDEX_FILE), hostile).unwrap();
        let (code, text, _) = fsck_walk(&Layout::load(&db).unwrap(), &db).unwrap();
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("vocabulary"), "{text}");
        std::fs::write(db.join(INDEX_FILE), good).unwrap();
        assert_eq!(fsck(&s(&["--db", db_arg])).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_golden_report_from_handcrafted_traces() {
        use nucdb_obs::{json, json::Value, QueryTrace, SpanNode};

        let dir = std::env::temp_dir().join(format!("nucdb_cli_profile_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Two handcrafted traces with exactly known numbers. `@`-prefixed
        // counters are identity labels and must not appear in totals.
        let t1 = QueryTrace {
            request_id: "q1".to_string(),
            total_ns: 1000,
            results: 2,
            error: None,
            plan: None,
            root: SpanNode::new("query", 0, 1000)
                .child(
                    SpanNode::new("coarse", 0, 600)
                        .counter("@strand", 0)
                        .child(SpanNode::new("extract", 0, 100).counter("intervals_looked_up", 9))
                        .child(
                            SpanNode::new("accumulate", 100, 400)
                                .counter("postings_bytes_read", 2048)
                                .counter("ids_decoded", 512),
                        )
                        .child(SpanNode::new("rank", 500, 100)),
                )
                .child(SpanNode::new("fine", 600, 300).counter("alignments", 2))
                .child(SpanNode::new("strand_merge", 900, 50)),
        };
        let t2 = QueryTrace {
            request_id: "q2".to_string(),
            total_ns: 500,
            results: 0,
            error: None,
            plan: None,
            root: SpanNode::new("query", 0, 500)
                .child(
                    SpanNode::new("coarse", 0, 400)
                        .child(SpanNode::new("extract", 0, 50))
                        .child(
                            SpanNode::new("accumulate", 50, 250)
                                .counter("postings_bytes_read", 1000)
                                .counter("ids_decoded", 100),
                        )
                        .child(SpanNode::new("rank", 300, 100)),
                )
                .child(SpanNode::new("fine", 400, 80).counter("alignments", 1))
                .child(SpanNode::new("strand_merge", 480, 10)),
        };
        let input = dir.join("trace.jsonl");
        std::fs::write(
            &input,
            format!("{}\n{}\n", t1.to_value().render(), t2.to_value().render()),
        )
        .unwrap();

        let out = dir.join("results");
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        profile(&s(&[
            "--input",
            input.to_str().unwrap(),
            "--top",
            "10",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();

        assert!(out.join("PROFILE.txt").exists());
        let report =
            json::parse(&std::fs::read_to_string(out.join("PROFILE.json")).unwrap()).unwrap();
        assert_eq!(report.get("queries").and_then(Value::as_f64), Some(2.0));
        assert_eq!(report.get("errors").and_then(Value::as_f64), Some(0.0));
        assert_eq!(report.get("total_ns").and_then(Value::as_f64), Some(1500.0));

        // Stage self-times, hand-computed: accumulate 650, fine 380,
        // rank 200, extract 150, query 60, strand_merge 60, coarse 0.
        let Some(Value::Arr(stages)) = report.get("stages") else {
            panic!("no stages array");
        };
        let stage = |name: &str| {
            stages
                .iter()
                .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
                .unwrap_or_else(|| panic!("stage {name} missing"))
        };
        let field = |s: &Value, f: &str| s.get(f).and_then(Value::as_f64).unwrap();
        assert_eq!(
            stages[0].get("name").and_then(Value::as_str),
            Some("accumulate"),
            "stages must be sorted by self time"
        );
        for (name, count, total, self_ns, max) in [
            ("query", 2.0, 1500.0, 60.0, 1000.0),
            ("coarse", 2.0, 1000.0, 0.0, 600.0),
            ("extract", 2.0, 150.0, 150.0, 100.0),
            ("accumulate", 2.0, 650.0, 650.0, 400.0),
            ("rank", 2.0, 200.0, 200.0, 100.0),
            ("fine", 2.0, 380.0, 380.0, 300.0),
            ("strand_merge", 2.0, 60.0, 60.0, 50.0),
        ] {
            let s = stage(name);
            assert_eq!(field(s, "count"), count, "{name} count");
            assert_eq!(field(s, "total_ns"), total, "{name} total");
            assert_eq!(field(s, "self_ns"), self_ns, "{name} self");
            assert_eq!(field(s, "max_ns"), max, "{name} max");
        }

        let counters = report.get("counters").unwrap();
        assert_eq!(
            counters.get("ids_decoded").and_then(Value::as_f64),
            Some(612.0)
        );
        assert_eq!(
            counters.get("postings_bytes_read").and_then(Value::as_f64),
            Some(3048.0)
        );
        assert_eq!(
            counters.get("alignments").and_then(Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            counters.get("intervals_looked_up").and_then(Value::as_f64),
            Some(9.0)
        );
        assert!(
            counters.get("@strand").is_none(),
            "identity labels excluded"
        );

        let Some(Value::Arr(slowest)) = report.get("slowest") else {
            panic!("no slowest array");
        };
        assert_eq!(
            slowest[0].get("request_id").and_then(Value::as_str),
            Some("q1")
        );
        assert_eq!(
            slowest[1].get("request_id").and_then(Value::as_str),
            Some("q2")
        );

        // An unreadable dump errors out instead of writing an empty report.
        std::fs::write(dir.join("junk.jsonl"), "not json\nstill not\n").unwrap();
        assert!(profile(&s(&["--input", dir.join("junk.jsonl").to_str().unwrap(),])).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observability_option_misuse_is_rejected() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        // --metrics-format without --metrics, --trace-sample without --trace.
        assert!(search(&s(&[
            "--db",
            "x",
            "--query",
            "y",
            "--metrics-format",
            "json"
        ]))
        .is_err());
        assert!(search(&s(&["--db", "x", "--query", "y", "--trace-sample", "4"])).is_err());
        assert!(bench(&s(&[
            "--db",
            "x",
            "--query",
            "y",
            "--metrics-format",
            "json"
        ]))
        .is_err());

        // Values that used to be quietly reinterpreted, the log's options
        // without a log, the retired slow-log flags, and capture options
        // `search` does not take: each a usage error before any I/O.
        let usage = |result: CommandResult| result.unwrap_err().is::<UsageError>();
        let with_db = |opts: &[&str]| s(&[&["--db", "x", "--query", "y"][..], opts].concat());
        for opts in [
            &["--trace", "t.jsonl", "--trace-sample", "0"][..],
            &["--slow-ms", "NaN"],
            &["--slow-ms", "inf"],
            &["--slow-ms=-1"],
            &["--trace-max-bytes", "64"],
            &["--trace", "t.jsonl", "--trace-max-bytes", "0"],
            &["--slow-log", "s.jsonl"],
            &["--trace", "t.jsonl", "--slow-log-max-bytes", "64"],
        ] {
            assert!(usage(bench(&with_db(opts))), "bench {opts:?}");
        }
        for opts in [
            &["--trace", "t.jsonl", "--trace-sample", "0"][..],
            &["--flight-recorder", "4"],
            &["--slow-ms", "5"],
            &["--trace", "t.jsonl", "--trace-max-bytes", "64"],
        ] {
            assert!(usage(search(&with_db(opts))), "search {opts:?}");
        }

        // Retired options are refused by name, before any I/O.
        let names = |result: CommandResult, option: &str| {
            let err = result.unwrap_err();
            err.is::<UsageError>() && err.to_string().contains(option)
        };
        assert!(names(
            search(&with_db(&["--ranking", "count"])),
            "--ranking"
        ));
        let collection = s(&["--collection", "y", "--db", "x", "--ascii-store"]);
        assert!(names(build(&collection), "--ascii-store"));
        assert!(names(ingest(&collection), "--ascii-store"));
    }

    #[test]
    fn serve_option_misuse_is_rejected_before_any_io() {
        let dir = std::env::temp_dir().join(format!("nucdb_cli_serve_{}", std::process::id()));
        let db = dir.join("db");
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        let base = ["--db", db.to_str().unwrap(), "--addr", "127.0.0.1:0"];
        for (opts, expect) in [
            (
                &["--deadline-ms", "0"][..],
                "--deadline-ms must be positive",
            ),
            (
                &["--shard-deadline-ms", "0"],
                "unknown option --shard-deadline-ms",
            ),
            (
                &["--shard-hedge-ms", "100"],
                "unknown option --shard-hedge-ms",
            ),
            (&["--threads", "0"], "--threads must be positive"),
            (&["--queue-depth", "0"], "--queue-depth must be positive"),
            (&["--batch-window", "2"], "unknown option --batch-window"),
            (&["--batch-max", "8"], "unknown option --batch-max"),
            (
                &["--search-threads", "2"],
                "unknown option --search-threads",
            ),
        ] {
            let err = serve(&s(&[&base[..], opts].concat())).unwrap_err();
            let usage = &err.downcast_ref::<UsageError>().expect("a usage error").0;
            assert!(usage.contains(expect), "{opts:?}: {usage}");
            assert!(!dir.exists(), "{opts:?}: wrote before refusing");
        }
    }
}
