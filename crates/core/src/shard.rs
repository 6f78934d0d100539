//! Scatter-gather sharded search: the query driver's fan-out backend.
//!
//! A [`ShardSet`] partitions a collection into N shards, each an
//! independent index + store holding a contiguous slice of the record-id
//! space. The set is a backend of the one query driver
//! (`crate::driver`): its coarse phase fans out across a per-shard
//! worker pool and merges the per-shard top-C candidates globally, its
//! fine phase aligns only the global winners on the shards that own
//! them, and the strand loop, strand merge, spans, and flight-recorder
//! capture are the driver's — the same code a single database runs.
//!
//! ## Merge proof obligation
//!
//! Sharded answers must be **bit-identical** to a joint single-index
//! build (pinned by `tests/sharding.rs`). The argument:
//!
//! * Every coarse score is a function of one record alone — `Count` is
//!   the record's hit count, `Proportional` divides by the record's own
//!   length, `Frame` windows the record's own diagonal histogram. No
//!   collection-global statistic enters, so a record scores the same in
//!   its shard as in the joint index.
//! * Shards hold *contiguous* id ranges (shard `s` covers
//!   `[base_s, base_s + n_s)`), so adding `base_s` to a local id
//!   preserves the joint `(score desc, record asc)` tie-break order.
//! * Any member of the joint top-C has fewer than C records ahead of it
//!   globally, hence fewer than C within its own shard: it survives the
//!   per-shard `top-C` truncation. Merging the per-shard lists and
//!   truncating to C therefore reproduces the joint candidate list
//!   exactly — same set, same order.
//!
//! No engine knob breaks this argument. [`ShardSet::search_with_id`]
//! refuses only explain plans: per-shard plans are not merged into one.
//!
//! ## Degraded mode
//!
//! A shard that cannot be opened (dead at open), fails a query
//! (corruption), or misses its deadline is dropped from the answer; the
//! query still succeeds with the surviving shards and a
//! [`Coverage`] of `shards_ok / shards_total`. Results from a shard
//! that failed *any* phase are discarded entirely, so a degraded answer
//! equals the answer of a `ShardSet` over the surviving shards alone.
//! Only when every shard fails does the query error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nucdb_index::{shard_dir_name, IndexError, IndexParams, ShardManifest, ShardMeta};
use nucdb_obs::{Counter, Forensics, Histogram, MetricsRegistry};
use nucdb_seq::{Base, DnaSeq};

use crate::coarse::{coarse_rank_explain, CoarseHit, CoarseOutcome, CoarseScratch};
use crate::driver::{self, Backend, Merged};
use crate::engine::{io_err, Database, DbConfig, QueryStats, SearchResult};
use crate::explain::CoarseExplain;
use crate::fine::{fine_search_traced, CandidateTiming, FineMode, FineResult};
use crate::metrics::SearchMetrics;
use crate::params::SearchParams;
use crate::store::{RecordSource, SequenceStore};

/// Answer completeness of a sharded query: how many shards contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards that answered every phase of the query.
    pub shards_ok: usize,
    /// Total shards in the set (including dead-at-open shards).
    pub shards_total: usize,
}

impl Coverage {
    /// Fraction of shards that contributed, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.shards_total == 0 {
            return 1.0;
        }
        self.shards_ok as f64 / self.shards_total as f64
    }

    /// Did every shard contribute?
    pub fn is_full(&self) -> bool {
        self.shards_ok == self.shards_total
    }
}

/// One shard's failure within a query (or at open).
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard directory name (`shard-000`, …).
    pub shard: String,
    /// Human-readable cause.
    pub error: String,
}

/// Which shards answered a query: the completeness report a
/// [`SearchOutcome`](crate::SearchOutcome) carries when the query ran
/// over a shard set.
#[derive(Debug, Clone)]
pub struct ShardCoverage {
    /// How many shards contributed.
    pub coverage: Coverage,
    /// Why non-contributing shards failed (empty at full coverage).
    pub failures: Vec<ShardFailure>,
}

/// `2/3 shards (shard-001: <cause>)` — how warnings and the flight
/// recorder describe a partial answer.
impl std::fmt::Display for ShardCoverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Coverage {
            shards_ok,
            shards_total,
        } = self.coverage;
        let causes: Vec<String> = self
            .failures
            .iter()
            .map(|failure| format!("{}: {}", failure.shard, failure.error))
            .collect();
        write!(
            f,
            "{shards_ok}/{shards_total} shards ({})",
            causes.join("; ")
        )
    }
}

/// Per-shard work attribution for one query (the bench's scaling story:
/// wall time on a loaded box lies, decoded postings do not).
#[derive(Debug, Clone, Default)]
pub struct ShardWork {
    /// Shard directory name.
    pub shard: String,
    /// Compressed postings bytes this shard read.
    pub postings_bytes_read: u64,
    /// Postings entries this shard decoded.
    pub ids_decoded: u64,
    /// Coarse candidates this shard surfaced (pre-merge).
    pub candidates: u64,
}

/// A sharded query's answer: engine-shaped results plus coverage.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Ranked answers, best first — bit-identical to a joint build when
    /// coverage is full.
    pub results: Vec<SearchResult>,
    /// Aggregated cost counters across all shards and phases.
    pub stats: QueryStats,
    /// How many shards contributed.
    pub coverage: Coverage,
    /// Why non-contributing shards failed (empty at full coverage).
    pub failures: Vec<ShardFailure>,
    /// Per-shard work attribution, one entry per *live* shard that
    /// completed coarse search.
    pub work: Vec<ShardWork>,
}

/// The search surface one shard must expose. Object-safe and free of
/// local-filesystem assumptions, so a follow-up can put a remote
/// (HTTP) shard behind it; [`LocalShard`] is the in-process
/// implementation.
pub trait Shard: Send + Sync {
    /// Shard name (its directory name for local shards).
    fn name(&self) -> &str;
    /// Number of records in the shard.
    fn num_records(&self) -> u32;
    /// The shard's index parameters (must agree across the set).
    fn index_params(&self) -> IndexParams;
    /// Run coarse ranking for one strand orientation. `query_bases` is
    /// the strand-oriented representative-base view of the query;
    /// `scratch` is the calling worker thread's reusable working memory
    /// (answers are independent of its history).
    fn coarse(
        &self,
        query_bases: &[Base],
        params: &SearchParams,
        scratch: &mut CoarseScratch,
    ) -> Result<CoarseOutcome, IndexError>;
    /// Run fine alignment on `candidates` (shard-local record ids).
    fn fine(
        &self,
        query: &DnaSeq,
        candidates: &[CoarseHit],
        mode: FineMode,
        params: &SearchParams,
    ) -> Result<Vec<FineResult>, IndexError>;
    /// External identifier of a shard-local record.
    fn record_id(&self, local: u32) -> String;
    /// Length in bases of a shard-local record.
    fn record_len(&self, local: u32) -> usize;
    /// Total bases stored in the shard.
    fn total_bases(&self) -> u64;
}

/// An in-process shard: a [`Database`] slice of the collection.
pub struct LocalShard {
    name: String,
    db: Database,
    /// Summed once at construction: a shard's records never change.
    total_bases: u64,
}

impl LocalShard {
    /// Wrap a database as a shard named `name`.
    pub fn new(name: impl Into<String>, db: Database) -> LocalShard {
        let total_bases = (0..db.len() as u32)
            .map(|r| db.store().record_len(r) as u64)
            .sum();
        LocalShard {
            name: name.into(),
            db,
            total_bases,
        }
    }
}

impl Shard for LocalShard {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_records(&self) -> u32 {
        self.db.len() as u32
    }

    fn index_params(&self) -> IndexParams {
        use crate::coarse::PostingsSource;
        self.db.index().index_params().clone()
    }

    fn coarse(
        &self,
        query_bases: &[Base],
        params: &SearchParams,
        scratch: &mut CoarseScratch,
    ) -> Result<CoarseOutcome, IndexError> {
        coarse_rank_explain(self.db.index(), query_bases, params, scratch, None)
    }

    fn fine(
        &self,
        query: &DnaSeq,
        candidates: &[CoarseHit],
        mode: FineMode,
        params: &SearchParams,
    ) -> Result<Vec<FineResult>, IndexError> {
        fine_search_traced(
            self.db.store(),
            query,
            candidates,
            mode,
            &params.scheme,
            params.min_score,
            None,
        )
        .map_err(io_err)
    }

    fn record_id(&self, local: u32) -> String {
        self.db.store().id(local).to_string()
    }

    fn record_len(&self, local: u32) -> usize {
        self.db.store().record_len(local)
    }

    fn total_bases(&self) -> u64 {
        self.total_bases
    }
}

/// Dispatch tuning for a [`ShardSet`].
#[derive(Debug, Clone)]
pub struct ShardSetConfig {
    /// Per-phase, per-shard deadline. A shard that has not answered a
    /// phase within this long is marked failed for the query.
    pub shard_deadline: Duration,
    /// After this long without an answer, re-dispatch the phase to the
    /// hedge worker (tail-latency insurance against a stuck shard
    /// thread). `None` disables hedging.
    pub hedge_after: Option<Duration>,
}

impl Default for ShardSetConfig {
    fn default() -> ShardSetConfig {
        ShardSetConfig {
            shard_deadline: Duration::from_secs(10),
            hedge_after: Some(Duration::from_millis(250)),
        }
    }
}

/// Per-shard metric handles (`nucdb_shard_*` families, labeled by
/// shard name). Disabled handles when no registry is bound.
#[derive(Clone, Default)]
struct ShardMetrics {
    queries: Counter,
    errors: Counter,
    timeouts: Counter,
    hedges: Counter,
    hedge_wins: Counter,
    latency: Histogram,
}

impl ShardMetrics {
    fn bind(registry: &MetricsRegistry, shard: &str) -> ShardMetrics {
        let labels: &[(&str, &str)] = &[("shard", shard)];
        ShardMetrics {
            queries: registry.counter_with(
                "nucdb_shard_queries_total",
                "Phase dispatches to this shard",
                labels,
            ),
            errors: registry.counter_with(
                "nucdb_shard_errors_total",
                "Queries this shard failed (error or timeout)",
                labels,
            ),
            timeouts: registry.counter_with(
                "nucdb_shard_timeouts_total",
                "Phase deadlines this shard missed",
                labels,
            ),
            hedges: registry.counter_with(
                "nucdb_shard_hedges_total",
                "Hedged re-dispatches triggered by this shard's slowness",
                labels,
            ),
            hedge_wins: registry.counter_with(
                "nucdb_shard_hedge_wins_total",
                "Phases where the hedge replica answered first",
                labels,
            ),
            latency: registry.histogram_with(
                "nucdb_shard_latency_ns",
                "Per-phase shard service time in nanoseconds",
                labels,
            ),
        }
    }
}

/// A phase of work for one shard, with the query in the form that phase
/// consumes (strand-oriented either way).
enum JobKind {
    Coarse {
        query_bases: Arc<Vec<Base>>,
    },
    Fine {
        query: Arc<DnaSeq>,
        candidates: Arc<Vec<CoarseHit>>,
        mode: FineMode,
    },
}

enum PhaseOutput {
    Coarse(CoarseOutcome),
    Fine(Vec<FineResult>),
}

struct Job {
    shard: Arc<dyn Shard>,
    slot: usize,
    params: SearchParams,
    kind: JobKind,
    seq: u64,
    hedged: bool,
    delay: Arc<AtomicU64>,
    reply: mpsc::Sender<Reply>,
}

struct Reply {
    slot: usize,
    seq: u64,
    hedged: bool,
    nanos: u64,
    output: Result<PhaseOutput, IndexError>,
}

fn run_job(job: Job, scratch: &mut CoarseScratch) {
    // Injected delay (tests) applies only to a shard's primary worker,
    // never to the hedge — so a hedged re-dispatch provably overtakes a
    // delayed straggler with a bit-identical answer.
    if !job.hedged {
        let ns = job.delay.load(Ordering::Relaxed);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }
    let start = Instant::now();
    let output = match &job.kind {
        JobKind::Coarse { query_bases } => job
            .shard
            .coarse(query_bases, &job.params, scratch)
            .map(PhaseOutput::Coarse),
        JobKind::Fine {
            query,
            candidates,
            mode,
        } => job
            .shard
            .fine(query, candidates, *mode, &job.params)
            .map(PhaseOutput::Fine),
    };
    // The dispatcher may have moved on (deadline, or the other replica
    // answered); a dropped receiver is not an error.
    let _ = job.reply.send(Reply {
        slot: job.slot,
        seq: job.seq,
        hedged: job.hedged,
        nanos: start.elapsed().as_nanos() as u64,
        output,
    });
}

fn spawn_worker(name: String, rx: mpsc::Receiver<Job>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            // One scratch for the worker's lifetime: after warm-up a
            // coarse phase allocates nothing.
            let mut scratch = CoarseScratch::new();
            while let Ok(job) = rx.recv() {
                run_job(job, &mut scratch);
            }
        })
        .expect("spawn shard worker")
}

/// One shard slot: the shard (when it opened), its record-id base, and
/// its dispatch plumbing. Dead-at-open shards keep their slot — their
/// record count, and therefore every later shard's id base, comes from
/// the shard manifest.
struct ShardSlot {
    name: String,
    base: u32,
    records: u32,
    shard: Option<Arc<dyn Shard>>,
    dead: Option<String>,
    tx: Option<mpsc::Sender<Job>>,
    delay: Arc<AtomicU64>,
    metrics: ShardMetrics,
}

/// The scatter-gather planner over N shards. See the module docs for
/// the identity argument and degraded-mode contract.
pub struct ShardSet {
    slots: Vec<ShardSlot>,
    config: ShardSetConfig,
    hedge_tx: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    seq: AtomicU64,
    degraded_queries: Counter,
    /// Stored bases across live shards, summed once at assembly.
    total_bases: u64,
    /// The driver's observability handles: query metrics bound to the
    /// registry the set was opened with; capture disabled until
    /// [`ShardSet::set_forensics`].
    metrics: SearchMetrics,
}

/// One shard slot before assembly: name, manifest record count, the
/// opened shard (or `None` for a dead slot), and the dead-slot error.
type ShardEntry = (String, u32, Option<Arc<dyn Shard>>, Option<String>);

impl ShardSet {
    /// Assemble a set from already-opened shards. `dead` carries
    /// placeholder entries for shards that failed to open:
    /// `(name, records-from-manifest, error)` — their record counts
    /// keep the id bases of later shards correct.
    pub fn assemble(
        shards: Vec<Arc<dyn Shard>>,
        dead: Vec<(String, u32, Option<String>)>,
        config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        let mut entries: Vec<ShardEntry> = Vec::new();
        for shard in shards {
            let records = shard.num_records();
            entries.push((shard.name().to_string(), records, Some(shard), None));
        }
        for (name, records, err) in dead {
            entries.push((name, records, None, err));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        ShardSet::from_entries(entries, config, registry)
    }

    fn from_entries(
        entries: Vec<ShardEntry>,
        config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        if entries.is_empty() {
            return Err(IndexError::Unsupported(
                "a shard set needs at least one shard",
            ));
        }
        // All live shards must agree on index parameters: coarse scores
        // are only comparable across shards built the same way.
        let mut params: Option<IndexParams> = None;
        for (_, _, shard, _) in &entries {
            if let Some(shard) = shard {
                let p = shard.index_params();
                match &params {
                    None => params = Some(p),
                    Some(first) if *first != p => {
                        return Err(IndexError::Unsupported(
                            "shards disagree on index parameters",
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        let mut slots = Vec::with_capacity(entries.len());
        let mut workers = Vec::new();
        let mut base: u64 = 0;
        let mut total_bases = 0u64;
        for (name, records, shard, dead_err) in entries {
            total_bases += shard.as_ref().map_or(0, |s| s.total_bases());
            let delay = Arc::new(AtomicU64::new(0));
            let (tx, dead) = match (&shard, dead_err) {
                (Some(_), _) => {
                    let (tx, rx) = mpsc::channel();
                    workers.push(spawn_worker(format!("nucdb-{name}"), rx));
                    (Some(tx), None)
                }
                (None, err) => (None, Some(err.unwrap_or_else(|| "failed to open".into()))),
            };
            if base + u64::from(records) > u64::from(u32::MAX) {
                return Err(IndexError::Unsupported(
                    "total shard records overflow the u32 id space",
                ));
            }
            slots.push(ShardSlot {
                metrics: ShardMetrics::bind(registry, &name),
                name,
                base: base as u32,
                records,
                shard,
                dead,
                tx,
                delay,
            });
            base += u64::from(records);
        }
        let hedge_tx = if config.hedge_after.is_some() {
            let (tx, rx) = mpsc::channel();
            workers.push(spawn_worker("nucdb-shard-hedge".into(), rx));
            Some(tx)
        } else {
            None
        };
        Ok(ShardSet {
            slots,
            config,
            hedge_tx,
            workers,
            seq: AtomicU64::new(0),
            degraded_queries: registry.counter(
                "nucdb_shard_degraded_queries_total",
                "Queries answered with partial shard coverage",
            ),
            total_bases,
            metrics: SearchMetrics::new(registry),
        })
    }

    /// Build a set from in-memory databases (tests, benches). Shard `i`
    /// is named `shard-00i`.
    pub fn from_databases(
        dbs: Vec<Database>,
        config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        let shards = dbs
            .into_iter()
            .enumerate()
            .map(|(i, db)| Arc::new(LocalShard::new(shard_dir_name(i), db)) as Arc<dyn Shard>)
            .collect();
        ShardSet::assemble(shards, Vec::new(), config, registry)
    }

    /// Open a sharded root written by [`build_sharded_root`] (or
    /// `nucdb build --shards N`). A shard whose files are missing or
    /// corrupt becomes a *dead* slot: the set still opens and answers
    /// degraded queries, with the dead shard's record count taken from
    /// the manifest so every other shard's id base stays correct.
    pub fn open_root(
        root: &Path,
        config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        let manifest = ShardManifest::load(root)?;
        let mut entries: Vec<ShardEntry> = Vec::new();
        for (i, meta) in manifest.shards.iter().enumerate() {
            let name = shard_dir_name(i);
            let dir = root.join(&name);
            match open_shard_dir(&dir, &name) {
                Ok(shard) => {
                    if shard.num_records() != meta.records {
                        entries.push((
                            name,
                            meta.records,
                            None,
                            Some("shard record count disagrees with SHARDS manifest".into()),
                        ));
                    } else {
                        entries.push((name, meta.records, Some(shard), None));
                    }
                }
                Err(e) => entries.push((name, meta.records, None, Some(e.to_string()))),
            }
        }
        ShardSet::from_entries(entries, config, registry)
    }

    /// Number of shards (including dead ones).
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// Names and liveness of all shards, in id order:
    /// `(name, base, records, dead-error)`.
    pub fn shard_rows(&self) -> Vec<(String, u32, u32, Option<String>)> {
        self.slots
            .iter()
            .map(|s| (s.name.clone(), s.base, s.records, s.dead.clone()))
            .collect()
    }

    /// Total records across all shards (the joint id space).
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.records as usize).sum()
    }

    /// Is the whole set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bases across *live* shards.
    pub fn total_bases(&self) -> u64 {
        self.total_bases
    }

    /// Attach the query capture handle (flight recorder, tail sampling,
    /// capture log). `&mut self`: configure before sharing the set.
    pub fn set_forensics(&mut self, forensics: Forensics) {
        self.metrics = std::mem::take(&mut self.metrics).with_forensics(forensics);
    }

    /// The set's observability handles.
    pub fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// External id of a global record (empty for records on dead shards).
    pub fn record_id(&self, global: u32) -> String {
        self.live_slot_of(global)
            .map(|(shard, local)| shard.record_id(local))
            .unwrap_or_default()
    }

    /// Length of a global record in bases (0 for records on dead shards).
    pub fn record_len(&self, global: u32) -> usize {
        self.live_slot_of(global)
            .map_or(0, |(shard, local)| shard.record_len(local))
    }

    /// Inject a fixed service delay into one shard's primary worker
    /// (tests): the hedge replica is never delayed, so a delayed shard
    /// deterministically loses the race once `hedge_after` elapses.
    pub fn inject_delay_ns(&self, shard: usize, ns: u64) {
        self.slots[shard].delay.store(ns, Ordering::Relaxed);
    }

    /// Index of the slot whose id range holds `global`. Bases ascend, so
    /// the owner is the last slot starting at or below it (empty slots
    /// share their successor's base and sort before it).
    fn slot_index_of(&self, global: u32) -> usize {
        self.slots
            .partition_point(|s| s.base <= global)
            .saturating_sub(1)
    }

    fn live_slot_of(&self, global: u32) -> Option<(&Arc<dyn Shard>, u32)> {
        let slot = &self.slots[self.slot_index_of(global)];
        let local = global - slot.base;
        slot.shard
            .as_ref()
            .filter(|_| local < slot.records)
            .map(|shard| (shard, local))
    }

    /// Fan one phase out to `targets` (live slot indexes) and gather
    /// replies under the per-shard deadline, hedging stragglers. Returns
    /// the outputs of the shards that answered, in arrival order (both
    /// phases merge order-independently); a shard that errored or timed
    /// out is charged and entered in `failures`.
    fn run_phase(
        &self,
        failures: &mut BTreeMap<usize, String>,
        targets: &[usize],
        make_kind: impl Fn(usize) -> JobKind,
        params: &SearchParams,
    ) -> Vec<(usize, PhaseOutput)> {
        let mut outputs: Vec<(usize, PhaseOutput)> = Vec::with_capacity(targets.len());
        if targets.is_empty() {
            return outputs;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        let job = |slot_idx: usize, shard: &Arc<dyn Shard>, hedged: bool| Job {
            shard: Arc::clone(shard),
            slot: slot_idx,
            params: *params,
            kind: make_kind(slot_idx),
            seq,
            hedged,
            delay: Arc::clone(&self.slots[slot_idx].delay),
            reply: reply_tx.clone(),
        };
        let mut fail = |slot_idx: usize, error: String| {
            self.slots[slot_idx].metrics.errors.inc();
            failures.insert(slot_idx, error);
        };
        let start = Instant::now();
        let mut pending: Vec<usize> = Vec::new();
        for &slot_idx in targets {
            let slot = &self.slots[slot_idx];
            let (Some(shard), Some(tx)) = (&slot.shard, &slot.tx) else {
                continue; // dead shard: already a failure
            };
            slot.metrics.queries.inc();
            match tx.send(job(slot_idx, shard, false)) {
                Ok(()) => pending.push(slot_idx),
                Err(_) => fail(slot_idx, "shard worker exited".into()),
            }
        }

        let deadline = self.config.shard_deadline;
        let mut hedged = false;
        while !pending.is_empty() {
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                break;
            }
            let mut wait = deadline - elapsed;
            if let (Some(after), false) = (self.config.hedge_after, hedged) {
                if elapsed >= after {
                    // Straggler(s): re-dispatch every unanswered shard to
                    // the hedge worker. First answer per shard wins; the
                    // loser's reply is dropped on the closed channel.
                    hedged = true;
                    if let Some(hedge_tx) = &self.hedge_tx {
                        for &slot_idx in &pending {
                            let slot = &self.slots[slot_idx];
                            let Some(shard) = &slot.shard else { continue };
                            slot.metrics.hedges.inc();
                            let _ = hedge_tx.send(job(slot_idx, shard, true));
                        }
                    }
                    continue;
                }
                wait = wait.min(after - elapsed);
            }
            match reply_rx.recv_timeout(wait) {
                Ok(reply) => {
                    if reply.seq != seq {
                        continue; // stale reply from an earlier phase
                    }
                    let Some(pos) = pending.iter().position(|&i| i == reply.slot) else {
                        continue; // both replicas answered; first won
                    };
                    pending.swap_remove(pos);
                    let slot = &self.slots[reply.slot];
                    slot.metrics.latency.record(reply.nanos);
                    if reply.hedged {
                        slot.metrics.hedge_wins.inc();
                    }
                    match reply.output {
                        Ok(output) => outputs.push((reply.slot, output)),
                        Err(e) => {
                            // A corrupt shard degrades the answer instead
                            // of failing the query, so the driver never
                            // sees the error: count the corruption here.
                            if e.is_corruption() {
                                self.metrics.io_corruption.inc();
                            }
                            fail(reply.slot, e.to_string());
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        for slot_idx in pending {
            let slot = &self.slots[slot_idx];
            slot.metrics.timeouts.inc();
            fail(
                slot_idx,
                format!("shard {} missed the {:?} deadline", slot.name, deadline),
            );
        }
        outputs
    }

    /// Evaluate a query across all shards. Bit-identical to a joint
    /// build at full coverage; partial results plus `coverage < 1`
    /// when shards fail; an error only when *no* shard answers.
    pub fn search(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
    ) -> Result<ShardedOutcome, IndexError> {
        self.search_with_id(query, params, None)
    }

    /// The one place sharded search refuses a parameter. Every query
    /// passes through here; front ends call it ahead of time to turn the
    /// refusal into a usage error (CLI) or a 400 (server).
    pub fn supports(&self, params: &SearchParams) -> Result<(), IndexError> {
        if params.explain {
            // Per-shard plans are not merged into one.
            return Err(IndexError::Unsupported(
                "explain is not supported over a sharded root",
            ));
        }
        Ok(())
    }

    /// [`ShardSet::search`] carrying a caller-assigned request id into
    /// every span, trace line, and flight-recorder entry the query
    /// produces (see [`Database::search_with_id`]).
    pub fn search_with_id(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        request_id: Option<&str>,
    ) -> Result<ShardedOutcome, IndexError> {
        self.supports(params)?;
        let mut state = ShardQuery {
            failures: self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| Some((i, slot.dead.clone()?)))
                .collect(),
            work: BTreeMap::new(),
        };
        let outcome = driver::run_query(self, &mut state, query, params, request_id)?;
        let ShardCoverage { coverage, failures } = self.coverage_of(&state);
        Ok(ShardedOutcome {
            results: outcome.results,
            stats: outcome.stats,
            coverage,
            failures,
            work: state.work.into_values().collect(),
        })
    }

    fn coverage_of(&self, state: &ShardQuery) -> ShardCoverage {
        ShardCoverage {
            coverage: Coverage {
                shards_ok: self.slots.len() - state.failures.len(),
                shards_total: self.slots.len(),
            },
            failures: state
                .failures
                .iter()
                .map(|(&i, error)| ShardFailure {
                    shard: self.slots[i].name.clone(),
                    error: error.clone(),
                })
                .collect(),
        }
    }

    /// The all-shards-failed error, once no slot is left to answer.
    fn ensure_alive(&self, state: &ShardQuery) -> Result<(), IndexError> {
        let shards_total = self.slots.len();
        if state.failures.len() < shards_total {
            return Ok(());
        }
        let detail = state.failures.values().next().map_or("no shards", |e| e);
        Err(IndexError::Io(std::io::Error::other(format!(
            "all {shards_total} shards failed: {detail}"
        ))))
    }
}

/// One query's cross-phase state: which shards have failed so far (dead
/// at open, errored, or timed out — by slot index) and what each live
/// shard has done.
pub(crate) struct ShardQuery {
    failures: BTreeMap<usize, String>,
    work: BTreeMap<usize, ShardWork>,
}

impl Backend for ShardSet {
    type State = ShardQuery;
    const EXPLAINS: bool = false;

    fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// Coarse everywhere, then merge the per-shard candidate lists to
    /// the global top-C exactly as joint coarse ranking would. Work
    /// counters (and the per-shard stage times) are summed over shards.
    fn coarse(
        &self,
        state: &mut ShardQuery,
        query_bases: &[Base],
        params: &SearchParams,
        _explain: Option<&mut CoarseExplain>,
    ) -> Result<CoarseOutcome, IndexError> {
        self.ensure_alive(state)?;
        let live: Vec<usize> = (0..self.slots.len())
            .filter(|i| !state.failures.contains_key(i))
            .collect();
        let query_bases = Arc::new(query_bases.to_vec());
        let outputs = self.run_phase(
            &mut state.failures,
            &live,
            |_| JobKind::Coarse {
                query_bases: Arc::clone(&query_bases),
            },
            params,
        );
        let mut total = CoarseOutcome::default();
        for (slot_idx, output) in outputs {
            let PhaseOutput::Coarse(coarse) = output else {
                unreachable!("coarse phase returned fine output")
            };
            let slot = &self.slots[slot_idx];
            total.intervals_looked_up += coarse.intervals_looked_up;
            total.lists_fetched += coarse.lists_fetched;
            total.postings_decoded += coarse.postings_decoded;
            total.postings_bytes_read += coarse.postings_bytes_read;
            total.blocks_decoded += coarse.blocks_decoded;
            total.total_hits += coarse.total_hits;
            total.extract_nanos += coarse.extract_nanos;
            total.accumulate_nanos += coarse.accumulate_nanos;
            total.rank_nanos += coarse.rank_nanos;
            let work = state.work.entry(slot_idx).or_insert_with(|| ShardWork {
                shard: slot.name.clone(),
                ..ShardWork::default()
            });
            work.postings_bytes_read += coarse.postings_bytes_read;
            work.ids_decoded += coarse.postings_decoded;
            work.candidates += coarse.candidates.len() as u64;
            total
                .candidates
                .extend(coarse.candidates.into_iter().map(|mut hit| {
                    hit.record += slot.base;
                    hit
                }));
        }
        // The joint candidate order: score desc, global record asc.
        // Globalised ids preserve the joint tie-break because shards
        // hold contiguous, ordered id ranges.
        total.candidates.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("coarse scores are finite")
                .then(a.record.cmp(&b.record))
        });
        total.candidates.truncate(params.max_candidates);
        Ok(total)
    }

    /// Fine only on shards owning a global winner, each aligning its
    /// own candidates under shard-local ids.
    fn fine(
        &self,
        state: &mut ShardQuery,
        query: &DnaSeq,
        candidates: &[CoarseHit],
        mode: FineMode,
        params: &SearchParams,
        _timings: Option<&mut Vec<CandidateTiming>>,
    ) -> Result<Vec<FineResult>, IndexError> {
        let mut per_shard: BTreeMap<usize, Vec<CoarseHit>> = BTreeMap::new();
        for hit in candidates {
            let slot_idx = self.slot_index_of(hit.record);
            per_shard.entry(slot_idx).or_default().push(CoarseHit {
                record: hit.record - self.slots[slot_idx].base,
                ..*hit
            });
        }
        let targets: Vec<usize> = per_shard.keys().copied().collect();
        let batches: BTreeMap<usize, Arc<Vec<CoarseHit>>> = per_shard
            .into_iter()
            .map(|(slot_idx, hits)| (slot_idx, Arc::new(hits)))
            .collect();
        let query = Arc::new(query.clone());
        let outputs = self.run_phase(
            &mut state.failures,
            &targets,
            |slot_idx| JobKind::Fine {
                query: Arc::clone(&query),
                candidates: Arc::clone(&batches[&slot_idx]),
                mode,
            },
            params,
        );
        let mut results = Vec::with_capacity(candidates.len());
        for (slot_idx, output) in outputs {
            let PhaseOutput::Fine(fine) = output else {
                unreachable!("fine phase returned coarse output")
            };
            let base = self.slots[slot_idx].base;
            results.extend(fine.into_iter().map(|mut r| {
                r.record += base;
                r.coarse.record += base;
                r
            }));
        }
        Ok(results)
    }

    fn record_id(&self, record: u32) -> String {
        ShardSet::record_id(self, record)
    }

    /// A shard that failed any phase contributes nothing: drop even
    /// results it returned for other strands/phases, so a degraded
    /// answer equals a clean answer over the surviving shards.
    fn finish(
        &self,
        state: &mut ShardQuery,
        merged: &mut Merged,
    ) -> Result<Option<String>, IndexError> {
        self.ensure_alive(state)?;
        if state.failures.is_empty() {
            return Ok(None);
        }
        merged.retain(|(_, r)| !state.failures.contains_key(&self.slot_index_of(r.record)));
        self.degraded_queries.inc();
        Ok(Some(format!(
            "partial answer from {}",
            self.coverage_of(state)
        )))
    }
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            slot.tx = None; // close the channel so the worker exits
        }
        self.hedge_tx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Open one shard directory (`index.nucidx` + `store.nucsto`) as a
/// [`LocalShard`].
pub fn open_shard_dir(dir: &Path, name: &str) -> Result<Arc<dyn Shard>, IndexError> {
    let db = crate::collection::open_plain_dir(dir)?;
    Ok(Arc::new(LocalShard::new(name, db)) as Arc<dyn Shard>)
}

/// Partition `records` into `num_shards` contiguous slices and write a
/// sharded root: `root/SHARDS` plus one plain database directory per
/// shard, built in parallel (one builder thread per shard). Returns the
/// per-shard record counts.
pub fn build_sharded_root(
    root: &Path,
    records: Vec<(String, DnaSeq)>,
    num_shards: usize,
    config: &DbConfig,
) -> Result<Vec<u32>, IndexError> {
    assert!(num_shards > 0, "need at least one shard");
    std::fs::create_dir_all(root)?;
    let n = records.len();
    let mut slices: Vec<Vec<(String, DnaSeq)>> = Vec::with_capacity(num_shards);
    let mut rest = records;
    for i in 0..num_shards {
        // Shard i gets records [i*n/N, (i+1)*n/N) — contiguous, and
        // sizes differ by at most one.
        let start = i * n / num_shards;
        let end = (i + 1) * n / num_shards;
        let tail = rest.split_off(end - start);
        slices.push(rest);
        rest = tail;
    }
    let results: Vec<Result<(u32, u64, u64), IndexError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .into_iter()
            .enumerate()
            .map(|(i, slice)| {
                let dir: PathBuf = root.join(shard_dir_name(i));
                scope.spawn(move || build_shard_dir(&dir, slice, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard build thread panicked"))
            .collect()
    });
    let mut manifest = ShardManifest::new(
        config.index.k,
        config.index.stride,
        config.codec,
        crate::segment::storage_tag(config.storage),
    );
    let mut counts = Vec::with_capacity(num_shards);
    for result in results {
        let (records, index_bytes, store_bytes) = result?;
        counts.push(records);
        manifest.shards.push(ShardMeta {
            records,
            index_bytes,
            store_bytes,
        });
    }
    manifest.save(root)?;
    Ok(counts)
}

fn build_shard_dir(
    dir: &Path,
    records: Vec<(String, DnaSeq)>,
    config: &DbConfig,
) -> Result<(u32, u64, u64), IndexError> {
    std::fs::create_dir_all(dir)?;
    let mut store = SequenceStore::new(config.storage);
    let mut builder = nucdb_index::IndexBuilder::new(config.index.clone()).with_codec(config.codec);
    let count = records.len() as u32;
    for (id, seq) in records {
        builder.add_record(&seq.representative_bases());
        store.add(id, &seq);
    }
    let index_path = dir.join(crate::collection::INDEX_FILE);
    let store_path = dir.join(crate::collection::STORE_FILE);
    nucdb_index::write_index(&builder.finish(), &index_path)?;
    store.write_to(&store_path).map_err(io_err)?;
    let index_bytes = std::fs::metadata(&index_path)?.len();
    let store_bytes = std::fs::metadata(&store_path)?.len();
    Ok((count, index_bytes, store_bytes))
}
