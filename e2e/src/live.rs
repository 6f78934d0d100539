//! `live_mixed`: searches beside writes on a `LiveDatabase`.
//!
//! Phase A bulk-loads a prefix of the large corpus in batches of 64 as
//! fast as it goes. Phase B is the mixed phase: a writer thread inserts
//! batches of 8 on a fixed **open-loop** schedule, one every 200 ms
//! (40 records/s) whatever the database is doing, each timed from the
//! moment it was due; the main thread runs the family mix in a closed
//! loop against `live.snapshot()`. The harness flushes every 256
//! records and runs one compaction step after every flush, on the
//! writing thread, so a flush or compaction stall delays the writer's
//! schedule and shows as write latency and lag; batches that have not
//! started when the window ends are shed.
//!
//! The other workloads read an index that never changes. This one uses
//! the same index, coarse and fine code over several segments and a
//! memtable, with snapshot swaps under the reader: a read-path gain
//! that is paid for in ingest rate, flush latency or space shows here
//! and nowhere else.

use std::time::{Duration, Instant};

use nucdb::{CoarseScratch, CompactionRun, LiveDatabase};

use crate::gate::{check_answers, oracle_answers, recall_planted, search_all, Answer};
use crate::inputs::{corpus, family_mix, locked_inputs, Mix, Record, MIX_LEN};
use crate::load::{closed_loop_solo, open_loop, WallClock};
use crate::setup::{create_live, repeat, WorkDir};
use crate::spans::Trace;
use crate::staged::{layer_metrics, trace_mix};
use crate::stats::median;
use crate::{Ctx, Report, TRACE_PASSES};

const NAME: &str = "live_mixed";
/// Records between flushes.
pub const FLUSH_EVERY: usize = 256;
const BULK_BATCH: usize = 64;
const MIXED_BATCH: usize = 8;
const MIXED_PERIOD: Duration = Duration::from_millis(200);

/// The writing side: inserts, and the flushes and compactions they
/// trigger, with the work each did.
struct Writer<'a> {
    live: &'a LiveDatabase,
    since_flush: usize,
    inserted: usize,
    insert_ns: u64,
    flush_ms: Vec<f64>,
    flushed_bytes: u64,
    compactions: Vec<CompactionRun>,
    batches: u32,
}

impl<'a> Writer<'a> {
    fn new(live: &'a LiveDatabase) -> Writer<'a> {
        Writer {
            live,
            since_flush: 0,
            inserted: 0,
            insert_ns: 0,
            flush_ms: Vec::new(),
            flushed_bytes: 0,
            compactions: Vec::new(),
            batches: 0,
        }
    }

    /// Insert one batch; flush and compact when due. Spans go to
    /// `trace` when there is one. Returns whether every call succeeded.
    fn insert(&mut self, batch: Vec<Record>, mut trace: Option<&mut Trace>) -> bool {
        let id = self.batches;
        self.batches += 1;
        let live = self.live;

        let records = batch.len();
        let (ok, ns) = spanned(&mut trace, id, "core.segment:insert", || {
            live.insert_batch(batch).is_ok()
        });
        self.insert_ns += ns;
        self.inserted += records;
        self.since_flush += records;
        if !ok || self.since_flush < FLUSH_EVERY {
            return ok;
        }
        self.since_flush = 0;
        let (ok, ns) = spanned(&mut trace, id, "core.segment:flush", || {
            live.flush().is_ok()
        });
        self.flush_ms.push(ns as f64 / 1e6);
        if !ok {
            return false;
        }
        self.flushed_bytes += last_segment_bytes(live);
        // One merge step a flush: every flush adds a segment and every
        // step removes one, so the count stays bounded while the writer's
        // stall stays a second or two. Compacting to quiescence here
        // cascades (256 into 512 into 1,792 ...) and stalls a writer for
        // five to nine seconds at this size, which no open-loop rate
        // worth measuring survives.
        let mut run = Ok(None);
        spanned(&mut trace, id, "core.segment:compact", || {
            run = live.compact_once();
            run.is_ok()
        });
        match run {
            Ok(run) => {
                self.compactions.extend(run);
                true
            }
            Err(_) => false,
        }
    }

    /// Flush what is left and compact until nothing is left to merge.
    fn settle(&mut self) -> bool {
        let flushed = self.live.flush();
        if matches!(flushed, Ok(true)) {
            self.flushed_bytes += last_segment_bytes(self.live);
        }
        match self.live.compact_all() {
            Ok(runs) => {
                self.compactions.extend(runs);
                flushed.is_ok()
            }
            Err(_) => false,
        }
    }

    fn segment_bytes(&self) -> (u64, u64) {
        self.live
            .status()
            .segments
            .iter()
            .fold((0, 0), |(i, s), seg| {
                (i + seg.index_bytes, s + seg.store_bytes)
            })
    }
}

/// Run `call` inside a span called `name` when there is a trace;
/// returns its result and how long it took.
fn spanned(
    trace: &mut Option<&mut Trace>,
    id: u32,
    name: &'static str,
    call: impl FnOnce() -> bool,
) -> (bool, u64) {
    let span = trace.as_deref_mut().map(|t| t.open(id, name, None));
    let start = Instant::now();
    let ok = call();
    let ns = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(span)) = (trace.as_deref_mut(), span) {
        t.close(span);
    }
    (ok, ns)
}

/// Bytes of the newest segment: a flush appends it in record-id order.
fn last_segment_bytes(live: &LiveDatabase) -> u64 {
    live.status().segments.last().map_or(0, |s| s.bytes())
}

fn batches(records: Vec<Record>, size: usize) -> Vec<Vec<Record>> {
    let mut out = Vec::with_capacity(records.len().div_ceil(size));
    let mut records = records.into_iter();
    loop {
        let batch: Vec<Record> = records.by_ref().take(size).collect();
        if batch.is_empty() {
            return out;
        }
        out.push(batch);
    }
}

/// Inputs of a run that may insert `mixed_batches` batches after the bulk.
struct Inputs {
    mix: Mix,
    /// Every record the run may insert, in insertion order: what the
    /// oracle is built over once it is known how many went in.
    records: Vec<Record>,
    bulk: Vec<Vec<Record>>,
    mixed: Vec<Vec<Record>>,
}

fn inputs(ctx: &Ctx, mixed_batches: usize) -> Result<Inputs, String> {
    let bulk_records = ctx.scale.live_bulk_records;
    let total = bulk_records + mixed_batches * MIXED_BATCH;
    let (mut recs, mix) = locked_inputs(ctx.seed, ctx.scale.large_bases, family_mix)?;
    if recs.len() < total {
        return Err(format!(
            "the corpus has {} records, this run needs {total}",
            recs.len()
        ));
    }
    recs.truncate(total);
    let records = recs.clone();
    let mixed = batches(recs.split_off(bulk_records), MIXED_BATCH);
    Ok(Inputs {
        mix,
        records,
        bulk: batches(recs, BULK_BATCH),
        mixed,
    })
}

/// The gate on the live database's current state: every query's answer
/// must equal a joint in-memory build's over the records inserted so
/// far. Returns the answers, which are the oracle's when it passes.
fn gate(
    writer: &Writer,
    inp: &Inputs,
    report: &mut Report,
    when: &str,
) -> Result<Vec<Answer>, String> {
    let oracle = oracle_answers(&inp.records[..writer.inserted], &inp.mix);
    let got = search_all(&writer.live.snapshot(), &inp.mix)
        .map_err(|e| format!("gate search {when} failed: {e}"))?;
    report.tally.add(check_answers(NAME, &got, &oracle));
    report.recall = recall_planted(&inp.mix, &got, writer.inserted as u32);
    if report.tally.failed > 0 || report.recall < inp.mix.min_recall {
        return Err(format!(
            "correctness gate failed {when}: {} failed operations, recall_planted {}",
            report.tally.failed, report.recall
        ));
    }
    Ok(got)
}

/// Phase A, then the gate on the state it leaves; returns the seconds
/// the load took, flushes and compactions included.
fn bulk_load(
    writer: &mut Writer,
    inp: &mut Inputs,
    report: &mut Report,
    mut trace: Option<&mut Trace>,
) -> Result<f64, String> {
    let start = Instant::now();
    for batch in std::mem::take(&mut inp.bulk) {
        let ok = writer.insert(batch, trace.as_deref_mut());
        report.tally.record(ok);
    }
    let wall_s = start.elapsed().as_secs_f64();
    gate(writer, inp, report, "after the bulk load")?;
    Ok(wall_s)
}

/// What the final state holds: the oracle's answers on it, the segment
/// files' bytes and the bases they store.
struct FinalState {
    answers: Vec<Answer>,
    index_bytes: u64,
    store_bytes: u64,
    bases: u64,
}

/// Settle, then the gate on the final state.
fn settle_and_gate(
    writer: &mut Writer,
    inp: &Inputs,
    report: &mut Report,
) -> Result<FinalState, String> {
    report.tally.record(writer.settle());
    let answers = gate(writer, inp, report, "on the final state")?;
    let (index_bytes, store_bytes) = writer.segment_bytes();
    let inserted = &inp.records[..writer.inserted];
    Ok(FinalState {
        answers,
        index_bytes,
        store_bytes,
        bases: inserted.iter().map(|(_, s)| s.len() as u64).sum(),
    })
}

pub fn run_timed(ctx: &Ctx) -> Result<Report, String> {
    let per_second = 1.0 / MIXED_PERIOD.as_secs_f64();
    let mut inp = inputs(ctx, (ctx.seconds * per_second) as usize)?;
    let mut report = Report::new(NAME, false);

    // Set-up is generation and `create`: a live database is empty when
    // opened. Filling it is phase A, reported as `ingest_records_per_s`;
    // it ends in six flushes and their compactions, so it is timed once
    // and is too unsteady to be held to a bound.
    let work = WorkDir::new(NAME);
    let (live, setup_s) = repeat(ctx.scale.small_setup_reps, work.path(), |dir| {
        let start = Instant::now();
        std::hint::black_box(corpus(ctx.seed, ctx.scale.large_bases));
        let live = create_live(dir);
        (live, start.elapsed().as_secs_f64())
    });
    let mut writer = Writer::new(&live);
    let bulk_s = bulk_load(&mut writer, &mut inp, &mut report, None)?;

    let mixed = std::mem::take(&mut inp.mixed);
    let mix = &inp.mix;
    let mut scratch = CoarseScratch::new();
    // The database changes under the reader, so there is no oracle per
    // search in phase B; the final state is gated below.
    let mut search = |i: usize| {
        live.snapshot()
            .search_with(&mix.queries[i].seq, &mix.params, &mut scratch)
            .is_ok()
    };
    closed_loop_solo(ctx.scale.warmup_s, MIX_LEN, &mut search);
    let scheduled = mixed.len();
    let (window, writes, shed) = std::thread::scope(|scope| {
        let writer = &mut writer;
        let window_s = Duration::from_secs_f64(ctx.seconds);
        let writing = scope.spawn(move || {
            let mut mixed = mixed.into_iter();
            let writes = open_loop(
                scheduled,
                MIXED_PERIOD,
                window_s,
                &WallClock(Instant::now()),
                |_| writer.insert(mixed.next().expect("one batch per slot"), None),
            );
            (writes, mixed.collect::<Vec<_>>())
        });
        let window = closed_loop_solo(ctx.seconds, MIX_LEN, &mut search);
        let (writes, shed) = writing.join().expect("writer thread panicked");
        (window, writes, shed)
    });
    for write in &writes {
        report.tally.record(write.ok);
    }
    // Batches the writer shed go in now, off the clock, so the final
    // state holds the same records whatever the host did to the writer.
    let shed_batches = shed.len();
    for batch in shed {
        let ok = writer.insert(batch, None);
        report.tally.record(ok);
    }
    let state = settle_and_gate(&mut writer, &inp, &mut report)?;

    let summary = window.summary(MIX_LEN, ctx.scale.min_rounds)?;
    report.set_end_to_end(
        setup_s,
        &summary,
        (state.index_bytes + state.store_bytes) as f64 / state.bases as f64,
    );
    let latencies: Vec<f64> = writes.iter().map(|w| w.latency_ms).collect();
    let max_lag = writes.iter().map(|w| w.lag_ms).fold(0.0, f64::max);
    report.extras.extend([
        (
            "ingest_records_per_s",
            ctx.scale.live_bulk_records as f64 / bulk_s,
            "1/s",
        ),
        ("write_latency_p50_ms", median(&latencies), "ms"),
        ("write_batches", writes.len() as f64, "count"),
        ("write_batches_shed", shed_batches as f64, "count"),
        ("writer_lag_ms_max", max_lag, "ms"),
    ]);
    report.tally.add(window.tally);
    Ok(report)
}

/// The traced run has no threads and no clock in it: the same inserts,
/// flushes, compactions and searches in the same order every time, so
/// every count repeats exactly.
pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let mut inp = inputs(ctx, ctx.scale.live_trace_batches)?;
    let mut report = Report::new(NAME, true);
    let mut trace = Trace::new();
    let work = WorkDir::new(NAME);
    let live = create_live(work.path());
    let mut writer = Writer::new(&live);
    let bulk_s = bulk_load(&mut writer, &mut inp, &mut report, Some(&mut trace))?;

    let mut scratch = CoarseScratch::new();
    let mix = &inp.mix;
    for (k, batch) in std::mem::take(&mut inp.mixed).into_iter().enumerate() {
        let ok = writer.insert(batch, Some(&mut trace));
        report.tally.record(ok);
        let q = &mix.queries[k % mix.queries.len()];
        let span = trace.open(k as u32, "core.segment:snapshot", None);
        let db = live.snapshot();
        trace.close(span);
        let span = trace.open(k as u32, "core.segment:search", None);
        let ok = db.search_with(&q.seq, &mix.params, &mut scratch).is_ok();
        trace.close(span);
        report.tally.record(ok);
    }
    let segments_at_end = live.status().segments.len();
    let state = settle_and_gate(&mut writer, &inp, &mut report)?;
    let (index_bytes, store_bytes) = (state.index_bytes, state.store_bytes);

    let snapshot = live.snapshot();
    let (totals, tally) = trace_mix(&snapshot, mix, TRACE_PASSES, &state.answers, &mut trace);
    report.tally.add(tally);

    let m = &mut report.metrics;
    layer_metrics(&totals, &trace, m)?;
    m.set("index.file_bytes", index_bytes as f64);
    m.set("core.store.file_bytes", store_bytes as f64);
    m.set(
        "core.segment.bulk_records_per_s",
        ctx.scale.live_bulk_records as f64 / bulk_s,
    );
    m.set(
        "core.segment.insert_ns_per_record",
        writer.insert_ns as f64 / writer.inserted as f64,
    );
    m.set("core.segment.flush_ms_p50", median(&writer.flush_ms));
    m.set(
        "core.segment.flush_ms_max",
        writer.flush_ms.iter().copied().fold(0.0, f64::max),
    );
    m.set("core.segment.flushes", writer.flush_ms.len() as f64);
    m.set(
        "core.segment.compaction_runs",
        writer.compactions.len() as f64,
    );
    m.set(
        "core.segment.compaction_s",
        writer.compactions.iter().map(|r| r.nanos).sum::<u64>() as f64 / 1e9,
    );
    let compacted: u64 = writer.compactions.iter().map(|r| r.output_bytes).sum();
    m.set(
        "core.segment.write_amplification",
        (writer.flushed_bytes + compacted) as f64 / (index_bytes + store_bytes) as f64,
    );
    m.set("core.segment.segments_at_end", segments_at_end as f64);
    let mean = |name: &str| {
        let (ns, n) = trace.total(name);
        ns as f64 / n.max(1) as f64
    };
    m.set("core.segment.snapshot_ns", mean("core.segment:snapshot"));
    m.set(
        "core.segment.search_ns_per_query",
        mean("core.segment:search"),
    );

    report.write_trace(&trace)?;
    report.samples = totals.queries as usize;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucdb_seq::DnaSeq;

    #[test]
    fn batches_keep_order_and_leave_a_short_tail() {
        let records: Vec<Record> = (0..10)
            .map(|i| (format!("r{i}"), DnaSeq::from_ascii(b"ACGT").unwrap()))
            .collect();
        let cut = batches(records, 4);
        let sizes: Vec<usize> = cut.iter().map(Vec::len).collect();
        assert_eq!(sizes, [4, 4, 2]);
        assert_eq!(cut[2][1].0, "r9");
        assert!(batches(Vec::new(), 4).is_empty());
    }
}
