//! `family_fine` and `screen_coarse`: one client, in process, against a
//! static database whose index and store are on disk.
//!
//! The two differ only in corpus size and query mix, and are there to
//! pull the layers apart. `family_fine` aligns 30 candidates a strand on
//! the small corpus, so fine search, record fetches and alignment are
//! most of a query; `screen_coarse` aligns four on the large one under a
//! high coarse floor, so postings decode and accumulation are nearly all
//! of it. A change to one side should move its workload and leave the
//! other alone.

use std::time::Instant;

use nucdb::{exhaustive_sw, CoarseScratch, Database, IndexVariant, OnDiskStore, StoreVariant};
use nucdb_index::{IndexBuilder, ListCodec, OnDiskIndex};
use nucdb_obs::MetricsRegistry;
use nucdb_seq::random::SyntheticCollection;

use crate::gate::{answer_of, check_answers, oracle_answers, recall_planted, search_all, Answer};
use crate::inputs::{corpus, db_config, family_mix, locked_inputs, screen_mix, Mix, MIX_LEN};
use crate::load::closed_loop_solo;
use crate::metrics::Metrics;
use crate::setup::{build_static, repeat, SetupCost, WorkDir};
use crate::spans::Trace;
use crate::staged::{layer_metrics, replay_lists, trace_mix};
use crate::{Ctx, Report, TRACE_PASSES};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    FamilyFine,
    ScreenCoarse,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::FamilyFine => "family_fine",
            Kind::ScreenCoarse => "screen_coarse",
        }
    }

    fn bases(self, ctx: &Ctx) -> usize {
        match self {
            Kind::FamilyFine => ctx.scale.small_bases,
            Kind::ScreenCoarse => ctx.scale.large_bases,
        }
    }

    fn setup_reps(self, ctx: &Ctx) -> usize {
        match self {
            Kind::FamilyFine => ctx.scale.small_setup_reps,
            Kind::ScreenCoarse => ctx.scale.large_setup_reps,
        }
    }

    fn mix(self, coll: &SyntheticCollection, seed: u64) -> Mix {
        match self {
            Kind::FamilyFine => family_mix(coll),
            Kind::ScreenCoarse => screen_mix(coll, seed),
        }
    }
}

/// Inputs, oracle answers and the database under test, gate passed.
struct Prepared {
    mix: Mix,
    oracle: Vec<Answer>,
    db: Database,
    cost: SetupCost,
    /// The fastest of the set-up repetitions.
    setup_s: f64,
    report: Report,
    _work: WorkDir,
}

fn prepare(kind: Kind, ctx: &Ctx, traced: bool) -> Result<Prepared, String> {
    let reps = if traced { 1 } else { kind.setup_reps(ctx) };
    let bases = kind.bases(ctx);
    let (recs, mix) = locked_inputs(ctx.seed, bases, |coll| kind.mix(coll, ctx.seed))?;
    let oracle = oracle_answers(&recs, &mix);
    drop(recs);

    let work = WorkDir::new(kind.name());
    let ((db, cost), setup_s) = repeat(reps, work.path(), |dir| {
        let (db, cost) = build_static(ctx.seed, bases, dir);
        ((db, cost), cost.total_s())
    });

    let mut report = Report::new(kind.name(), traced);
    let got = search_all(&db, &mix).map_err(|e| format!("gate search failed: {e}"))?;
    report.tally.add(check_answers(kind.name(), &got, &oracle));
    report.recall = recall_planted(&mix, &got, cost.records as u32);
    if report.recall < mix.min_recall {
        return Err(format!(
            "recall_planted {} is below {}",
            report.recall, mix.min_recall
        ));
    }
    if report.tally.failed > 0 {
        return Err("correctness gate failed".to_string());
    }
    Ok(Prepared {
        mix,
        oracle,
        db,
        cost,
        setup_s,
        report,
        _work: work,
    })
}

pub fn run_timed(kind: Kind, ctx: &Ctx) -> Result<Report, String> {
    let Prepared {
        mix,
        oracle,
        db,
        cost,
        setup_s,
        mut report,
        _work,
    } = prepare(kind, ctx, false)?;

    let mut scratch = CoarseScratch::new();
    let mut search = |i: usize| {
        db.search_with(&mix.queries[i].seq, &mix.params, &mut scratch)
            .is_ok_and(|o| answer_of(&o.results) == oracle[i])
    };
    closed_loop_solo(ctx.scale.warmup_s, MIX_LEN, &mut search);
    let window = closed_loop_solo(ctx.seconds, MIX_LEN, &mut search);
    let summary = window.summary(MIX_LEN, ctx.scale.min_rounds)?;

    report.set_end_to_end(setup_s, &summary, cost.stored_bytes_per_base());
    report.tally.add(window.tally);
    Ok(report)
}

pub fn run_traced(kind: Kind, ctx: &Ctx) -> Result<Report, String> {
    let Prepared {
        mix,
        oracle,
        db,
        cost,
        mut report,
        _work: work,
        ..
    } = prepare(kind, ctx, true)?;

    let mut trace = Trace::new();
    let (totals, tally) = trace_mix(&db, &mix, TRACE_PASSES, &oracle, &mut trace);
    report.tally.add(tally);

    let m = &mut report.metrics;
    layer_metrics(&totals, &trace, m)?;
    m.set("index.build_s", cost.build_s);
    m.set("index.write_s", cost.write_s);
    m.set("index.open_s", cost.open_s);
    m.set("index.file_bytes", cost.index_bytes as f64);
    m.set("core.store.file_bytes", cost.store_bytes as f64);

    if kind == Kind::FamilyFine {
        let dir = work.path().join("rep0");
        paper_codec_price(ctx, &db, &mix, m);
        m.set(
            "obs.metrics_overhead_pct",
            metrics_overhead_pct(&db, &dir, &mix),
        );
        m.set("bench.recall_sw_at_30", recall_sw_at_30(&db, &mix, &oracle));
    }
    report.write_trace(&trace)?;
    report.samples = totals.queries as usize;
    Ok(report)
}

/// What the lists this mix touches cost under the paper's bit-serial
/// codec: decode rate and index bytes per base. The default tier is the
/// block codec, so no end-to-end metric sees this; it is the price tag a
/// codec change is read against.
fn paper_codec_price(ctx: &Ctx, db: &Database, mix: &Mix, m: &mut Metrics) {
    let coll = corpus(ctx.seed, ctx.scale.small_bases);
    let config = db_config();
    let mut builder = IndexBuilder::new(config.index.clone()).with_codec(ListCodec::Paper);
    for record in &coll.records {
        builder.add_record(&record.seq.representative_bases());
    }
    let paper = builder.finish();
    // Every list the mix looks up, forward strand (the reverse strand's
    // lists are the same kind of list).
    let mut scratch = CoarseScratch::new();
    let mut codes: Vec<(u64, u32)> = Vec::new();
    for q in &mix.queries {
        let mut explain = nucdb::CoarseExplain::default();
        nucdb::coarse_rank_explain(
            db.index(),
            &q.seq.representative_bases(),
            &mix.params,
            &mut scratch,
            Some(&mut explain),
        )
        .expect("explain pass");
        codes.extend(
            explain
                .lists
                .iter()
                .filter(|l| !l.absent)
                .map(|l| (l.code, 0)),
        );
    }
    let mut io_buf = Vec::new();
    replay_lists(&paper, &codes, &mut io_buf); // warm
    let (ns, ids) = replay_lists(&paper, &codes, &mut io_buf);
    m.set(
        "codec.paper_decode_ids_per_s",
        ids as f64 / (ns.max(1) as f64 / 1e9),
    );
    m.set(
        "codec.paper_bytes_per_base",
        paper.stats().total_bytes() as f64 / coll.total_bases() as f64,
    );
}

/// Mean latency with the engine's metrics bound to a registry, against
/// detached, in percent; passes alternate so host drift hits both.
fn metrics_overhead_pct(detached: &Database, dir: &std::path::Path, mix: &Mix) -> f64 {
    let mut bound = Database::from_variants(
        StoreVariant::Disk(OnDiskStore::open(&dir.join("store.nucsto")).expect("reopen store")),
        IndexVariant::Disk(OnDiskIndex::open(&dir.join("index.nucidx")).expect("reopen index")),
    );
    let registry = MetricsRegistry::new();
    bound.bind_metrics(&registry);
    let mut scratch = CoarseScratch::new();
    let mut pass = |db: &Database| {
        let start = Instant::now();
        for q in &mix.queries {
            std::hint::black_box(db.search_with(&q.seq, &mix.params, &mut scratch).is_ok());
        }
        start.elapsed().as_secs_f64()
    };
    let (mut off, mut on) = (0.0, 0.0);
    for _ in 0..TRACE_PASSES {
        off += pass(detached);
        on += pass(&bound);
    }
    (on / off - 1.0) * 100.0
}

/// Share of the exhaustive Smith–Waterman top 30 that partitioned
/// search returns, over the first four queries. Report only: the oracle
/// calls the alignment code a later change will speed up, so it runs in
/// the traced run and never near a timed section.
fn recall_sw_at_30(db: &Database, mix: &Mix, answers: &[Answer]) -> f64 {
    let per_query: Vec<f64> = mix
        .queries
        .iter()
        .zip(answers)
        .take(4)
        .map(|(q, answer)| {
            let truth = exhaustive_sw(
                db.store(),
                &q.seq.representative_bases(),
                &mix.params.scheme,
            );
            let relevant = truth.iter().take(30).map(|h| h.id).collect();
            let ranked: Vec<u32> = answer.iter().map(|a| a.0).collect();
            nucdb::recall_at(&ranked, &relevant, 30)
        })
        .collect();
    per_query.iter().sum::<f64>() / per_query.len() as f64
}
