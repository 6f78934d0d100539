//! `serve_sharded`: the whole stack at once. The family mix on the
//! large corpus, split over two shards, served by `nucdb-serve` on
//! loopback inside the benchmark's process; two keep-alive connections,
//! each with one `POST /search` (FASTA body) in flight at a time — a
//! closed loop with two clients, because the host has two processors.
//!
//! It is the only workload that crosses HTTP parsing, the admission
//! queue, the shard fan-out and the global merge, and the only one
//! where throughput is not simply the inverse of latency.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nucdb::ShardSet;
use nucdb_obs::MetricsRegistry;
use nucdb_serve::{start_sharded, ServeConfig, ServerHandle};

use crate::gate::{answer_of, check_answers, oracle_answers, recall_planted, Answer};
use crate::http::{answer_of_response, fasta_body, prometheus_value, Client};
use crate::inputs::{family_mix, locked_inputs, Mix, MIX_LEN};
use crate::load::{closed_loop, Window};
use crate::setup::{build_sharded, build_static, repeat, SetupCost, WorkDir};
use crate::spans::Trace;
use crate::staged::{layer_metrics, trace_mix};
use crate::{Ctx, Report, TRACE_PASSES};

const NAME: &str = "serve_sharded";
const CLIENTS: usize = 2;

/// A running server over a shard set; shut down and joined on drop.
struct Served {
    handle: Option<ServerHandle>,
    set: Arc<ShardSet>,
    cost: SetupCost,
    start_s: f64,
}

impl Served {
    fn start(seed: u64, bases: usize, dir: &Path, defaults: nucdb::SearchParams) -> Served {
        let (set, registry, cost) = build_sharded(seed, bases, dir);
        let start = Instant::now();
        let handle = start_sharded(
            ("127.0.0.1", 0),
            Arc::clone(&set),
            registry as Arc<MetricsRegistry>,
            defaults,
            ServeConfig::default(),
        )
        .expect("start server on loopback");
        Served {
            handle: Some(handle),
            set,
            cost,
            start_s: start.elapsed().as_secs_f64(),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("server running").addr()
    }

    fn setup_s(&self) -> f64 {
        self.cost.total_s() + self.start_s
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// One request: status 200 and the oracle's answer, or it failed.
fn request_ok(client: &mut Client, body: &str, want: &Answer) -> (bool, usize) {
    match client.post_search(body) {
        Ok((200, text)) => (answer_of_response(&text).as_ref() == Some(want), text.len()),
        Ok((_, text)) => (false, text.len()),
        Err(_) => (false, 0),
    }
}

struct Prepared {
    mix: Mix,
    oracle: Vec<Answer>,
    bodies: Vec<String>,
    served: Served,
    setup_s: f64,
    report: Report,
    work: WorkDir,
}

fn prepare(ctx: &Ctx, traced: bool) -> Result<Prepared, String> {
    let reps = if traced {
        1
    } else {
        ctx.scale.large_setup_reps
    };
    let bases = ctx.scale.large_bases;
    let (recs, mix) = locked_inputs(ctx.seed, bases, family_mix)?;
    let oracle = oracle_answers(&recs, &mix);
    drop(recs);

    let work = WorkDir::new(NAME);
    let (served, setup_s) = repeat(reps, &work.path().join("shards"), |dir| {
        let served = Served::start(ctx.seed, bases, dir, mix.params);
        let setup_s = served.setup_s();
        (served, setup_s)
    });

    let bodies: Vec<String> = mix
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| fasta_body(i, &q.seq))
        .collect();

    // Gate and warm-up in one pass, over HTTP like the timed requests.
    let mut report = Report::new(NAME, traced);
    let mut client = Client::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut got = Vec::with_capacity(bodies.len());
    for body in &bodies {
        let (status, text) = client
            .post_search(body)
            .map_err(|e| format!("gate request: {e}"))?;
        if status != 200 {
            return Err(format!("gate request answered {status}: {text}"));
        }
        got.push(answer_of_response(&text).ok_or("gate response is not a result document")?);
    }
    report.tally.add(check_answers(NAME, &got, &oracle));
    report.recall = recall_planted(&mix, &got, served.cost.records as u32);
    if report.tally.failed > 0 || report.recall < mix.min_recall {
        return Err(format!(
            "correctness gate failed: {} wrong answers, recall_planted {}",
            report.tally.failed, report.recall
        ));
    }
    Ok(Prepared {
        mix,
        oracle,
        bodies,
        served,
        setup_s,
        report,
        work,
    })
}

pub fn run_timed(ctx: &Ctx) -> Result<Report, String> {
    let Prepared {
        oracle,
        bodies,
        served,
        setup_s,
        mut report,
        work: _work,
        ..
    } = prepare(ctx, false)?;

    let addr = served.addr();
    let (warm, cursor) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("client connect");
                    let mut request = |i: usize| request_ok(&mut client, &bodies[i], &oracle[i]).0;
                    let take = |from: &AtomicUsize| from.fetch_add(1, Ordering::Relaxed);
                    closed_loop(
                        ctx.scale.warmup_s,
                        bodies.len(),
                        || take(&warm),
                        &mut request,
                    );
                    closed_loop(ctx.seconds, bodies.len(), || take(&cursor), &mut request)
                })
            })
            .collect();
        for client in clients {
            window.merge(client.join().expect("client thread panicked"));
        }
    });
    let summary = window.summary(MIX_LEN, ctx.scale.min_rounds)?;

    report.set_end_to_end(setup_s, &summary, served.cost.stored_bytes_per_base());
    report.tally.add(window.tally);
    Ok(report)
}

pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let Prepared {
        mix,
        oracle,
        bodies,
        served,
        mut report,
        work,
        ..
    } = prepare(ctx, true)?;
    let mut trace = Trace::new();

    // The stages, on a joint on-disk build of the same records: the
    // sharded path runs the same coarse and fine code per shard, and the
    // joint search is what the fan-out is an overhead over.
    let (joint, joint_cost) =
        build_static(ctx.seed, ctx.scale.large_bases, &work.path().join("joint"));
    let (totals, tally) = trace_mix(&joint, &mix, TRACE_PASSES, &oracle, &mut trace);
    report.tally.add(tally);
    let m = &mut report.metrics;
    layer_metrics(&totals, &trace, m)?;
    drop(joint);
    m.set("index.build_s", joint_cost.build_s);
    m.set("index.write_s", joint_cost.write_s);
    m.set("index.open_s", joint_cost.open_s);
    m.set("index.file_bytes", served.cost.index_bytes as f64);
    m.set("core.store.file_bytes", served.cost.store_bytes as f64);

    // The same queries through the shard set in process ...
    let mut shard = ShardSums::default();
    for pass in 0..TRACE_PASSES {
        for (i, q) in mix.queries.iter().enumerate() {
            let span = trace.open((pass * bodies.len() + i) as u32, "core.shard:search", None);
            let outcome = served.set.search(&q.seq, &mix.params);
            trace.close(span);
            match outcome {
                Ok(o) => {
                    shard.premerge += o.work.iter().map(|w| w.candidates).sum::<u64>();
                    shard.ids_decoded += o.work.iter().map(|w| w.ids_decoded).sum::<u64>();
                    shard.degraded += u64::from(!o.coverage.is_full());
                    report.tally.record(answer_of(&o.results) == oracle[i]);
                }
                Err(_) => report.tally.record(false),
            }
        }
    }
    // ... and over HTTP on one connection, so the difference is the server.
    let mut client = Client::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut response_bytes = 0usize;
    for pass in 0..TRACE_PASSES {
        for (i, body) in bodies.iter().enumerate() {
            let span = trace.open((pass * bodies.len() + i) as u32, "serve:request", None);
            let (ok, bytes) = request_ok(&mut client, body, &oracle[i]);
            trace.close(span);
            response_bytes += bytes;
            report.tally.record(ok);
        }
    }

    let queries = (TRACE_PASSES * bodies.len()) as f64;
    let shard_ns = trace.total("core.shard:search").0 as f64 / queries;
    let http_ns = trace.total("serve:request").0 as f64 / queries;
    m.set("core.shard.search_ns_per_query", shard_ns);
    m.set(
        "core.shard.premerge_candidates_per_query",
        shard.premerge as f64 / queries,
    );
    m.set(
        "core.shard.ids_decoded_per_query",
        shard.ids_decoded as f64 / queries,
    );
    m.set(
        "core.shard.fanout_overhead_ns_per_query",
        shard_ns - totals.whole_ns as f64 / totals.queries as f64,
    );
    m.set("core.shard.degraded_queries", shard.degraded as f64);
    m.set("serve.overhead_ns_per_request", http_ns - shard_ns);
    m.set(
        "serve.response_bytes_per_request",
        response_bytes as f64 / queries,
    );
    let (status, exposition) = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let series =
        |name: &str| prometheus_value(&exposition, name).ok_or(format!("/metrics has no {name}"));
    m.set(
        "serve.requests",
        series("nucdb_http_requests_total{code=\"200\"}")?,
    );
    m.set("serve.shed_503", series("nucdb_http_shed_total")?);

    report.write_trace(&trace)?;
    report.samples = totals.queries as usize;
    Ok(report)
}

#[derive(Default)]
struct ShardSums {
    premerge: u64,
    ids_decoded: u64,
    degraded: u64,
}
