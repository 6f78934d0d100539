//! Integration: observability must be transparent. Search results are
//! bit-identical whether metrics are disabled, a registry is bound, or
//! the one capture handle logs, rings and tail-samples queries — and the
//! recorded numbers agree with what the engine reports through
//! [`QueryStats`](nucdb::QueryStats).

use std::path::{Path, PathBuf};

use nucdb::{CoarseScratch, Database, DbConfig, IndexVariant, SearchParams, Strand};
use nucdb_obs::{
    json, CaptureLog, CaptureReason, Forensics, ForensicsConfig, MetricsRegistry, QueryTrace,
    ValueSnapshot,
};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};

fn collection(seed: u64) -> SyntheticCollection {
    SyntheticCollection::generate(&CollectionSpec {
        seed,
        num_background: 80,
        num_families: 4,
        family_size: 3,
        ..CollectionSpec::default()
    })
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nucdb_obs_{}_{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A capture log at `path`.
fn log_at(path: &Path) -> Option<CaptureLog> {
    Some(CaptureLog::create(path, None).unwrap())
}

/// A capture handle with no ring that logs every `sample_every`-th
/// query to `path`.
fn strided_log(path: &Path, sample_every: u64) -> Forensics {
    Forensics::new(ForensicsConfig {
        recent_capacity: 0,
        sample_every,
        log: log_at(path),
        ..ForensicsConfig::default()
    })
}

/// Every observable detail of every answer, for bit-identity checks.
fn results_of(db: &Database, coll: &SyntheticCollection) -> Vec<Vec<(u32, i32, u32, Strand)>> {
    let params = SearchParams {
        strand: Strand::Both,
        ..SearchParams::default()
    };
    (0..coll.families.len())
        .map(|f| {
            let query = coll.query_for_family(f, 0.5, &MutationModel::standard(0.05));
            db.search(&query, &params)
                .unwrap()
                .results
                .iter()
                .map(|r| (r.record, r.score, r.coarse_hits, r.strand))
                .collect()
        })
        .collect()
}

#[test]
fn metrics_and_tracing_do_not_change_results() {
    let coll = collection(301);
    let build = || {
        Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &DbConfig::default(),
        )
    };

    // Baseline: observability fully disabled.
    let reference = results_of(&build(), &coll);

    // Metrics registry bound.
    let registry = MetricsRegistry::new();
    let mut with_metrics = build();
    with_metrics.bind_metrics(&registry);
    assert_eq!(results_of(&with_metrics, &coll), reference);

    // Strided capture log on top (every 2nd query).
    let dir = temp_dir("trace");
    let trace_path = dir.join("trace.jsonl");
    let mut with_trace = build();
    with_trace.bind_metrics(&MetricsRegistry::new());
    with_trace.set_forensics(strided_log(&trace_path, 2));
    assert_eq!(results_of(&with_trace, &coll), reference);
    with_trace.forensics().flush();

    // Log alone, no registry.
    let mut trace_only = build();
    trace_only.set_forensics(strided_log(&dir.join("solo.jsonl"), 1));
    assert_eq!(results_of(&trace_only, &coll), reference);

    // The registry actually observed the workload: one query per family
    // and a latency sample for each.
    let snapshot = registry.snapshot();
    let queries = coll.families.len() as u64;
    assert_eq!(
        snapshot.get("nucdb_queries_total"),
        Some(&ValueSnapshot::Counter(queries))
    );
    match snapshot.get("nucdb_query_latency_ns") {
        Some(ValueSnapshot::Histogram(hist)) => {
            assert_eq!(hist.count(), queries);
            assert!(hist.max > 0);
        }
        other => panic!("expected a latency histogram, got {other:?}"),
    }
    // Both-strand queries time the merge stage too.
    match snapshot.get_with("nucdb_stage_latency_ns", &[("stage", "strand_merge")]) {
        Some(ValueSnapshot::Histogram(hist)) => assert_eq!(hist.count(), queries),
        other => panic!("expected a strand_merge histogram, got {other:?}"),
    }

    // Every 2nd of 4 queries logged: 2 valid JSONL lines in the
    // flight-entry shape, their span trees carrying the stage timings.
    let traced = std::fs::read_to_string(&trace_path).unwrap();
    let lines: Vec<&str> = traced.lines().collect();
    assert_eq!(lines.len(), coll.families.len().div_ceil(2));
    for line in lines {
        let event = json::parse(line).unwrap();
        assert_eq!(event.get("reason").and_then(|v| v.as_str()), Some("recent"));
        for field in ["seq", "total_ns", "results"] {
            assert!(
                event.get(field).and_then(|v| v.as_f64()).is_some(),
                "missing {field}"
            );
        }
        let trace = QueryTrace::from_value(&event).unwrap();
        let mut stages = Vec::new();
        trace.root.walk(&mut |node| stages.push(node.name.as_str()));
        for stage in ["coarse", "fine", "strand_merge"] {
            assert!(stages.contains(&stage), "missing {stage}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forensics_is_transparent_and_flight_entries_carry_span_trees() {
    let coll = collection(303);
    let build = || {
        Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &DbConfig::default(),
        )
    };
    let reference = results_of(&build(), &coll);

    // Flight recorder alone: bit-identical results.
    let mut with_flight = build();
    with_flight.set_forensics(Forensics::new(ForensicsConfig {
        recent_capacity: 16,
        ..ForensicsConfig::default()
    }));
    assert_eq!(results_of(&with_flight, &coll), reference);

    // Tail sampling on top of a strided log: still bit-identical.
    let dir = temp_dir("forensics");
    let mut tail_sampled = build();
    tail_sampled.set_forensics(Forensics::new(ForensicsConfig {
        recent_capacity: 16,
        slow_capacity: 4,
        slow_threshold_ns: 1, // everything is "slow": max capture pressure
        sample_every: 2,
        log: log_at(&dir.join("capture.jsonl")),
        ..ForensicsConfig::default()
    }));
    assert_eq!(results_of(&tail_sampled, &coll), reference);
    tail_sampled.forensics().flush();

    // Each query is logged once, as slow, although every 2nd one is the
    // stride's too.
    let logged = std::fs::read_to_string(dir.join("capture.jsonl")).unwrap();
    assert_eq!(logged.lines().count(), coll.families.len());
    assert!(logged.lines().all(|l| l.contains("\"reason\":\"slow\"")));

    // Every query landed in the recent ring with a full span tree:
    // query at the root, the pipeline stages underneath, and the
    // accumulate stage carrying its work counters.
    let entries = with_flight.forensics().recent();
    assert_eq!(entries.len(), coll.families.len());
    for entry in &entries {
        let root = &entry.trace.root;
        assert_eq!(root.name, "query");
        assert!(entry.trace.total_ns > 0);
        let mut names = Vec::new();
        let mut counter_keys = Vec::new();
        root.walk(&mut |node| {
            names.push(node.name.as_str());
            counter_keys.extend(node.counters.iter().map(|(k, _)| k.as_str()));
        });
        for stage in ["coarse", "extract", "accumulate", "rank", "fine"] {
            assert!(names.contains(&stage), "span tree missing {stage}");
        }
        // Both-strand query: the merge stage must be present too.
        assert!(names.contains(&"strand_merge"));
        assert!(counter_keys.contains(&"postings_bytes_read"));
        assert!(counter_keys.contains(&"ids_decoded"));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_queries_are_always_captured_even_when_the_stride_skips_them() {
    let coll = collection(304);
    let mut db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let dir = temp_dir("slow_capture");

    // The log's stride takes query 0 and then nothing until query 1000
    // — so the second query below is deterministically skipped by the
    // 1-in-K sampler. The injected 2 ms delay pushes every query past
    // the 1 ms tail threshold, so the recorder must capture it anyway.
    db.set_forensics(Forensics::new(ForensicsConfig {
        recent_capacity: 8,
        slow_capacity: 4,
        slow_threshold_ns: 1_000_000,
        sample_every: 1000,
        log: log_at(&dir.join("capture.jsonl")),
        inject_delay_ns: 2_000_000,
    }));

    let params = SearchParams::default();
    let query = coll.query_for_family(0, 0.5, &MutationModel::standard(0.05));
    let mut scratch = CoarseScratch::new();
    db.search_with_id(&query, &params, &mut scratch, Some("warm"))
        .unwrap();
    db.search_with_id(&query, &params, &mut scratch, Some("slow-q"))
        .unwrap();
    db.forensics().flush();

    // The slow ring holds the skipped query, tagged slow, under the id
    // the caller supplied.
    let slow = db.forensics().slow();
    let captured = slow
        .iter()
        .find(|e| e.trace.request_id == "slow-q")
        .expect("slow query must be tail-sampled");
    assert!(matches!(captured.reason, CaptureReason::Slow));
    assert!(captured.trace.total_ns >= 1_000_000);

    // And the log got one parseable line for each query, the skipped
    // one included: both are there as tail captures, none as the
    // stride's.
    let logged = std::fs::read_to_string(dir.join("capture.jsonl")).unwrap();
    assert_eq!(logged.lines().count(), 2);
    assert!(!logged.contains("\"reason\":\"recent\""));
    let line = logged
        .lines()
        .find(|l| l.contains("slow-q"))
        .expect("slow log line");
    let value = json::parse(line).unwrap();
    assert_eq!(
        value.get("request_id").and_then(|v| v.as_str()),
        Some("slow-q")
    );
    assert_eq!(value.get("reason").and_then(|v| v.as_str()), Some("slow"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_database_metrics_agree_with_io_accessors() {
    let coll = collection(302);
    let db = Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        &DbConfig::default(),
    );
    let reference = results_of(&db, &coll);

    let dir = temp_dir("disk");
    let mut disk_db = db.with_disk_index(&dir.join("idx.nucidx")).unwrap();

    // Some I/O happens before binding: the carried-over counts must land
    // in the registry, and the legacy accessors must keep agreeing with
    // the registered counters afterwards.
    let query = coll.query_for_family(0, 0.5, &MutationModel::standard(0.05));
    disk_db.search(&query, &SearchParams::default()).unwrap();
    let (pre_bytes, pre_lists) = match disk_db.index() {
        IndexVariant::Disk(disk) => (disk.bytes_read(), disk.lists_read()),
        _ => panic!("expected a disk index"),
    };
    assert!(pre_bytes > 0 && pre_lists > 0);

    let registry = MetricsRegistry::new();
    disk_db.bind_metrics(&registry);
    assert_eq!(results_of(&disk_db, &coll), reference);

    let IndexVariant::Disk(disk) = disk_db.index() else {
        panic!("expected a disk index")
    };
    assert!(disk.bytes_read() > pre_bytes);
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.get("nucdb_index_bytes_read_total"),
        Some(&ValueSnapshot::Counter(disk.bytes_read()))
    );
    assert_eq!(
        snapshot.get("nucdb_index_lists_read_total"),
        Some(&ValueSnapshot::Counter(disk.lists_read()))
    );

    // Resetting through the legacy accessor clears the registered counter.
    disk.reset_io_counters();
    assert_eq!(
        registry.snapshot().get("nucdb_index_bytes_read_total"),
        Some(&ValueSnapshot::Counter(0))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
