//! Shared harness utilities for the experiment binaries (E1–E12).
//!
//! Each `src/bin/eN_*.rs` binary regenerates one table/figure of the
//! reconstructed evaluation (see EXPERIMENTS.md); this crate holds the
//! pieces they share: deterministic workload construction, timing, and
//! plain-text table rendering.

#![warn(missing_docs)]

use std::collections::HashSet;
use std::time::{Duration, Instant};

use nucdb::{Database, DbConfig};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::DnaSeq;

/// Standard workload: a synthetic collection of roughly `total_bases`
/// bases with planted homolog families and a realistic dose of
/// low-complexity repeats (deterministic in `seed`).
pub fn collection(seed: u64, total_bases: usize) -> SyntheticCollection {
    let spec = CollectionSpec {
        repeat_prob: 0.25,
        repeat_families: 4,
        ..CollectionSpec::sized(seed, total_bases)
    };
    SyntheticCollection::generate(&spec)
}

/// Build a database over a collection.
pub fn database(coll: &SyntheticCollection, config: &DbConfig) -> Database {
    Database::build(
        coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
        config,
    )
}

/// One query per planted family: a mutated fragment of the family parent.
/// `frac` controls query length relative to the parent; `divergence` the
/// mutation load.
pub fn family_queries(
    coll: &SyntheticCollection,
    frac: f64,
    divergence: f64,
) -> Vec<(usize, DnaSeq)> {
    (0..coll.families.len())
        .map(|f| {
            (
                f,
                coll.query_for_family(f, frac, &MutationModel::standard(divergence)),
            )
        })
        .collect()
}

/// The planted relevant set for family `f`.
pub fn family_relevant(coll: &SyntheticCollection, f: usize) -> HashSet<u32> {
    coll.families[f].member_ids.iter().copied().collect()
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Format a byte count with thousands separators.
pub fn bytes(n: u64) -> String {
    group_thousands(n)
}

/// Insert `,` thousands separators.
pub fn group_thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A plain-text table that renders with aligned columns.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", line.join("  "));
        };
        render(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            render(row);
        }
    }
}

/// The `latency_ns` block shared by the experiment JSON files: count,
/// mean, and p50/p90/p99/max of a latency histogram, in nanoseconds.
/// Percentiles are HDR-bucket upper bounds (≤ 1/16 relative error); see
/// DESIGN.md "Observability".
pub fn latency_block(latency: &nucdb_obs::HistogramSnapshot) -> json::Value {
    use json::Value;
    Value::Obj(vec![
        ("count", Value::Int(latency.count())),
        ("mean", Value::Num(latency.mean())),
        ("p50", Value::Int(latency.p50())),
        ("p90", Value::Int(latency.p90())),
        ("p99", Value::Int(latency.p99())),
        ("max", Value::Int(latency.max)),
    ])
}

/// Print an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Path of a machine-readable output file in the repository's `results/`
/// directory (created on demand). Experiment binaries drop JSON here
/// alongside their printed tables.
pub fn results_path(file: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(file)
}

/// Minimal JSON rendering for the experiment outputs — the workspace
/// carries no serialisation dependency, and the outputs are small flat
/// tables, so a tiny writer with stable key order suffices.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value.
    pub enum Value {
        /// A float (non-finite values render as `null`).
        Num(f64),
        /// An unsigned integer.
        Int(u64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object; keys render in insertion order.
        Obj(Vec<(&'static str, Value)>),
    }

    impl Value {
        /// Render to a JSON string.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, 0);
            out
        }

        fn write(&self, out: &mut String, depth: usize) {
            match self {
                Value::Num(x) if x.is_finite() => {
                    let _ = write!(out, "{x}");
                }
                Value::Num(_) => out.push_str("null"),
                Value::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                Value::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            c if (c as u32) < 0x20 => {
                                let _ = write!(out, "\\u{:04x}", c as u32);
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Value::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                        item.write(out, depth + 1);
                    }
                    if !items.is_empty() {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth));
                    }
                    out.push(']');
                }
                Value::Obj(fields) => {
                    out.push('{');
                    for (i, (key, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                        let _ = write!(out, "\"{key}\": ");
                        value.write(out, depth + 1);
                    }
                    if !fields.is_empty() {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth));
                    }
                    out.push('}');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1000), "1,000");
        assert_eq!(group_thousands(1234567), "1,234,567");
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["only-one".into()]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn json_renders_stably() {
        use super::json::Value;
        let v = Value::Obj(vec![
            ("name", Value::Str("a\"b".into())),
            ("n", Value::Int(3)),
            ("x", Value::Num(1.5)),
            ("bad", Value::Num(f64::NAN)),
            ("xs", Value::Arr(vec![Value::Int(1), Value::Int(2)])),
            ("empty", Value::Arr(vec![])),
        ]);
        let rendered = v.render();
        assert!(rendered.contains("\"name\": \"a\\\"b\""));
        assert!(rendered.contains("\"n\": 3"));
        assert!(rendered.contains("\"x\": 1.5"));
        assert!(rendered.contains("\"bad\": null"));
        assert!(rendered.contains("\"empty\": []"));
        // Balanced braces/brackets — structurally parseable.
        assert_eq!(rendered.matches('{').count(), rendered.matches('}').count());
        assert_eq!(rendered.matches('[').count(), rendered.matches(']').count());
    }

    #[test]
    fn workload_helpers_are_deterministic() {
        let a = collection(5, 100_000);
        let b = collection(5, 100_000);
        assert_eq!(a.records.len(), b.records.len());
        let qa = family_queries(&a, 0.5, 0.05);
        let qb = family_queries(&b, 0.5, 0.05);
        assert_eq!(qa.len(), qb.len());
        for ((fa, sa), (fb, sb)) in qa.iter().zip(&qb) {
            assert_eq!(fa, fb);
            assert_eq!(sa, sb);
        }
        assert!(!family_relevant(&a, 0).is_empty());
    }
}
