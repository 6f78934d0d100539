//! Harness-side spans: one per call across a layer boundary, kept in
//! memory and written out when the run ends.
//!
//! A span's name is `<layer>` or `<layer>:<detail>`; the root of a
//! query's tree is `query` and belongs to `core.engine`. A layer's self
//! time is its spans' duration minus the part of it their child spans
//! cover, so the self times of one tree add up to its root's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of a query's tree.
pub const ROOT: &str = "query";

/// One recorded span. `parent` indexes the trace's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub query_id: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    if name == ROOT {
        return "core.engine";
    }
    name.split(':').next().unwrap_or(name)
}

/// All spans of one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; [`Trace::close`] ends it.
    pub fn open(&mut self, query_id: u32, name: &'static str, parent: Option<u32>) -> u32 {
        let now = self.now();
        self.push(query_id, name, parent, now, now)
    }

    /// End a span opened with [`Trace::open`].
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Record a finished span. A child is clipped to its parent's
    /// interval as known so far, so a replayed or reconstructed child
    /// can never claim more than its parent took; an open parent (end
    /// not yet set) clips only the start.
    pub fn push(
        &mut self,
        query_id: u32,
        name: &'static str,
        parent: Option<u32>,
        mut start_ns: u64,
        mut end_ns: u64,
    ) -> u32 {
        if let Some(p) = parent.map(|p| &self.spans[p as usize]) {
            start_ns = start_ns.max(p.start_ns);
            if p.end_ns > p.start_ns {
                start_ns = start_ns.min(p.end_ns);
                end_ns = end_ns.min(p.end_ns);
            }
        }
        self.spans.push(Span {
            query_id,
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        (self.spans.len() - 1) as u32
    }

    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    /// Self time of every span: duration minus the union of its direct
    /// children's intervals.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p as usize];
                let start = span.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = span.end_ns.clamp(parent.start_ns, parent.end_ns);
                children[p as usize].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Total self time per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&str, u64> {
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            *by_layer.entry(layer_of(span.name)).or_default() += self_ns;
        }
        by_layer
    }

    /// Total duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// One JSON object per span and line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"query_id\":{},\"span\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.query_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// query [0,100] → coarse [10,50] → {accumulate [20,45] → index
    /// replay [20,30]}, fine [50,90] → {store [52,60], align [60,85]}.
    fn hand_built() -> Trace {
        let mut t = Trace::new();
        let q = t.push(7, ROOT, None, 0, 100);
        let coarse = t.push(7, "core.coarse", Some(q), 10, 50);
        let acc = t.push(7, "core.coarse:accumulate", Some(coarse), 20, 45);
        t.push(7, "index:fetch", Some(acc), 20, 30);
        let fine = t.push(7, "core.fine", Some(q), 50, 90);
        t.push(7, "core.store:fetch", Some(fine), 52, 60);
        t.push(7, "align:banded", Some(fine), 60, 85);
        t
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let t = hand_built();
        let by_layer = t.self_ns_by_layer();
        assert_eq!(by_layer["core.engine"], 100 - 40 - 40);
        assert_eq!(by_layer["core.coarse"], (40 - 25) + (25 - 10));
        assert_eq!(by_layer["index"], 10);
        assert_eq!(by_layer["core.fine"], 40 - 8 - 25);
        assert_eq!(by_layer["core.store"], 8);
        assert_eq!(by_layer["align"], 25);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let mut t = Trace::new();
        let q = t.push(0, ROOT, None, 0, 100);
        t.push(0, "index:fetch", Some(q), 10, 60);
        t.push(0, "seq:mask", Some(q), 40, 80);
        let by_layer = t.self_ns_by_layer();
        assert_eq!(by_layer["core.engine"], 30);
        assert_eq!(by_layer["index"] + by_layer["seq"], 90);
    }

    #[test]
    fn a_replayed_child_is_clipped_to_its_parent() {
        let mut t = Trace::new();
        let q = t.push(0, ROOT, None, 100, 200);
        let child = t.push(0, "index:fetch", Some(q), 100, 350);
        assert_eq!((t.span(child).start_ns, t.span(child).end_ns), (100, 200));
        assert_eq!(t.self_ns_by_layer()["core.engine"], 0);
    }

    #[test]
    fn totals_and_layers() {
        let t = hand_built();
        assert_eq!(t.total("core.store:fetch"), (8, 1));
        assert_eq!(t.total("no.such"), (0, 0));
        assert_eq!(layer_of("core.coarse:rank"), "core.coarse");
        assert_eq!(layer_of(ROOT), "core.engine");
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let t = hand_built();
        let path = crate::out_dir().join(format!("spans-test-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 7);
        for line in text.lines() {
            let v = nucdb_obs::json::parse(line).unwrap();
            for key in ["id", "query_id", "span", "parent", "start_ns", "end_ns"] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }
}
