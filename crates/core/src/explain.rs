//! Query EXPLAIN plans: *why* coarse search kept or dropped what it
//! did, and what fine search made of the survivors.
//!
//! [`QueryStats`](crate::QueryStats) says where time and I/O went; an
//! [`ExplainPlan`] says why — per-interval vocabulary hits with list
//! length, per-list ids and blocks decoded, the coarse floor, the
//! candidate-cutoff survivors with their coarse scores, and the
//! per-candidate fine outcome.
//!
//! Collection is strictly passive: the plan observes decisions the
//! engine already made and never feeds back into them, so results are
//! bit-identical with explain on or off (pinned by the `explain`
//! integration tests). When explain is off the whole layer costs one
//! `Option` discriminant branch per stage.
//!
//! Plans serialize to the workspace mini-JSON ([`ExplainPlan::to_value`])
//! — the shape `POST /search` returns under `"plan"` and flight-recorder
//! slow captures embed — and render as a text tree
//! ([`ExplainPlan::render_text`]) for `nucdb search --explain`.

use nucdb_obs::json::{num, Value};

use crate::fine::FineMode;
use crate::params::Strand;

/// One postings list consulted by coarse search, with what decoding it
/// cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ListExplain {
    /// Packed interval code.
    pub code: u64,
    /// Query positions mapping to this interval (the run length).
    pub qlen: u32,
    /// List length: records containing the interval. Zero when the
    /// interval is absent from the index (never seen, or stopped).
    pub df: u32,
    /// Postings entries decoded.
    pub ids_decoded: u64,
    /// Compressed bytes fetched for the list.
    pub bytes_read: u64,
    /// Blocks unpacked (block codec only).
    pub blocks_decoded: u32,
    /// Blocks left undecoded: always zero, since coarse search decodes
    /// every block of every list it fetches.
    pub blocks_skipped: u32,
    /// The interval was looked up but is not in the index — never
    /// indexed, or discarded by the stopping policy.
    pub absent: bool,
}

/// A record that survived the coarse candidate cutoff.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SurvivorExplain {
    /// Record id.
    pub record: u32,
    /// Coarse score: the frame hits, as a float.
    pub score: f64,
    /// Total interval hits.
    pub hits: u32,
    /// Hits within the best diagonal window.
    pub frame_hits: u32,
    /// Centre of the best diagonal window (seeds the fine band).
    pub best_diagonal: i64,
}

/// The coarse stage of one strand's plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoarseExplain {
    /// Interval length of the index (for rendering codes as sequence).
    pub k: usize,
    /// The build-time stopping policy, rendered (`"none"` when the index
    /// kept every interval). Absent lists under a policy were likely
    /// stopped rather than unseen.
    pub stopping: String,
    /// The coarse floor: `min_coarse_hits`, floored at 1 on the counts
    /// path.
    pub floor: u64,
    /// Every list consulted, in ascending code order.
    pub lists: Vec<ListExplain>,
    /// Candidates that survived the cutoff, descending score.
    pub survivors: Vec<SurvivorExplain>,
}

/// One fine-alignment outcome. Candidates the `min_score` filter dropped
/// are still listed (with `kept: false`) — that rejection is exactly the
/// kind of decision an explain plan exists to surface.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CandidateExplain {
    /// Record id.
    pub record: u32,
    /// Smith–Waterman score.
    pub score: i32,
    /// Nanoseconds spent aligning this candidate.
    pub nanos: u64,
    /// Did the candidate clear `min_score`?
    pub kept: bool,
}

/// One strand's plan: coarse evidence plus fine outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StrandExplain {
    /// Which strand (`Forward` or `Reverse`).
    pub strand: Strand,
    /// The coarse stage.
    pub coarse: CoarseExplain,
    /// The fine mode that ran (the requested one).
    pub fine_mode: String,
    /// Per-candidate fine outcomes, in alignment order.
    pub candidates: Vec<CandidateExplain>,
}

/// The complete explain plan for one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplainPlan {
    /// Query length in bases.
    pub query_len: usize,
    /// The coarse ranking, rendered as `"frame:W"` for a frame window of
    /// W bases.
    pub ranking: String,
    /// Candidate cutoff (`max_candidates`).
    pub max_candidates: usize,
    /// Fine-score filter (`min_score`).
    pub min_score: i32,
    /// Per-strand plans, in evaluation order.
    pub strands: Vec<StrandExplain>,
    /// Results after the strand merge.
    pub results: usize,
    /// The parts consulted, in record-id order: a live database's
    /// segments or a shard set's shards. Empty for one plain database.
    pub segments: Vec<SegmentExplain>,
}

/// One part row of a live database's or a shard set's plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentExplain {
    /// Human-readable part name (`seg-000003`, `memtable` or
    /// `shard-001`).
    pub label: String,
    /// First global record id the segment covers.
    pub base: u32,
    /// Records in the segment.
    pub records: u32,
}

/// Render a [`FineMode`] the way the CLI spells it.
pub fn fine_mode_name(mode: FineMode) -> String {
    match mode {
        FineMode::Banded { half_width } => format!("banded:{half_width}"),
        FineMode::Full => "full".to_string(),
        FineMode::FullWithTraceback => "trace".to_string(),
    }
}

fn strand_symbol(strand: Strand) -> &'static str {
    match strand {
        Strand::Forward => "+",
        Strand::Reverse => "-",
        Strand::Both => "?",
    }
}

/// Render an interval code as its base sequence (best-effort; falls back
/// to the numeric code when `k` is unknown).
fn interval_text(code: u64, k: usize) -> String {
    if k == 0 || k > 32 {
        return code.to_string();
    }
    nucdb_seq::unpack_kmer(code, k)
        .into_iter()
        .map(|b| b.to_ascii() as char)
        .collect()
}

impl ListExplain {
    fn to_value(&self, k: usize) -> Value {
        let mut members = vec![
            (
                "interval".to_string(),
                Value::Str(interval_text(self.code, k)),
            ),
            ("code".to_string(), num(self.code)),
            ("qlen".to_string(), num(u64::from(self.qlen))),
            ("df".to_string(), num(u64::from(self.df))),
        ];
        members.push(("ids_decoded".to_string(), num(self.ids_decoded)));
        members.push(("bytes_read".to_string(), num(self.bytes_read)));
        if self.blocks_decoded > 0 {
            members.push((
                "blocks_decoded".to_string(),
                num(u64::from(self.blocks_decoded)),
            ));
        }
        if self.absent {
            members.push(("absent".to_string(), Value::Bool(true)));
        }
        Value::Obj(members)
    }
}

impl CoarseExplain {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("stopping".to_string(), Value::Str(self.stopping.clone())),
            ("floor".to_string(), num(self.floor)),
            (
                "lists".to_string(),
                Value::Arr(self.lists.iter().map(|l| l.to_value(self.k)).collect()),
            ),
            (
                "survivors".to_string(),
                Value::Arr(
                    self.survivors
                        .iter()
                        .map(|s| {
                            Value::Obj(vec![
                                ("record".to_string(), num(u64::from(s.record))),
                                ("score".to_string(), Value::Num(s.score)),
                                ("hits".to_string(), num(u64::from(s.hits))),
                                ("frame_hits".to_string(), num(u64::from(s.frame_hits))),
                                (
                                    "best_diagonal".to_string(),
                                    Value::Num(s.best_diagonal as f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ExplainPlan {
    /// The plan as a JSON object (the `"plan"` member of `/search`
    /// responses and flight-recorder slow captures).
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("query_len".to_string(), num(self.query_len as u64)),
            ("ranking".to_string(), Value::Str(self.ranking.clone())),
            (
                "max_candidates".to_string(),
                num(self.max_candidates as u64),
            ),
            (
                "min_score".to_string(),
                Value::Num(f64::from(self.min_score)),
            ),
            (
                "strands".to_string(),
                Value::Arr(
                    self.strands
                        .iter()
                        .map(|strand| {
                            Value::Obj(vec![
                                (
                                    "strand".to_string(),
                                    Value::Str(strand_symbol(strand.strand).to_string()),
                                ),
                                ("coarse".to_string(), strand.coarse.to_value()),
                                (
                                    "fine_mode".to_string(),
                                    Value::Str(strand.fine_mode.clone()),
                                ),
                                (
                                    "fine".to_string(),
                                    Value::Arr(
                                        strand
                                            .candidates
                                            .iter()
                                            .map(|c| {
                                                Value::Obj(vec![
                                                    (
                                                        "record".to_string(),
                                                        num(u64::from(c.record)),
                                                    ),
                                                    (
                                                        "score".to_string(),
                                                        Value::Num(f64::from(c.score)),
                                                    ),
                                                    ("ns".to_string(), num(c.nanos)),
                                                    ("kept".to_string(), Value::Bool(c.kept)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("results".to_string(), num(self.results as u64)),
        ];
        if !self.segments.is_empty() {
            members.push((
                "segments".to_string(),
                Value::Arr(
                    self.segments
                        .iter()
                        .map(|seg| {
                            Value::Obj(vec![
                                ("segment".to_string(), Value::Str(seg.label.clone())),
                                ("base".to_string(), num(u64::from(seg.base))),
                                ("records".to_string(), num(u64::from(seg.records))),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Value::Obj(members)
    }

    /// Render the plan as an indented text tree (what `nucdb search
    /// --explain` prints). Lists beyond the `max_lists` heaviest (by
    /// decoded work) are summarized on one line; pass `usize::MAX` for
    /// everything.
    pub fn render_text(&self, max_lists: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan: {} bases, ranking {}, cutoff {}, min_score {} -> {} result(s)",
            self.query_len, self.ranking, self.max_candidates, self.min_score, self.results
        );
        if !self.segments.is_empty() {
            let _ = writeln!(out, "  segments: {} consulted", self.segments.len());
            for seg in &self.segments {
                let _ = writeln!(
                    out,
                    "      {:<12}  records {:>7}  base {:>7}",
                    seg.label, seg.records, seg.base,
                );
            }
        }
        for strand in &self.strands {
            let coarse = &strand.coarse;
            let absent = coarse.lists.iter().filter(|l| l.absent).count();
            let _ = writeln!(
                out,
                "  strand {}: coarse floor {}, stopping {}",
                strand_symbol(strand.strand),
                coarse.floor,
                coarse.stopping,
            );
            let _ = writeln!(
                out,
                "    lists: {} consulted, {} absent{}",
                coarse.lists.len(),
                absent,
                if absent > 0 && coarse.stopping != "none" {
                    " (possibly stopped)"
                } else {
                    ""
                },
            );
            // Heaviest lists first: decoded work is what the reader is
            // hunting for.
            let mut by_work: Vec<&ListExplain> =
                coarse.lists.iter().filter(|l| !l.absent).collect();
            by_work.sort_by_key(|l| std::cmp::Reverse((l.ids_decoded, l.df)));
            for list in by_work.iter().take(max_lists) {
                let blocks = if list.blocks_decoded > 0 {
                    format!("  blocks {}", list.blocks_decoded)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "      {}  df {:>6}  qlen {:>3}  ids {:>7}  {:>7} B{}",
                    interval_text(list.code, coarse.k),
                    list.df,
                    list.qlen,
                    list.ids_decoded,
                    list.bytes_read,
                    blocks,
                );
            }
            if by_work.len() > max_lists {
                let rest = &by_work[max_lists..];
                let ids: u64 = rest.iter().map(|l| l.ids_decoded).sum();
                let _ = writeln!(
                    out,
                    "      ... {} more list(s), {} further ids decoded",
                    rest.len(),
                    ids
                );
            }
            let _ = writeln!(
                out,
                "    survivors: {} past cutoff {}",
                coarse.survivors.len(),
                self.max_candidates
            );
            for survivor in &coarse.survivors {
                let _ = writeln!(
                    out,
                    "      record {:>6}  score {:>10.3}  hits {:>5}  frame {:>5}  diag {:+}",
                    survivor.record,
                    survivor.score,
                    survivor.hits,
                    survivor.frame_hits,
                    survivor.best_diagonal,
                );
            }
            let kept = strand.candidates.iter().filter(|c| c.kept).count();
            let _ = writeln!(
                out,
                "    fine {}: {} aligned, {} kept (min_score {})",
                strand.fine_mode,
                strand.candidates.len(),
                kept,
                self.min_score,
            );
            for candidate in &strand.candidates {
                let _ = writeln!(
                    out,
                    "      record {:>6}  score {:>6}  {:>9.3} ms  {}",
                    candidate.record,
                    candidate.score,
                    candidate.nanos as f64 / 1e6,
                    if candidate.kept { "kept" } else { "dropped" },
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> ExplainPlan {
        ExplainPlan {
            query_len: 40,
            ranking: "frame:16".to_string(),
            max_candidates: 30,
            min_score: 1,
            strands: vec![StrandExplain {
                strand: Strand::Forward,
                coarse: CoarseExplain {
                    k: 4,
                    stopping: "none".to_string(),
                    floor: 4,
                    lists: vec![
                        ListExplain {
                            code: 0b00011011, // ACGT
                            qlen: 2,
                            df: 17,
                            ids_decoded: 12,
                            bytes_read: 96,
                            blocks_decoded: 1,
                            ..ListExplain::default()
                        },
                        ListExplain {
                            code: 0,
                            qlen: 1,
                            absent: true,
                            ..ListExplain::default()
                        },
                    ],
                    survivors: vec![SurvivorExplain {
                        record: 3,
                        score: 9.0,
                        hits: 11,
                        frame_hits: 9,
                        best_diagonal: -2,
                    }],
                },
                fine_mode: "banded:24".to_string(),
                candidates: vec![
                    CandidateExplain {
                        record: 3,
                        score: 55,
                        nanos: 120_000,
                        kept: true,
                    },
                    CandidateExplain {
                        record: 7,
                        score: 0,
                        nanos: 90_000,
                        kept: false,
                    },
                ],
            }],
            results: 1,
            segments: vec![
                SegmentExplain {
                    label: "seg-000000".to_string(),
                    base: 0,
                    records: 5,
                },
                SegmentExplain {
                    label: "memtable".to_string(),
                    base: 5,
                    records: 2,
                },
            ],
        }
    }

    #[test]
    fn json_shape_round_trips_through_the_parser() {
        let plan = sample_plan();
        let rendered = plan.to_value().render();
        let parsed = nucdb_obs::json::parse(&rendered).unwrap();
        assert_eq!(parsed, plan.to_value());
        assert_eq!(parsed.get("query_len").and_then(Value::as_f64), Some(40.0));
        let Some(Value::Arr(strands)) = parsed.get("strands") else {
            panic!("no strands");
        };
        assert_eq!(strands.len(), 1);
        let coarse = strands[0].get("coarse").unwrap();
        assert_eq!(
            coarse.get("floor").and_then(Value::as_f64),
            Some(4.0),
            "{rendered}"
        );
        let Some(Value::Arr(lists)) = coarse.get("lists") else {
            panic!("no lists");
        };
        assert_eq!(
            lists[0].get("interval").and_then(Value::as_str),
            Some("ACGT")
        );
        assert_eq!(
            lists[0].get("blocks_decoded").and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(lists[1].get("absent"), Some(&Value::Bool(true)));
    }

    #[test]
    fn text_tree_names_the_decisions() {
        let text = sample_plan().render_text(16);
        assert!(text.contains("coarse floor 4"), "{text}");
        assert!(text.contains("ACGT"), "{text}");
        assert!(text.contains("survivors: 1"), "{text}");
        assert!(text.contains("dropped"), "{text}");
        assert!(text.contains("kept"), "{text}");
    }

    #[test]
    fn list_cap_summarizes_the_tail() {
        let mut plan = sample_plan();
        for code in 0..20u64 {
            plan.strands[0].coarse.lists.push(ListExplain {
                code,
                qlen: 1,
                df: 1,
                ids_decoded: 1,
                ..ListExplain::default()
            });
        }
        let text = plan.render_text(4);
        assert!(text.contains("more list(s)"), "{text}");
    }

    #[test]
    fn mode_names_match_the_cli_spelling() {
        assert_eq!(
            fine_mode_name(FineMode::Banded { half_width: 24 }),
            "banded:24"
        );
        assert_eq!(fine_mode_name(FineMode::Full), "full");
    }
}
