//! Search parameters for partitioned query evaluation.

use nucdb_align::ScoringScheme;

use crate::fine::FineMode;

/// Which strands of the query to search.
///
/// A homologous region may sit on either strand of a stored record, so
/// production nucleotide search evaluates the query *and* its reverse
/// complement; the forward-only mode exists for experiments where the
/// workload generator plants forward-strand homologs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strand {
    /// Query as given.
    #[default]
    Forward,
    /// The reverse complement of the query.
    Reverse,
    /// Both, merged per record by best score.
    Both,
}

/// Everything a query evaluation needs besides the query itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchParams {
    /// Width in bases of the diagonal window coarse search ranks by: a
    /// record scores the most hits within any window this wide, which
    /// tolerates indels of up to that many bases inside one local
    /// alignment (experiment E8 sweeps it).
    pub frame_window: u32,
    /// Which strands to evaluate.
    pub strand: Strand,
    /// Number of coarse candidates passed to fine search (the paper's
    /// central speed/accuracy dial; experiment E3 sweeps it).
    pub max_candidates: usize,
    /// Records with fewer coarse hits than this are never candidates
    /// (filters accidental single-interval matches).
    pub min_coarse_hits: u32,
    /// Look up only every `query_stride`-th interval of the query (1 =
    /// all). Overlapping intervals are highly redundant, so striding cuts
    /// index lookups almost proportionally at modest accuracy cost — one
    /// of the coarse-search cost dials of the CAFE line.
    pub query_stride: usize,
    /// DUST-style masking of low-complexity *query* regions: intervals
    /// starting inside a masked region are not looked up, so a
    /// microsatellite in the query cannot flood coarse search with
    /// meaningless hits. `None` disables masking.
    pub mask: Option<nucdb_seq::DustParams>,
    /// How fine search aligns candidates.
    pub fine: FineMode,
    /// Alignment scoring scheme (shared by fine search and baselines).
    pub scheme: ScoringScheme,
    /// Results scoring below this are dropped.
    pub min_score: i32,
    /// At most this many results are returned.
    pub max_results: usize,
    /// Collect an [`ExplainPlan`](crate::ExplainPlan) alongside the
    /// results. Collection is passive — answers are bit-identical either
    /// way — but it allocates, so it is off by default.
    pub explain: bool,
}

impl Default for SearchParams {
    fn default() -> SearchParams {
        SearchParams {
            frame_window: 16,
            strand: Strand::Forward,
            max_candidates: 30,
            query_stride: 1,
            mask: None,
            min_coarse_hits: 2,
            fine: FineMode::default(),
            scheme: ScoringScheme::blastn(),
            min_score: 1,
            max_results: 100,
            explain: false,
        }
    }
}

impl SearchParams {
    /// Convenience: set the candidate cutoff.
    pub fn with_candidates(mut self, max_candidates: usize) -> SearchParams {
        self.max_candidates = max_candidates;
        self
    }

    /// Convenience: set the fine mode.
    pub fn with_fine(mut self, fine: FineMode) -> SearchParams {
        self.fine = fine;
        self
    }

    /// Convenience: set the strand mode.
    pub fn with_strand(mut self, strand: Strand) -> SearchParams {
        self.strand = strand;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_apply() {
        let p = SearchParams::default()
            .with_candidates(7)
            .with_fine(FineMode::Full);
        assert_eq!(p.max_candidates, 7);
        assert_eq!(p.fine, FineMode::Full);
    }

    #[test]
    fn defaults_are_sane() {
        let p = SearchParams::default();
        assert!(p.max_candidates > 0);
        assert!(p.max_results > 0);
        assert!(p.min_coarse_hits >= 1);
    }
}
