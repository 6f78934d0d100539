//! # nucdb-align
//!
//! The alignment substrate of the partitioned-search system, and the
//! exhaustive baselines the paper compares against.
//!
//! * [`sw`] — Smith–Waterman local alignment with affine gaps (Gotoh),
//!   both a linear-memory score-only form (used for exhaustive ground
//!   truth) and a full-traceback form (used to report final alignments).
//! * [`banded`] — banded local alignment around a known diagonal: the
//!   cheap "local alignment on likely answers" that fine search runs,
//!   seeded with the best diagonal found by coarse ranking — one
//!   candidate at a time (the scalar reference) or sixteen, one per
//!   `i16` lane (what fine search runs).
//! * [`nw`] — Needleman–Wunsch global alignment (used in tests and by
//!   callers that need end-to-end alignment of two fragments).
//! * [`fasta_heur`] / [`blast_heur`] — from-scratch FASTA-style (k-tuple
//!   diagonal method) and BLAST1-style (word hit + ungapped X-drop
//!   extension) scanners. They are *exhaustive*: they touch every record,
//!   exactly the behaviour the paper's partitioned search avoids.
//!
//! All alignment routines work over `&[Base]` — the representative-base
//! view that the packed sequence store decodes to.

#![warn(missing_docs)]

pub mod banded;
pub mod blast_heur;
pub mod evalue;
pub mod fasta_heur;
pub mod iupac;
pub mod nw;
pub mod result;
pub mod score;
pub mod sw;
pub mod words;

pub use banded::{band_for_diagonal, banded_sw_score, banded_sw_scores, BandScratch, LANES};
pub use blast_heur::{blast_scan, blast_score, BlastParams};
pub use evalue::{calibrate_gumbel, ungapped_lambda, GumbelFit};
pub use fasta_heur::{fasta_scan, fasta_score, FastaParams};
pub use iupac::{iupac_substitution, sw_score_iupac};
pub use nw::nw_align;
pub use result::{Alignment, CigarOp, ScanHit};
pub use score::ScoringScheme;
pub use sw::{sw_align, sw_score};
pub use words::WordTable;
