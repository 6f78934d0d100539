//! Workload inputs: one collection spec at two sizes, two query mixes,
//! and the lock that notices when the generator changes under them.
//!
//! `--seed` is the only source of randomness. The program under test
//! receives generated records and queries, never the seed.

use nucdb::{DbConfig, FineMode, SearchParams, StorageMode, Strand};
use nucdb_index::{IndexParams, ListCodec};
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::{Base, DnaSeq, DustParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The seed `inputs.lock` and `baseline.json` were taken with.
pub const DEFAULT_SEED: u64 = 1996;
/// Queries per mix; a workload cycles through them.
pub const MIX_LEN: usize = 64;
/// Band half-width of the default fine mode, for the computed DP-cell count.
pub const BAND_HALF_WIDTH: usize = 24;

const SCREEN_WINDOW: usize = 800;
const SCREEN_MIN_RECORD: usize = 900;

pub type Record = (String, DnaSeq);

/// The one collection shape every workload uses, at `bases` bases:
/// 64 planted families of 6 (one per family-mix query) in a background
/// a quarter of whose records carry a low-complexity repeat.
pub fn corpus(seed: u64, bases: usize) -> SyntheticCollection {
    let spec = CollectionSpec {
        num_families: MIX_LEN,
        family_size: 6,
        repeat_prob: 0.25,
        repeat_families: 4,
        seed,
        ..CollectionSpec::default()
    };
    // `CollectionSpec::sized` budgets for the default eight families;
    // redo its arithmetic for this spec so `bases` means what it says.
    let mean = |r: &std::ops::Range<usize>| (r.start + r.end) / 2;
    let member = mean(&spec.parent_len) + 2 * mean(&spec.flank_len);
    let planted = spec.num_families * spec.family_size * member;
    let background = bases.saturating_sub(planted) / mean(&spec.background_len);
    SyntheticCollection::generate(&CollectionSpec {
        num_background: background.max(1),
        ..spec
    })
}

pub fn records(coll: &SyntheticCollection) -> Vec<Record> {
    coll.records
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect()
}

/// The one build configuration: block postings, 2-bit store, k = 8.
pub fn db_config() -> DbConfig {
    DbConfig {
        index: IndexParams::new(8),
        codec: ListCodec::Block,
        storage: StorageMode::DirectCoding,
    }
}

/// A query and the records planted for it to find.
#[derive(Clone)]
pub struct Query {
    pub seq: DnaSeq,
    pub planted: Vec<u32>,
}

/// A query mix with the search parameters it is evaluated under.
#[derive(Clone)]
pub struct Mix {
    pub name: &'static str,
    pub queries: Vec<Query>,
    pub params: SearchParams,
    /// Lowest acceptable `recall_planted`.
    pub min_recall: f64,
}

/// Homology search: a mutated 60 % fragment of each family's parent,
/// both strands, 30 candidates, banded fine alignment.
pub fn family_mix(coll: &SyntheticCollection) -> Mix {
    let queries = (0..coll.families.len())
        .map(|f| Query {
            seq: coll.query_for_family(f, 0.6, &MutationModel::standard(0.08)),
            planted: coll.families[f].member_ids.clone(),
        })
        .collect();
    Mix {
        name: "family",
        queries,
        params: SearchParams {
            strand: Strand::Both,
            max_candidates: 30,
            fine: FineMode::Banded {
                half_width: BAND_HALF_WIDTH,
            },
            ..SearchParams::default()
        },
        min_recall: 0.95,
    }
}

/// Longest stretch a window may share with a planted repeat. Planted
/// repeats tile a unit of 1 to 6 bases for at least 50 bases; random
/// sequence repeats itself at such a period for 16 bases about once in
/// four billion positions.
const MAX_PERIODIC_RUN: usize = 16;

/// Does `bases` hold no stretch of a planted repeat? Tested directly:
/// no run of `MAX_PERIODIC_RUN` positions equal to the one `period`
/// further on, for any period a repeat unit can have.
fn is_repeat_free(bases: &[Base]) -> bool {
    (1..=6).all(|period| {
        let mut run = 0;
        bases.windows(period + 1).all(|w| {
            run = if w[0] == w[period] { run + 1 } else { 0 };
            run < MAX_PERIODIC_RUN
        })
    })
}

/// Contaminant screening: a lightly mutated 800-base window of a
/// background record must find that record. The coarse floor is high and
/// only four candidates are aligned, so the cost is postings work.
///
/// Windows are drawn from stretches free of the planted repeats. A
/// window across a repeat costs two to four times a clean one even when
/// masked, so with windows drawn blindly the mix's tail is "however many
/// repeats this seed hit" (p95 from 7.5 to 12.6 ms over six seeds); with
/// clean windows the 64 queries cost about the same and the percentiles
/// describe the system. Masking stays on, as the policy a screening
/// deployment runs with: its cost is part of every query, and unmasked,
/// a window that does cross a repeat floods coarse search.
pub fn screen_mix(coll: &SyntheticCollection, seed: u64) -> Mix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5c2e_e9a1_7b3d_4f06);
    let mut eligible: Vec<u32> = (0..coll.records.len() as u32)
        .filter(|&r| {
            let rec = &coll.records[r as usize];
            rec.id.starts_with("bg") && rec.seq.len() >= SCREEN_MIN_RECORD
        })
        .collect();
    let model = MutationModel::standard(0.03);
    let mut queries = Vec::with_capacity(MIX_LEN);
    while queries.len() < MIX_LEN {
        assert!(
            !eligible.is_empty(),
            "corpus too small for the screen mix: {} of {MIX_LEN} windows found",
            queries.len()
        );
        let source = eligible.swap_remove(rng.random_range(0..eligible.len()));
        let seq = &coll.records[source as usize].seq;
        let start = rng.random_range(0..=seq.len() - SCREEN_WINDOW);
        let window = seq.subseq(start..start + SCREEN_WINDOW);
        if is_repeat_free(&window.representative_bases()) {
            queries.push(Query {
                seq: model.apply(&window, &mut rng),
                planted: vec![source],
            });
        }
    }
    Mix {
        name: "screen",
        queries,
        params: SearchParams {
            strand: Strand::Both,
            max_candidates: 4,
            min_coarse_hits: 200,
            mask: Some(DustParams::default()),
            ..SearchParams::default()
        },
        min_recall: 1.0,
    }
}

/// Generate the corpus of `bases` bases and the mix `mix_of` draws from
/// it, and check both against the lock. Every workload starts here.
pub fn locked_inputs(
    seed: u64,
    bases: usize,
    mix_of: impl FnOnce(&SyntheticCollection) -> Mix,
) -> Result<(Vec<Record>, Mix), String> {
    let coll = corpus(seed, bases);
    let recs = records(&coll);
    let mix = mix_of(&coll);
    check_lock(
        seed,
        &[
            (format!("records.{bases}"), crc_records(&recs)),
            (format!("{}.{bases}", mix.name), crc_mix(&mix)),
        ],
    )?;
    Ok((recs, mix))
}

/// CRC-32 over ids and bases of a record list.
fn crc_records(records: &[Record]) -> u32 {
    let mut crc = nucdb_index::Crc32::new();
    for (id, seq) in records {
        crc.update(id.as_bytes());
        crc.update(&[0]);
        crc.update(&seq.to_ascii_vec());
        crc.update(&[0]);
    }
    crc.finish()
}

/// CRC-32 over the bases and planted truth of a query mix.
fn crc_mix(mix: &Mix) -> u32 {
    let mut crc = nucdb_index::Crc32::new();
    for q in &mix.queries {
        crc.update(&q.seq.to_ascii_vec());
        crc.update(&[0]);
        for id in &q.planted {
            crc.update(&id.to_le_bytes());
        }
    }
    crc.finish()
}

/// Compare `(name, crc)` pairs against `inputs.lock`. The generator
/// lives outside the benchmark's directory; if it changes, every number
/// would silently re-base, so the default seed's inputs are pinned. Any
/// other seed has no lock and just prints its checksums.
fn check_lock(seed: u64, checksums: &[(String, u32)]) -> Result<(), String> {
    for (name, crc) in checksums {
        eprintln!("input {name} crc32 {crc:08x}");
    }
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let lock = include_str!("../inputs.lock");
    for (name, crc) in checksums {
        let locked = lock
            .lines()
            .filter_map(|l| l.split_once(' '))
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.trim());
        match locked {
            Some(v) if v == format!("{crc:08x}") => {}
            Some(v) => {
                return Err(format!(
                    "workload inputs changed: {name} is {crc:08x}, inputs.lock says {v}"
                ))
            }
            None => {
                return Err(format!(
                    "workload inputs changed: {name} is not in inputs.lock"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = corpus(5, 1_000_000);
        let b = corpus(5, 1_000_000);
        let c = corpus(6, 1_000_000);
        assert_eq!(crc_records(&records(&a)), crc_records(&records(&b)));
        assert_ne!(crc_records(&records(&a)), crc_records(&records(&c)));
        assert_eq!(crc_mix(&family_mix(&a)), crc_mix(&family_mix(&b)));
        assert_eq!(crc_mix(&screen_mix(&a, 5)), crc_mix(&screen_mix(&b, 5)));
        assert_ne!(crc_mix(&screen_mix(&a, 5)), crc_mix(&screen_mix(&a, 6)));
    }

    #[test]
    fn corpus_is_about_the_size_asked_for_and_mixes_are_full() {
        let coll = corpus(9, 1_000_000);
        let bases = coll.total_bases() as f64;
        assert!((bases / 1e6 - 1.0).abs() < 0.05, "{bases} bases");
        let family = family_mix(&coll);
        let screen = screen_mix(&coll, 9);
        assert_eq!(family.queries.len(), MIX_LEN);
        assert_eq!(screen.queries.len(), MIX_LEN);
        assert!(family.queries.iter().all(|q| q.planted.len() == 6));
        let mut sources: Vec<u32> = screen.queries.iter().map(|q| q.planted[0]).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), MIX_LEN, "screen sources must be distinct");
    }

    #[test]
    fn planted_repeats_are_recognised_and_random_sequence_is_not() {
        let ascii = |s: &[u8]| DnaSeq::from_ascii(s).unwrap().representative_bases();
        assert!(is_repeat_free(&ascii(
            b"ACGTTGCAAGCTTAGGCATCGATCGGATTACAGGCATGCAT"
        )));
        assert!(!is_repeat_free(&ascii(&b"ACG".repeat(8))));
        assert!(!is_repeat_free(&ascii(
            &[&b"GATTACA"[..], &b"A".repeat(20)].concat()
        )));
        assert!(is_repeat_free(&ascii(&b"ACGGTA".repeat(2))));
        // Every screen window of a real corpus is clean, mutations aside.
        let coll = corpus(21, 1_000_000);
        assert!(coll
            .records
            .iter()
            .any(|r| !is_repeat_free(&r.seq.representative_bases())));
    }

    #[test]
    fn lock_catches_drift_only_for_the_default_seed() {
        let drifted = vec![("records.1000000".to_string(), 0xdead_beef)];
        let err = check_lock(DEFAULT_SEED, &drifted).unwrap_err();
        assert!(err.starts_with("workload inputs changed"), "{err}");
        assert!(check_lock(DEFAULT_SEED + 1, &drifted).is_ok());
        let unknown = vec![("records.123".to_string(), 1)];
        assert!(check_lock(DEFAULT_SEED, &unknown).is_err());
    }

    #[test]
    fn default_seed_inputs_match_the_lock() {
        let coll = corpus(DEFAULT_SEED, 1_000_000);
        let sums = vec![
            ("records.1000000".to_string(), crc_records(&records(&coll))),
            ("family.1000000".to_string(), crc_mix(&family_mix(&coll))),
            (
                "screen.1000000".to_string(),
                crc_mix(&screen_mix(&coll, DEFAULT_SEED)),
            ),
        ];
        check_lock(DEFAULT_SEED, &sums).unwrap();
    }
}
