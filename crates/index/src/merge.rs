//! Merging indexes: the maintenance path for a growing collection.
//!
//! GenBank-style archives grow continuously; rebuilding the whole index
//! per deposit batch would defeat the point of indexing. Instead the new
//! batch is indexed alone (cheap) and merged: record ids of the second
//! index are shifted past the first's, and equal-interval lists
//! concatenate — exactly the run-merge step of the external build, lifted
//! to whole indexes.
//!
//! Merging requires both inputs unstopped (a stopped index has already
//! discarded lists that the merged df might have kept); apply stopping
//! *after* merging with [`apply_stopping`].

use crate::compress::CompressedIndex;
use crate::error::IndexError;
use crate::postings::{Posting, PostingsList};
use crate::stopping::StopPolicy;

/// Merge two indexes over disjoint record sets: `b`'s records follow
/// `a`'s (its record ids are shifted by `a.num_records()`).
///
/// Both must share interval parameters and codec, and be unstopped.
pub fn merge_indexes(
    a: &CompressedIndex,
    b: &CompressedIndex,
) -> Result<CompressedIndex, IndexError> {
    if a.params().k != b.params().k || a.params().stride != b.params().stride {
        return Err(IndexError::Unsupported(
            "merge inputs disagree on interval parameters",
        ));
    }
    if a.codec() != b.codec() {
        return Err(IndexError::Unsupported("merge inputs disagree on codec"));
    }
    if a.params().stopping.is_some() || b.params().stopping.is_some() {
        return Err(IndexError::Unsupported(
            "merge inputs must be unstopped; apply stopping after merging",
        ));
    }

    let shift = a.num_records();
    let mut record_lens = a.record_lens().to_vec();
    record_lens.extend_from_slice(b.record_lens());

    // Two-pointer walk over both vocabularies (each sorted by code).
    let mut lists: Vec<(u64, PostingsList)> = Vec::new();
    let mut ia = 0usize;
    let mut ib = 0usize;
    let va = a.vocab();
    let vb = b.vocab();
    while ia < va.len() || ib < vb.len() {
        let ca = va.get(ia).map(|e| e.code);
        let cb = vb.get(ib).map(|e| e.code);
        match (ca, cb) {
            (Some(code_a), Some(code_b)) if code_a == code_b => {
                let mut list = a.list(ia)?;
                let tail = b.list(ib)?;
                list.entries
                    .extend(tail.entries.into_iter().map(|p| Posting {
                        record: p.record + shift,
                        offsets: p.offsets,
                    }));
                lists.push((code_a, list));
                ia += 1;
                ib += 1;
            }
            (Some(code_a), cb) if cb.is_none() || code_a < cb.unwrap() => {
                lists.push((code_a, a.list(ia)?));
                ia += 1;
            }
            (_, Some(code_b)) => {
                let tail = b.list(ib)?;
                let shifted = PostingsList {
                    entries: tail
                        .entries
                        .into_iter()
                        .map(|p| Posting {
                            record: p.record + shift,
                            offsets: p.offsets,
                        })
                        .collect(),
                };
                lists.push((code_b, shifted));
                ib += 1;
            }
            _ => unreachable!("loop condition guarantees one side remains"),
        }
    }

    Ok(CompressedIndex::from_sorted_lists(
        a.params().clone(),
        a.codec(),
        record_lens,
        lists.into_iter(),
    ))
}

/// Re-derive an index with a stopping policy applied: lists whose df
/// exceeds the policy's limit are dropped and the parameters record the
/// policy. The input must be unstopped.
pub fn apply_stopping(
    index: &CompressedIndex,
    policy: StopPolicy,
) -> Result<CompressedIndex, IndexError> {
    if index.params().stopping.is_some() {
        return Err(IndexError::Unsupported("index is already stopped"));
    }
    let limit = policy.df_limit(index.num_records(), index.vocab().iter().map(|e| e.df));
    let lists: Vec<(u64, PostingsList)> = (index.vocab().iter().enumerate())
        .filter(|(_, e)| e.df <= limit)
        .map(|(idx, e)| Ok((e.code, index.list(idx)?)))
        .collect::<Result<_, IndexError>>()?;
    let params = index.params().clone().with_stopping(policy);
    Ok(CompressedIndex::from_sorted_lists(
        params,
        index.codec(),
        index.record_lens().to_vec(),
        lists.into_iter(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::compress::ListCodec;
    use crate::interval::IndexParams;
    use nucdb_seq::random::{CollectionSpec, SyntheticCollection};
    use nucdb_seq::Base;

    fn records(seed: u64) -> Vec<Vec<Base>> {
        SyntheticCollection::generate(&CollectionSpec::tiny(seed))
            .records
            .iter()
            .map(|r| r.seq.representative_bases())
            .collect()
    }

    fn build(records: &[Vec<Base>], params: IndexParams) -> CompressedIndex {
        let mut builder = IndexBuilder::new(params);
        for r in records {
            builder.add_record(r);
        }
        builder.finish()
    }

    #[test]
    fn merge_equals_joint_build() {
        let first = records(71);
        let second = records(72);
        let params = IndexParams::new(8);

        let a = build(&first, params.clone());
        let b = build(&second, params.clone());
        let merged = merge_indexes(&a, &b).unwrap();

        let mut joint: Vec<Vec<Base>> = first;
        joint.extend(second);
        let reference = build(&joint, params);

        assert_eq!(merged.num_records(), reference.num_records());
        assert_eq!(merged.record_lens(), reference.record_lens());
        assert_eq!(
            merged.decode_all().unwrap(),
            reference.decode_all().unwrap()
        );
        assert_eq!(merged.blob(), reference.blob());
    }

    #[test]
    fn merge_with_empty_index() {
        let some = records(73);
        let params = IndexParams::new(6);
        let a = build(&some, params.clone());
        let empty = build(&[], params);
        let merged = merge_indexes(&a, &empty).unwrap();
        assert_eq!(merged.decode_all().unwrap(), a.decode_all().unwrap());
        let merged = merge_indexes(&empty, &a).unwrap();
        // Record ids unchanged (shift is 0).
        assert_eq!(merged.decode_all().unwrap(), a.decode_all().unwrap());
    }

    #[test]
    fn merge_block_codec_equals_joint_build_with_max_counts() {
        let first = records(81);
        let second = records(82);
        let params = IndexParams::new(8);
        let block = |recs: &[Vec<Base>]| {
            let mut builder = IndexBuilder::new(params.clone()).with_codec(ListCodec::Block);
            for r in recs {
                builder.add_record(r);
            }
            builder.finish()
        };

        let merged = merge_indexes(&block(&first), &block(&second)).unwrap();
        let mut joint: Vec<Vec<Base>> = first;
        joint.extend(second);
        let reference = block(&joint);

        assert_eq!(merged.blob(), reference.blob());
        assert_eq!(
            merged.decode_all().unwrap(),
            reference.decode_all().unwrap()
        );
        // The merged index keeps a usable max-count table (the skip
        // plan's hint source), identical to a from-scratch build's.
        assert_eq!(merged.max_counts(), reference.max_counts());
        assert!(merged.max_counts().is_some());
    }

    #[test]
    fn merge_rejects_mismatched_params() {
        let r = records(74);
        let a = build(&r, IndexParams::new(8));
        let b = build(&r, IndexParams::new(10));
        assert!(merge_indexes(&a, &b).is_err());
        let c = {
            let mut builder = IndexBuilder::new(IndexParams::new(8)).with_codec(ListCodec::Block);
            for rec in &r {
                builder.add_record(rec);
            }
            builder.finish()
        };
        assert!(merge_indexes(&a, &c).is_err());
    }

    #[test]
    fn merge_rejects_stopped_inputs() {
        let r = records(75);
        let stopped = build(
            &r,
            IndexParams::new(8).with_stopping(StopPolicy::DfAbsolute(100)),
        );
        let plain = build(&r, IndexParams::new(8));
        assert!(merge_indexes(&stopped, &plain).is_err());
        assert!(merge_indexes(&plain, &stopped).is_err());
    }

    #[test]
    fn apply_stopping_matches_build_time_stopping() {
        let r = records(76);
        let policy = StopPolicy::DfAbsolute(4);
        let unstopped = build(&r, IndexParams::new(6));
        let post = apply_stopping(&unstopped, policy).unwrap();
        let reference = build(&r, IndexParams::new(6).with_stopping(policy));
        assert_eq!(post.decode_all().unwrap(), reference.decode_all().unwrap());
        assert_eq!(post.params().stopping, Some(policy));
        assert!(
            apply_stopping(&post, policy).is_err(),
            "double stopping rejected"
        );
    }
}
