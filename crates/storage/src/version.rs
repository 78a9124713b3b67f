//! Table versions: immutable snapshots in a table's history, each kept as
//! its delta from the version before it.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use dt_common::{DtError, DtResult, PartitionId, Timestamp, TxnId, VersionId};

/// One immutable version of a table: its commit metadata and the
/// partitions it moved relative to the previous version — all a version
/// keeps of its partition list, in memory, in the WAL install record and
/// in the checkpoint. The version's visible list in scan order is its
/// parent's with every `removed` partition replaced, in place, by its
/// share of the front of `added`, and the rest of `added` after the last
/// partition: a copy-on-write rewrite's survivors take the rewritten
/// partition's place, inserted rows go to the end, and a full replacement
/// (overwrite, recluster) removes everything and appends its partitions.
/// The store derives the visible lists from these deltas and keeps them
/// as chunked lists shared with the neighbouring versions. Versions are
/// ordered by commit timestamp, which is totally ordered per account
/// (drawn from the Hybrid Logical Clock, §5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableVersion {
    /// This version's id (dense index into the version chain).
    pub id: VersionId,
    /// Commit timestamp of the transaction that created this version.
    pub commit_ts: Timestamp,
    /// The transaction that created this version.
    pub created_by: TxnId,
    /// Partitions added relative to the previous version: each `removed`
    /// partition's replacements in turn, then the ones appended at the end.
    pub added: Vec<PartitionId>,
    /// Partitions removed relative to the previous version, in its scan
    /// order.
    pub removed: Vec<PartitionId>,
    /// Parallel to `removed`: how many partitions of `added`, taken in
    /// order from its front, take each removed partition's place.
    pub in_place: Vec<u32>,
    /// True when this version was produced by a *data-equivalent*
    /// maintenance operation (reclustering / defragmentation): files
    /// changed but logical contents did not (§5.5.2). Change scans skip
    /// such versions entirely instead of diffing their partitions.
    pub data_equivalent: bool,
    /// Total row count at this version (cached for cost estimation).
    pub row_count: usize,
}

impl TableVersion {
    /// True when this version changed nothing relative to its parent.
    pub fn is_empty_delta(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Most partition ids one chunk of a [`PartitionList`] holds.
const CHUNK: usize = 64;
/// Fewest ids a chunk other than the last holds.
const MIN_CHUNK: usize = CHUNK / 2;

/// The partitions visible at one version, in scan order: a persistent
/// list of `Arc`'d chunks of at most 64 ids behind an `Arc`'d spine. A
/// version's list shares with its parent's every chunk the delta did not
/// touch, so deriving it costs O(delta + N/64) ids copied, and cloning it
/// costs one reference count.
#[derive(Debug, Clone, Default)]
pub(crate) struct PartitionList {
    spine: Arc<[Arc<[PartitionId]>]>,
    len: usize,
}

impl PartitionList {
    /// Number of partitions in the list.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The ids in scan order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.spine.iter().flat_map(|chunk| chunk.iter().copied())
    }

    /// The list after a version that added `added`, removed `removed` and
    /// put `in_place` of the added partitions in the removed ones' places
    /// (see [`TableVersion`]). Chunks holding no removed partition are
    /// shared, and the scan for removed partitions stops at the last one,
    /// so an append copies only the spine and the last chunk. Fails with
    /// [`DtError::Corruption`] when the delta removes a partition the list
    /// does not hold or hands out more replacements than it adds.
    pub(crate) fn apply(
        &self,
        added: &[PartitionId],
        removed: &[PartitionId],
        in_place: &[u32],
    ) -> DtResult<PartitionList> {
        let corrupt = |msg: String| DtError::Corruption(format!("version delta: {msg}"));
        if in_place.len() != removed.len() {
            return Err(corrupt(format!(
                "{} removed partition(s) but {} in-place count(s)",
                removed.len(),
                in_place.len()
            )));
        }
        // Where each removed partition's replacements lie in `added`.
        let mut places: HashMap<PartitionId, Range<usize>> = HashMap::new();
        let mut next = 0usize;
        for (pid, n) in removed.iter().zip(in_place) {
            let end = next + *n as usize;
            if end > added.len() || places.insert(*pid, next..end).is_some() {
                return Err(corrupt(format!("bad replacement of partition {pid}")));
            }
            next = end;
        }
        let appended = &added[next..];

        let mut spine: Vec<Arc<[PartitionId]>> = Vec::with_capacity(self.spine.len() + 1);
        // Ids of rewritten chunks, not yet cut into chunks.
        let mut pending: Vec<PartitionId> = Vec::new();
        for (i, chunk) in self.spine.iter().enumerate() {
            let last = i + 1 == self.spine.len();
            let touched = (last && !appended.is_empty())
                || (!places.is_empty() && chunk.iter().any(|p| places.contains_key(p)))
                // A short rewrite absorbs its neighbour rather than
                // leaving a short chunk mid-list.
                || (!pending.is_empty() && pending.len() < MIN_CHUNK);
            if !touched {
                cut(&mut spine, &mut pending);
                spine.push(Arc::clone(chunk));
                continue;
            }
            for pid in chunk.iter() {
                match places.remove(pid) {
                    Some(range) => pending.extend_from_slice(&added[range]),
                    None => pending.push(*pid),
                }
            }
        }
        if let Some(pid) = places.keys().min() {
            return Err(corrupt(format!(
                "removes partition {pid}, which is not visible"
            )));
        }
        pending.extend_from_slice(appended);
        cut(&mut spine, &mut pending);
        Ok(PartitionList {
            spine: spine.into(),
            len: self.len + added.len() - removed.len(),
        })
    }
}

/// Cut `pending` into as few chunks of at most [`CHUNK`] ids as it takes,
/// of near-equal size — so each holds at least [`MIN_CHUNK`] when
/// `pending` does — and push them onto `spine`.
fn cut(spine: &mut Vec<Arc<[PartitionId]>>, pending: &mut Vec<PartitionId>) {
    let pieces = pending.len().div_ceil(CHUNK);
    let mut start = 0;
    for k in 0..pieces {
        let end = pending.len() * (k + 1) / pieces;
        spine.push(pending[start..end].into());
        start = end;
    }
    pending.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(raw: &[u64]) -> Vec<PartitionId> {
        raw.iter().map(|i| PartitionId(*i)).collect()
    }

    fn append(list: &PartitionList, raw: &[u64]) -> PartitionList {
        list.apply(&ids(raw), &[], &[]).unwrap()
    }

    #[test]
    fn empty_delta_detection() {
        let v = TableVersion {
            id: VersionId(0),
            commit_ts: Timestamp::EPOCH,
            created_by: TxnId(0),
            added: vec![],
            removed: vec![],
            in_place: vec![],
            data_equivalent: false,
            row_count: 0,
        };
        assert!(v.is_empty_delta());
    }

    #[test]
    fn survivors_take_the_place_of_what_they_replace() {
        let base = append(&PartitionList::default(), &[1, 2, 3, 4]);
        // 2 is rewritten into 7, 3 is deleted outright, 8 and 9 are inserts.
        let next = base
            .apply(&ids(&[7, 8, 9]), &ids(&[2, 3]), &[1, 0])
            .unwrap();
        assert_eq!(next.iter().collect::<Vec<_>>(), ids(&[1, 7, 4, 8, 9]));
        assert_eq!(next.len(), 5);
        assert_eq!(base.iter().collect::<Vec<_>>(), ids(&[1, 2, 3, 4]));
    }

    #[test]
    fn a_bad_delta_is_corruption() {
        let base = append(&PartitionList::default(), &[1]);
        for (removed, in_place) in [
            (ids(&[5]), vec![0]),
            (ids(&[1]), vec![1]),
            (ids(&[1]), vec![]),
            (ids(&[1, 1]), vec![0, 0]),
        ] {
            let got = base.apply(&[], &removed, &in_place);
            assert!(
                matches!(got, Err(DtError::Corruption(_))),
                "{removed:?} {in_place:?}"
            );
        }
    }

    #[test]
    fn an_append_shares_every_chunk_but_the_last() {
        let mut list = PartitionList::default();
        for i in 0..1000u64 {
            list = append(&list, &[i]);
        }
        let next = append(&list, &[1000]);
        let shared = (list.spine.iter().zip(next.spine.iter()))
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared + 1, list.spine.len());
        assert!(list.spine.len() <= 1000 / MIN_CHUNK + 1);
    }

    proptest! {
        /// Against a plain vector: random removals with random in-place
        /// counts and appends give the same scan order, and every chunk
        /// but the last stays between half full and full.
        #[test]
        fn a_chunked_list_edits_like_a_vector(
            steps in prop::collection::vec(
                (
                    prop::collection::vec(0..400usize, 0..6),
                    prop::collection::vec(0..3u32, 0..6),
                    0..90usize,
                ),
                1..40,
            ),
        ) {
            let (mut list, mut model, mut next_id) = (PartitionList::default(), Vec::new(), 0u64);
            let mut mint = |out: &mut Vec<PartitionId>, want: &mut Vec<PartitionId>| {
                out.push(PartitionId(next_id));
                want.push(PartitionId(next_id));
                next_id += 1;
            };
            for (picks, counts, appends) in steps {
                let mut doomed: Vec<usize> = if model.is_empty() {
                    vec![]
                } else {
                    picks.iter().map(|p| p % model.len()).collect()
                };
                doomed.sort_unstable();
                doomed.dedup();
                let (mut added, mut removed, mut in_place, mut want) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                let mut at = 0;
                for (k, slot) in doomed.iter().enumerate() {
                    want.extend_from_slice(&model[at..*slot]);
                    at = slot + 1;
                    let n = counts.get(k).copied().unwrap_or(0);
                    removed.push(model[*slot]);
                    in_place.push(n);
                    for _ in 0..n {
                        mint(&mut added, &mut want);
                    }
                }
                want.extend_from_slice(&model[at..]);
                for _ in 0..appends {
                    mint(&mut added, &mut want);
                }
                list = list.apply(&added, &removed, &in_place).unwrap();
                model = want;
                prop_assert_eq!(list.iter().collect::<Vec<_>>(), model.clone());
                prop_assert_eq!(list.len(), model.len());
                let sizes: Vec<usize> = list.spine.iter().map(|c| c.len()).collect();
                let body = &sizes[..sizes.len().saturating_sub(1)];
                prop_assert!(body.iter().all(|n| (MIN_CHUNK..=CHUNK).contains(n)), "{:?}", sizes);
                prop_assert!(sizes.last().is_none_or(|n| (1..=CHUNK).contains(n)), "{:?}", sizes);
            }
        }
    }
}
