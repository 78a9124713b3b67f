//! The row-location index: where every stored row of one table version
//! lives, so that a change finds its delete victims — and a merge counts
//! the stored copies of a row — in time proportional to the change, not
//! to the table (§3.3.2, §5.5: a refresh pays for what changed).
//!
//! One `RowIndex` maps the 64-bit hash of a stored row to its
//! `(partition, slot)` locations; a lookup verifies equality against the
//! partition's row, so a hash collision costs one extra comparison and
//! never a wrong answer. A [`TableStore`](crate::TableStore) caches at
//! most one, for one version. It is **derived data**: built lazily by the
//! first writer that needs it, and brought to a later version by the next
//! one from the version chain's own `added` / `removed` partition lists
//! (`TableStore::row_lookup`). Nothing on the install path knows it
//! exists, so overwrite, recluster, WAL replay and checkpoint restore need
//! no hook, and a fork starts without one.
//!
//! Memory: one map entry per stored row — 8 bytes of hash, a 24-byte
//! location slot and a control byte, ≈ 33 bytes at full load and up to
//! twice that just after the map has doubled — plus one `Arc` per live
//! partition. Rows with equal contents share an entry and spill their
//! locations into a `Vec`.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use parking_lot::MutexGuard;

use dt_common::{PartitionId, Value, VersionId};

use crate::partition::Partition;

/// Where one stored row lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loc {
    pub(crate) part: PartitionId,
    pub(crate) slot: u32,
}

/// The locations filed under one row hash: almost always one.
enum Locs {
    One(Loc),
    Many(Vec<Loc>),
}

impl Locs {
    fn as_slice(&self) -> &[Loc] {
        match self {
            Locs::One(loc) => std::slice::from_ref(loc),
            Locs::Many(locs) => locs,
        }
    }
}

/// The map's keys are already row hashes (keyed per index by a
/// [`RandomState`], so rows cannot be crafted to collide); hashing them a
/// second time would double the cost of every probe.
#[derive(Default)]
struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the row index is keyed by u64 only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// The locations of every row of one table version.
pub(crate) struct RowIndex {
    version: VersionId,
    hasher: RandomState,
    /// The version's partitions by id — what a location is verified
    /// against.
    parts: HashMap<PartitionId, Arc<Partition>>,
    locs: HashMap<u64, Locs, BuildHasherDefault<KeyIsHash>>,
}

impl RowIndex {
    /// Index `parts`, the partitions of `version`. Hashes every row once.
    pub(crate) fn build(version: VersionId, parts: &[Arc<Partition>]) -> RowIndex {
        let rows = parts.iter().map(|p| p.len()).sum();
        let mut index = RowIndex {
            version,
            hasher: RandomState::new(),
            parts: HashMap::with_capacity(parts.len()),
            locs: HashMap::with_capacity_and_hasher(rows, BuildHasherDefault::default()),
        };
        for p in parts {
            index.add(p);
        }
        index
    }

    /// The version whose rows this index locates.
    pub(crate) fn version(&self) -> VersionId {
        self.version
    }

    /// Move to `version`, whose partitions are this version's minus
    /// `removed` plus `added`. Hashes every row of both lists once.
    pub(crate) fn advance(
        &mut self,
        version: VersionId,
        removed: &[Arc<Partition>],
        added: &[Arc<Partition>],
    ) {
        for p in removed {
            self.remove(p);
        }
        for p in added {
            self.add(p);
        }
        self.version = version;
    }

    /// A row's key: its values hashed one after another, so that a row
    /// assembled from pieces hashes like the stored one.
    fn hash<'v>(&self, values: impl Iterator<Item = &'v Value>) -> u64 {
        let mut h = self.hasher.build_hasher();
        for v in values {
            v.hash(&mut h);
        }
        h.finish()
    }

    fn add(&mut self, part: &Arc<Partition>) {
        for (slot, row) in part.rows().iter().enumerate() {
            let loc = Loc {
                part: part.id(),
                slot: slot as u32,
            };
            match self.locs.entry(self.hash(row.values().iter())) {
                Entry::Vacant(e) => {
                    e.insert(Locs::One(loc));
                }
                Entry::Occupied(mut e) => match e.get_mut() {
                    Locs::One(first) => {
                        let first = *first;
                        e.insert(Locs::Many(vec![first, loc]));
                    }
                    Locs::Many(locs) => locs.push(loc),
                },
            }
        }
        self.parts.insert(part.id(), Arc::clone(part));
    }

    fn remove(&mut self, part: &Partition) {
        for (slot, row) in part.rows().iter().enumerate() {
            let loc = Loc {
                part: part.id(),
                slot: slot as u32,
            };
            if let Entry::Occupied(mut e) = self.locs.entry(self.hash(row.values().iter())) {
                let emptied = match e.get_mut() {
                    Locs::One(only) => *only == loc,
                    Locs::Many(locs) => {
                        locs.retain(|l| *l != loc);
                        locs.is_empty()
                    }
                };
                if emptied {
                    e.remove();
                }
            }
        }
        self.parts.remove(&part.id());
    }

    /// The location of every stored copy of the row made of `values`, in
    /// no particular order.
    pub(crate) fn locations<'a, 'v: 'a>(
        &'a self,
        values: impl Iterator<Item = &'v Value> + Clone + 'a,
    ) -> impl Iterator<Item = Loc> + 'a {
        self.locs
            .get(&self.hash(values.clone()))
            .map_or(&[][..], Locs::as_slice)
            .iter()
            .copied()
            .filter(move |loc| {
                (self.parts.get(&loc.part))
                    .and_then(|p| p.rows().get(loc.slot as usize))
                    .is_some_and(|stored| stored.values().iter().eq(values.clone()))
            })
    }
}

/// Read access to a table's rows **by value** at one pinned version, from
/// [`TableStore::row_lookup`](crate::TableStore::row_lookup). It holds the
/// store's index cache for as long as it lives — drop it before asking the
/// same store to prepare a change.
pub struct RowLookup<'a>(pub(crate) Held<'a>);

/// Whose index a [`RowLookup`] reads.
pub(crate) enum Held<'a> {
    /// The store's cached index, at the version asked for.
    Cached(MutexGuard<'a, Option<RowIndex>>),
    /// An index of a version older than the cached one, built for this
    /// lookup and dropped with it.
    ThrowAway(RowIndex),
}

impl RowLookup<'_> {
    pub(crate) fn index(&self) -> &RowIndex {
        match &self.0 {
            Held::Cached(guard) => guard.as_ref().expect("filled by row_lookup"),
            Held::ThrowAway(index) => index,
        }
    }

    /// How many stored rows of the pinned version consist of exactly
    /// `values`, every column in order — `row.values()`, or the pieces of a
    /// row not worth assembling.
    pub fn copies<'v>(
        &self,
        values: impl IntoIterator<Item = &'v Value, IntoIter: Clone>,
    ) -> usize {
        self.index().locations(values.into_iter()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{row, Row};

    fn part(id: u64, rows: Vec<Row>) -> Arc<Partition> {
        Arc::new(Partition::new(PartitionId(id), rows))
    }

    fn locs(index: &RowIndex, row: &Row) -> Vec<(u64, u32)> {
        let mut out: Vec<_> = index
            .locations(row.values().iter())
            .map(|l| (l.part.raw(), l.slot))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn duplicates_share_an_entry_and_leave_one_by_one() {
        let a = part(0, vec![row!(1i64), row!(2i64), row!(1i64)]);
        let b = part(1, vec![row!(1i64), row!(3i64)]);
        let mut index = RowIndex::build(VersionId(1), &[Arc::clone(&a), Arc::clone(&b)]);
        assert_eq!(locs(&index, &row!(1i64)), [(0, 0), (0, 2), (1, 0)]);
        assert_eq!(locs(&index, &row!(3i64)), [(1, 1)]);
        assert!(locs(&index, &row!(9i64)).is_empty());

        let c = part(2, vec![row!(2i64), row!(1i64)]);
        index.advance(VersionId(2), &[a], &[c]);
        assert_eq!(index.version(), VersionId(2));
        assert_eq!(locs(&index, &row!(1i64)), [(1, 0), (2, 1)]);
        assert_eq!(locs(&index, &row!(2i64)), [(2, 0)]);
    }

    #[test]
    fn a_location_slot_is_three_words() {
        // The figure the module doc and docs/PARALLEL_REFRESH.md quote.
        assert_eq!(std::mem::size_of::<Locs>(), 24);
    }
}
