//! Morsel-style parallel partition scans.
//!
//! A pinned [`TableSnapshot`] is a list of immutable `Arc`'d partitions, so
//! scanning parallelizes trivially: zone maps first rule partitions out
//! (no column data touched), then worker threads pull the surviving
//! partition indices from a shared atomic cursor (the "morsel" dispenser —
//! no pre-chunking, so a thread that drew a cheap partition just pulls
//! more) and each produces that partition's filtered batch. Results are
//! reassembled in partition order, so a parallel scan returns
//! byte-identical batches to a sequential one.
//!
//! Scoped threads keep this dependency-free and borrow-friendly: workers
//! borrow the snapshot and filter straight off the caller's stack.

use std::sync::atomic::{AtomicUsize, Ordering};

use dt_common::{Batch, PredicateSet};
use dt_storage::TableSnapshot;

/// Fewest partitions a scan must filter, per worker thread, before it
/// fans out; below that it runs on the calling thread.
///
/// Starting and joining two scoped workers costs 100–250 µs on the
/// reference host (traced `exec.execute_us.point`: 247 µs for a read whose
/// zone maps leave 1 partition of 74, against 6 µs for the one-partition
/// `dt` class), while filtering one 4 096-row partition on two predicates
/// costs 10–15 µs. Measured on a 74-partition table, one thread beats two
/// up to 24 surviving partitions (336 µs against 384 µs) and loses from 32
/// (481 µs against 380 µs) — so a worker needs 16 partitions of its own.
/// The traced `range` class (2–3 survivors) ran 856 µs fanned out and
/// 336 µs on one thread.
const MIN_PARTITIONS_PER_THREAD: usize = 16;

#[cfg(test)]
thread_local! {
    /// How many scans this thread ran without fanning out.
    static SEQUENTIAL_SCANS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Scan `snap` as columnar batches (zone-map-pruned by `filter`), fanning
/// the partitions that survive pruning out over up to `threads` workers.
/// Falls back to the sequential scan when the parallelism cannot pay for
/// itself: one thread, no filter to evaluate, or too few surviving
/// partitions to keep two workers busy.
pub fn scan_batches_parallel(
    snap: &TableSnapshot,
    filter: Option<&PredicateSet>,
    threads: usize,
) -> Vec<Batch> {
    let survivors = snap.surviving_partitions(filter);
    let threads = threads.min(survivors.len() / MIN_PARTITIONS_PER_THREAD);
    // Without a filter a partition's batch is a handful of `Arc` clones:
    // nothing to share out.
    if threads <= 1 || filter.is_none() {
        #[cfg(test)]
        SEQUENTIAL_SCANS.with(|n| n.set(n.get() + 1));
        return (survivors.into_iter())
            .map(|i| snap.partition_batch(i, filter))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut found: Vec<(usize, Batch)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    while let Some(&i) = survivors.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        got.push((i, snap.partition_batch(i, filter)));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scan worker panicked"))
            .collect()
    });
    // Partition order == scan order; reassemble it.
    found.sort_by_key(|(i, _)| *i);
    found.into_iter().map(|(_, b)| b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_common::{row, CmpOp, Column, ColumnPredicate, DataType, Schema, Timestamp, TxnId, Value};
    use dt_storage::TableStore;

    fn snapshot_with(n: i64) -> TableSnapshot {
        let t = TableStore::with_partition_capacity(
            Schema::new(vec![Column::new("x", DataType::Int)]),
            Timestamp::EPOCH,
            TxnId(0),
            8,
        );
        t.commit_change(
            (0..n).map(|i| row!(i)).collect(),
            vec![],
            Timestamp::from_secs(1),
            TxnId(1),
        )
        .unwrap();
        t.snapshot_latest()
    }

    #[test]
    fn parallel_scan_matches_sequential_scan() {
        let snap = snapshot_with(100);
        assert!(snap.partition_count() > 1);
        for threads in [1, 2, 4, 16] {
            let rows: Vec<_> = scan_batches_parallel(&snap, None, threads)
                .iter()
                .flat_map(|b| b.to_rows())
                .collect();
            assert_eq!(rows, snap.scan(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_scan_prunes_and_filters_like_sequential() {
        let snap = snapshot_with(100);
        let f = PredicateSet::new(vec![ColumnPredicate {
            column: 0,
            op: CmpOp::GtEq,
            literal: Value::Int(90),
        }]);
        let expect: Vec<_> = (90..100i64).map(|i| row!(i)).collect();
        for threads in [1, 3, 8] {
            let rows: Vec<_> = scan_batches_parallel(&snap, Some(&f), threads)
                .iter()
                .flat_map(|b| b.to_rows())
                .collect();
            assert_eq!(rows, expect, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_partitions_is_fine() {
        let snap = snapshot_with(3); // single partition
        let rows: Vec<_> = scan_batches_parallel(&snap, None, 64)
            .iter()
            .flat_map(|b| b.to_rows())
            .collect();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn fan_out_is_decided_after_pruning() {
        let sequential_scans = || SEQUENTIAL_SCANS.with(|n| n.get());
        let at_least = |lo: i64| {
            PredicateSet::new(vec![ColumnPredicate {
                column: 0,
                op: CmpOp::GtEq,
                literal: Value::Int(lo),
            }])
        };
        // 125 partitions of 8 rows. A filter that prunes all of them, or
        // all but the last, must not start a worker, whatever the budget.
        let snap = snapshot_with(1000);
        assert_eq!(snap.partition_count(), 125);
        let pruned_before = dt_storage::zone_map_pruned_total();
        let before = sequential_scans();
        assert!(scan_batches_parallel(&snap, Some(&at_least(5000)), 8).is_empty());
        let one = scan_batches_parallel(&snap, Some(&at_least(995)), 8);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].to_rows().len(), 5);
        assert_eq!(sequential_scans(), before + 2);
        // Every pruned partition was counted (other tests may add more).
        assert!(dt_storage::zone_map_pruned_total() >= pruned_before + 125 + 124);

        // With most partitions surviving the scan fans out, and returns the
        // sequential scan's batches in partition order.
        let wide = at_least(100);
        let parallel = scan_batches_parallel(&snap, Some(&wide), 4);
        assert_eq!(sequential_scans(), before + 2);
        let sequential = scan_batches_parallel(&snap, Some(&wide), 1);
        assert_eq!(sequential_scans(), before + 3);
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.columns(), s.columns());
            assert_eq!(p.selection(), s.selection());
        }
    }
}
