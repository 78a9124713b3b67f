//! Storage-wide scan telemetry.
//!
//! One process-wide counter: how many micro-partitions zone-map pruning
//! has skipped outright (their column data never read). Per-partition
//! effects are already observable through
//! [`Partition::data_reads`](crate::partition::Partition::data_reads)
//! and per-call counts through
//! [`TableSnapshot::count_pruned`](crate::snapshot::TableSnapshot::count_pruned);
//! this aggregate exists for operational surfaces — `SHOW STATS` and the
//! wire `Stats` request report it through `dt_core::Engine::stats`, whose
//! rustdoc is the one table of counter names — where walking every
//! table's partitions under a lock would be the wrong trade.
//!
//! The counter is monotone and process-global (the engine is a single
//! process; a served "fleet" of engines would shard it per engine).

use std::sync::atomic::{AtomicU64, Ordering};

static ZONE_MAP_PRUNED: AtomicU64 = AtomicU64::new(0);

/// Record the `n` partitions one scan skipped by zone-map pruning: one
/// atomic add per scan, none when nothing was pruned.
pub(crate) fn record_zone_map_prunes(n: usize) {
    if n > 0 {
        ZONE_MAP_PRUNED.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// Total partitions skipped by zone-map pruning since process start.
/// Planning probes ([`count_pruned`]) do not count — only real scans
/// that never touched the pruned partition's data.
///
/// [`count_pruned`]: crate::snapshot::TableSnapshot::count_pruned
pub fn zone_map_pruned_total() -> u64 {
    ZONE_MAP_PRUNED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone() {
        let before = zone_map_pruned_total();
        record_zone_map_prunes(1);
        record_zone_map_prunes(0);
        record_zone_map_prunes(1);
        // Other tests scan concurrently; assert monotone growth, not an
        // exact delta.
        assert!(zone_map_pruned_total() >= before + 2);
    }
}
