//! The DT dependency graph every scheduling decision reads (§5.1).
//!
//! The engine renders one [`DtGraph`] from its catalog for each scheduling
//! call: a node per live dynamic table, suspended ones included, with its
//! catalog target lag and state, and an edge from each DT its definition
//! binds to now. The graph computes everything the calls share once, when
//! it is built, in O(#DTs + #edges): the topological order, each DT's
//! effective target lag (`DOWNSTREAM` resolved, §3.2) and its refresh
//! period (§5.2).

use std::collections::{BTreeMap, BTreeSet};

use dt_common::{Duration, EntityId, TargetLag};

use crate::periods::canonical_period;

/// One live DT of a [`DtGraph`].
#[derive(Debug, Clone)]
struct DtNode {
    target: TargetLag,
    suspended: bool,
    /// Every entity its definition reads, base tables included, ascending.
    reads: Vec<EntityId>,
    /// The DTs of the graph this one reads, ascending.
    upstream: Vec<EntityId>,
    /// The DTs of the graph that read this one, ascending.
    downstream: Vec<EntityId>,
    /// Effective target lag; `None` for a `DOWNSTREAM` DT with no
    /// duration-lagged consumer (it refreshes only on demand).
    lag: Option<Duration>,
    /// Refresh period; `None` exactly when `lag` is.
    period: Option<Duration>,
}

/// The DT dependency graph: live DTs, the DTs each reads, and what the
/// scheduler derives from them.
#[derive(Debug, Clone, Default)]
pub struct DtGraph {
    nodes: BTreeMap<EntityId, DtNode>,
    /// Every node, upstream before downstream.
    order: Vec<EntityId>,
}

impl DtGraph {
    /// Build from every live DT: its id, target lag, whether it is
    /// suspended, and the entities its definition reads. A read of an
    /// entity that is not a node here (a base table, a dropped DT) or of
    /// the DT itself is no edge. A definition can come to read its own
    /// readers (a view re-pointed under it): the edge that would close such
    /// a cycle is left out, from the smallest DT still waiting on one, so
    /// the graph stays acyclic and every DT keeps a place in the order.
    pub fn new(
        dts: impl IntoIterator<Item = (EntityId, TargetLag, bool, Vec<EntityId>)>,
    ) -> DtGraph {
        let dts: Vec<_> = dts.into_iter().collect();
        let ids: BTreeSet<EntityId> = dts.iter().map(|(id, ..)| *id).collect();
        let mut nodes: BTreeMap<EntityId, DtNode> = dts
            .into_iter()
            .map(|(id, target, suspended, mut reads)| {
                reads.sort();
                reads.dedup();
                reads.retain(|up| *up != id);
                let upstream = (reads.iter().copied())
                    .filter(|up| ids.contains(up))
                    .collect();
                let node = DtNode {
                    target,
                    suspended,
                    reads,
                    upstream,
                    downstream: Vec::new(),
                    lag: None,
                    period: None,
                };
                (id, node)
            })
            .collect();
        let edges: Vec<(EntityId, EntityId)> = (nodes.iter())
            .flat_map(|(id, node)| node.upstream.iter().map(move |up| (*up, *id)))
            .collect();
        for (up, down) in edges {
            nodes
                .get_mut(&up)
                .expect("an edge joins two nodes")
                .downstream
                .push(down);
        }
        let order = topological_order(&mut nodes);

        // Lags resolve from the consumers, periods from the sources.
        for id in order.iter().rev() {
            let lag = match nodes[id].target {
                TargetLag::Duration(d) => Some(d),
                TargetLag::Downstream => (nodes[id].downstream.iter())
                    .filter_map(|d| nodes[d].lag)
                    .min(),
            };
            nodes.get_mut(id).expect("ordered").lag = lag;
        }
        for id in &order {
            let node = &nodes[id];
            let upstream_periods = node.upstream.iter().filter_map(|up| nodes[up].period);
            let period = node
                .lag
                .map(|lag| upstream_periods.fold(canonical_period(lag), Duration::max));
            nodes.get_mut(id).expect("ordered").period = period;
        }
        DtGraph { nodes, order }
    }

    /// Every DT, upstream before downstream.
    pub fn order(&self) -> &[EntityId] {
        &self.order
    }

    /// True when `id` is a suspended DT.
    pub fn is_suspended(&self, id: EntityId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.suspended)
    }

    /// The DTs `id` reads (none for an unknown id), ascending.
    pub fn upstream(&self, id: EntityId) -> &[EntityId] {
        self.nodes.get(&id).map_or(&[], |n| &n.upstream)
    }

    /// Every entity `id` reads, base tables included (none for an unknown
    /// id), ascending.
    pub fn reads(&self, id: EntityId) -> &[EntityId] {
        self.nodes.get(&id).map_or(&[], |n| &n.reads)
    }

    /// Effective target lag: durations stand; DOWNSTREAM resolves to the
    /// minimum effective lag of downstream DTs (§3.2). `None` for a
    /// DOWNSTREAM DT with no duration-lagged consumer (it refreshes only
    /// on demand).
    pub fn effective_lag(&self, id: EntityId) -> Option<Duration> {
        self.nodes.get(&id)?.lag
    }

    /// The refresh period of a DT: the canonical period for its effective
    /// lag, raised to at least every upstream DT's period (§5.2: each DT's
    /// period must be ≥ those upstream).
    pub fn period_of(&self, id: EntityId) -> Option<Duration> {
        self.nodes.get(&id)?.period
    }

    /// Every DT `id` reads, directly or through other DTs, in topological
    /// order.
    pub fn upstream_order(&self, id: EntityId) -> Vec<EntityId> {
        let mut closure = BTreeSet::new();
        let mut stack = self.upstream(id).to_vec();
        while let Some(up) = stack.pop() {
            if closure.insert(up) {
                stack.extend_from_slice(self.upstream(up));
            }
        }
        self.order
            .iter()
            .copied()
            .filter(|dt| closure.contains(dt))
            .collect()
    }

    /// Group `dts` into topological levels: every DT in level *k* reads
    /// (directly or transitively, **within the given set**) only DTs in
    /// levels < *k*. All DTs in one level can therefore refresh
    /// concurrently once the previous levels have installed; a parallel
    /// refresh round ranks its DTs by this order and starts each when the
    /// DTs it reads have landed. Ids that are not DTs of the graph are
    /// ignored; each level is in ascending id order.
    pub fn level_order(&self, dts: &[EntityId]) -> Vec<Vec<EntityId>> {
        let set: BTreeSet<EntityId> = dts.iter().copied().collect();
        // Depth of each DT = 1 + max depth of its in-set upstreams.
        let mut depth: BTreeMap<EntityId, usize> = BTreeMap::new();
        for id in self.order.iter().filter(|id| set.contains(id)) {
            let d = (self.upstream(*id).iter())
                .filter_map(|u| depth.get(u))
                .map(|d| d + 1)
                .max()
                .unwrap_or(0);
            depth.insert(*id, d);
        }
        let max_depth = depth.values().copied().max().map_or(0, |d| d + 1);
        let mut levels = vec![Vec::new(); max_depth];
        for (id, d) in depth {
            levels[d].push(id);
        }
        levels
    }
}

/// Kahn's algorithm with a stack, the ready DTs pushed in ascending id
/// order. When every DT left waits on another, the smallest of them drops
/// its edges from the DTs not placed yet (see [`DtGraph::new`]).
fn topological_order(nodes: &mut BTreeMap<EntityId, DtNode>) -> Vec<EntityId> {
    let mut waiting: BTreeMap<EntityId, usize> = nodes
        .iter()
        .map(|(id, n)| (*id, n.upstream.len()))
        .collect();
    let mut ready: Vec<EntityId> = (waiting.iter())
        .filter(|(_, w)| **w == 0)
        .map(|(id, _)| *id)
        .collect();
    let mut order = Vec::with_capacity(nodes.len());
    loop {
        while let Some(id) = ready.pop() {
            order.push(id);
            for down in &nodes[&id].downstream {
                let w = waiting.get_mut(down).expect("a node");
                *w -= 1;
                if *w == 0 {
                    ready.push(*down);
                }
            }
        }
        // Nothing is ready, so a DT still waits exactly when it is unplaced.
        let Some((&cut, _)) = waiting.iter().find(|(_, w)| **w > 0) else {
            return order;
        };
        let unplaced = |id: &EntityId| waiting[id] > 0;
        let dropped: Vec<EntityId> = nodes[&cut]
            .upstream
            .iter()
            .copied()
            .filter(unplaced)
            .collect();
        nodes
            .get_mut(&cut)
            .expect("a node")
            .upstream
            .retain(|up| !dropped.contains(up));
        for up in dropped {
            nodes
                .get_mut(&up)
                .expect("a node")
                .downstream
                .retain(|d| *d != cut);
        }
        waiting.insert(cut, 0);
        ready.push(cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: i64) -> Duration {
        Duration::from_mins(m)
    }

    /// A graph over `(id, lag, reads)`; `None` is DOWNSTREAM.
    fn graph(dts: &[(u64, Option<Duration>, &[u64])]) -> DtGraph {
        DtGraph::new(dts.iter().map(|(id, lag, reads)| {
            let target = lag.map_or(TargetLag::Downstream, TargetLag::Duration);
            (
                EntityId(*id),
                target,
                false,
                reads.iter().copied().map(EntityId).collect(),
            )
        }))
    }

    fn ids(v: &[u64]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    #[test]
    fn order_is_kahn_with_a_stack_over_ascending_ids() {
        // 1 and 2 are roots; 3 reads 1, 4 reads 2 and 3; 100 is a table.
        let one = Some(mins(1));
        let g = graph(&[
            (1, one, &[100]),
            (2, one, &[]),
            (3, one, &[1]),
            (4, one, &[2, 3]),
        ]);
        assert_eq!(g.order(), ids(&[2, 1, 3, 4]));
        assert_eq!(g.upstream(EntityId(4)), ids(&[2, 3]));
        assert_eq!(
            g.upstream(EntityId(1)),
            ids(&[]),
            "base tables are no edges"
        );
        assert_eq!(g.upstream_order(EntityId(4)), ids(&[2, 1, 3]));
    }

    #[test]
    fn reads_keep_base_tables_and_drop_the_dt_itself() {
        let one = Some(mins(1));
        let g = graph(&[(1, one, &[100, 100]), (2, one, &[1, 100, 2, 101])]);
        assert_eq!(g.reads(EntityId(1)), ids(&[100]));
        assert_eq!(g.reads(EntityId(2)), ids(&[1, 100, 101]));
        assert_eq!(g.upstream(EntityId(2)), ids(&[1]));
        assert_eq!(g.reads(EntityId(3)), ids(&[]));
    }

    #[test]
    fn level_order_groups_by_dag_depth() {
        let one = Some(mins(1));
        let g = graph(&[
            (1, one, &[100]),
            (2, one, &[100]),
            (3, one, &[1, 2]),
            (4, one, &[3]),
            (5, one, &[100]),
        ]);
        assert_eq!(
            g.level_order(&ids(&[1, 2, 3, 4, 5])),
            vec![ids(&[1, 2, 5]), ids(&[3]), ids(&[4])]
        );
        // Restricting the set re-levels: without 3, 4 has no in-set parent.
        assert_eq!(g.level_order(&ids(&[1, 4])), vec![ids(&[1, 4])]);
        // Ids that are not DTs are ignored.
        assert_eq!(g.level_order(&ids(&[100])), Vec::<Vec<EntityId>>::new());
    }

    #[test]
    fn downstream_lag_resolution() {
        let g = graph(&[
            (1, None, &[]),
            (2, Some(mins(10)), &[1]),
            (3, Some(mins(2)), &[1]),
        ]);
        // 1 inherits the *minimum* downstream lag.
        assert_eq!(g.effective_lag(EntityId(1)), Some(mins(2)));
        // A pure-DOWNSTREAM DT with no consumer resolves to None.
        let g = graph(&[(1, None, &[])]);
        assert_eq!(
            (g.effective_lag(EntityId(1)), g.period_of(EntityId(1))),
            (None, None)
        );
    }

    #[test]
    fn period_respects_upstream() {
        // Upstream with a large lag → large period; downstream with small
        // lag is clamped up to the upstream period (§5.2).
        let g = graph(&[
            (1, Some(Duration::from_hours(4)), &[]),
            (2, Some(mins(1)), &[1]),
        ]);
        assert_eq!(g.period_of(EntityId(2)), g.period_of(EntityId(1)));
        assert_eq!(
            g.period_of(EntityId(2)),
            Some(canonical_period(Duration::from_hours(4)))
        );
    }

    #[test]
    fn a_cycle_loses_the_edge_into_its_smallest_dt() {
        // 1 reads itself; 2 and 3 read each other; 4 reads 3.
        let one = Some(mins(1));
        let g = graph(&[
            (1, one, &[1]),
            (2, one, &[3]),
            (3, one, &[2]),
            (4, one, &[3]),
        ]);
        assert_eq!(g.upstream(EntityId(1)), ids(&[]));
        assert_eq!(
            (g.upstream(EntityId(2)), g.upstream(EntityId(3))),
            (&ids(&[])[..], &ids(&[2])[..])
        );
        assert_eq!(g.order(), ids(&[1, 2, 3, 4]));
        assert_eq!(
            g.level_order(&ids(&[1, 2, 3, 4])),
            vec![ids(&[1, 2]), ids(&[3]), ids(&[4])]
        );
        assert_eq!(g.upstream_order(EntityId(4)), ids(&[2, 3]));
    }
}
