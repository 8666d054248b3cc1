//! Batched update planning (paper Section 4.4, extended): a window of
//! route updates is coalesced to its net per-prefix effect before any
//! table is touched, so a withdraw/announce flap or a burst of next-hop
//! churn costs one logical change instead of many — the batch-window
//! generalization of the per-prefix dirty-bit flap absorption in
//! [`crate::RecentWithdrawals`].
//!
//! The planner is pure bookkeeping: [`BatchPlan`] is the coalesced
//! residue of a window, and the engine
//! ([`crate::ChiselLpm::apply_batch`]) applies the residue incrementally,
//! deferring every re-setup-requiring insert so all partition rebuilds of
//! the window run in parallel and the whole window publishes as one
//! snapshot generation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use chisel_prefix::Prefix;
pub use chisel_prefix::RouteUpdate;

use crate::update::UpdateStats;

/// One residual operation of a coalesced window: the last-writer update
/// for its prefix, plus the positions (into the ingested window) of every
/// raw event it absorbed — its own included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedOp {
    /// The net-effect update for this prefix.
    pub op: RouteUpdate,
    /// Window positions of the raw events this op stands for, in arrival
    /// order. `absorbed.len() - 1` events were coalesced away.
    pub absorbed: Vec<usize>,
}

/// The coalesced residue of an update window: at most one operation per
/// prefix, in first-touch order.
///
/// Correctness rests on two facts. Per prefix, the final routing state
/// depends only on the *last* update (announce/withdraw/announce collapses
/// to the final announce; next-hop churn collapses to the last write; an
/// announce followed by a withdraw collapses to the withdraw, which is a
/// safe no-op if the prefix was absent). Across distinct prefixes the
/// operations commute — they insert/remove different keys — so applying
/// the residue in any fixed order yields the same final route map as the
/// raw sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchPlan {
    /// Residual operations, first-touch order.
    pub ops: Vec<PlannedOp>,
    /// Number of raw events ingested into the plan.
    pub ingested: usize,
}

impl BatchPlan {
    /// Coalesces a window of events into its per-prefix net effect.
    pub fn of(events: &[RouteUpdate]) -> BatchPlan {
        let mut ops: Vec<PlannedOp> = Vec::new();
        let mut by_prefix: HashMap<Prefix, usize> = HashMap::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            match by_prefix.entry(ev.prefix()) {
                Entry::Occupied(o) => {
                    let planned = &mut ops[*o.get()];
                    planned.op = *ev;
                    planned.absorbed.push(i);
                }
                Entry::Vacant(v) => {
                    v.insert(ops.len());
                    ops.push(PlannedOp {
                        op: *ev,
                        absorbed: vec![i],
                    });
                }
            }
        }
        BatchPlan {
            ops,
            ingested: events.len(),
        }
    }

    /// Number of raw events absorbed into other events' residual ops.
    pub fn coalesced(&self) -> usize {
        self.ingested - self.ops.len()
    }

    /// Number of residual operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What one [`crate::ChiselLpm::apply_batch`] call did: the per-window
/// counterpart of the cumulative [`crate::BatchStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Raw events offered to the window.
    pub ingested: usize,
    /// Raw events absorbed by per-prefix coalescing (never touched a
    /// table).
    pub coalesced: usize,
    /// Residual operations actually applied.
    pub applied_ops: usize,
    /// Window positions (sorted) of raw events the engine did *not*
    /// apply: family/length-invalid events, plus events of residual ops
    /// rolled back because a failed re-setup found no spillover-TCAM room.
    /// The engine state reflects exactly the window minus these events.
    pub rejected_events: Vec<usize>,
    /// Classification tallies of the applied residual ops (residual ops,
    /// not raw events — coalesced-away events are not classified).
    pub kinds: UpdateStats,
    /// Partition-rebuild units executed for this window (each unit covers
    /// every deferred insert landing in one (cell, partition); the units
    /// build concurrently).
    pub parallel_resetups: usize,
    /// Inline re-setups the batch avoided: deferred inserts resolved by
    /// sharing a rebuild unit with another insert, or swept up by a
    /// capacity-doubling full cell rebuild that was due anyway.
    pub resetups_saved: u64,
}

impl BatchReport {
    /// Raw events the engine accepted (applied or coalesced into an
    /// applied op).
    pub fn accepted(&self) -> usize {
        self.ingested - self.rejected_events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chisel_prefix::NextHop;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    #[test]
    fn empty_window_plans_empty() {
        let plan = BatchPlan::of(&[]);
        assert!(plan.is_empty());
        assert_eq!(plan.coalesced(), 0);
    }

    #[test]
    fn distinct_prefixes_pass_through() {
        let evs = [
            RouteUpdate::Announce(p("10.0.0.0/8"), nh(1)),
            RouteUpdate::Withdraw(p("11.0.0.0/8")),
            RouteUpdate::Announce(p("12.0.0.0/8"), nh(2)),
        ];
        let plan = BatchPlan::of(&evs);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.coalesced(), 0);
        for (i, op) in plan.ops.iter().enumerate() {
            assert_eq!(op.op, evs[i]);
            assert_eq!(op.absorbed, vec![i]);
        }
    }

    #[test]
    fn flap_collapses_to_final_announce() {
        // announce/withdraw/announce on one prefix: net effect is the
        // last announce alone — the withdraw never touches a table.
        let evs = [
            RouteUpdate::Announce(p("10.0.0.0/8"), nh(1)),
            RouteUpdate::Withdraw(p("10.0.0.0/8")),
            RouteUpdate::Announce(p("10.0.0.0/8"), nh(2)),
        ];
        let plan = BatchPlan::of(&evs);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.coalesced(), 2);
        assert_eq!(
            plan.ops[0].op,
            RouteUpdate::Announce(p("10.0.0.0/8"), nh(2))
        );
        assert_eq!(plan.ops[0].absorbed, vec![0, 1, 2]);
    }

    #[test]
    fn next_hop_churn_collapses_to_last_write() {
        let evs: Vec<RouteUpdate> = (0..10)
            .map(|i| RouteUpdate::Announce(p("10.0.0.0/8"), nh(i)))
            .collect();
        let plan = BatchPlan::of(&evs);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.coalesced(), 9);
        assert_eq!(
            plan.ops[0].op,
            RouteUpdate::Announce(p("10.0.0.0/8"), nh(9))
        );
    }

    #[test]
    fn announce_then_withdraw_collapses_to_withdraw() {
        let evs = [
            RouteUpdate::Announce(p("10.0.0.0/8"), nh(1)),
            RouteUpdate::Withdraw(p("10.0.0.0/8")),
        ];
        let plan = BatchPlan::of(&evs);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.ops[0].op, RouteUpdate::Withdraw(p("10.0.0.0/8")));
        assert_eq!(plan.ops[0].absorbed, vec![0, 1]);
    }

    #[test]
    fn first_touch_order_is_preserved() {
        let evs = [
            RouteUpdate::Announce(p("10.0.0.0/8"), nh(1)),
            RouteUpdate::Announce(p("11.0.0.0/8"), nh(2)),
            RouteUpdate::Announce(p("10.0.0.0/8"), nh(3)),
        ];
        let plan = BatchPlan::of(&evs);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.ops[0].op.prefix(), p("10.0.0.0/8"));
        assert_eq!(plan.ops[1].op.prefix(), p("11.0.0.0/8"));
    }
}
