//! BGP update-trace generation (substituting for the RIPE RIS traces of
//! paper Section 6.6).
//!
//! A trace is a sequence of announce/withdraw events generated against a
//! live table model, with a per-collector mix of withdraws, route flaps,
//! next-hop changes, collapsed adds and brand-new prefixes. The mixes are
//! modelled on the paper's Figure 14 breakdown, where virtually all adds
//! collapse onto existing Index Table keys and genuinely new keys are a
//! ~0.1% sliver.

use chisel_prefix::bits::mask;
use chisel_prefix::{NextHop, Prefix, RoutingTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One BGP update event: the workspace's one update type.
pub use chisel_prefix::RouteUpdate as UpdateEvent;

/// The event mix of one synthetic collector trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceProfile {
    /// Collector name used in the paper (e.g. "rrc00 (Amsterdam)").
    pub name: &'static str,
    /// Seed for the trace generator.
    pub seed: u64,
    /// Weight of withdraw events.
    pub withdraws: f64,
    /// Weight of route-flap re-announces.
    pub flaps: f64,
    /// Weight of next-hop-only announces.
    pub next_hops: f64,
    /// Weight of announces that are more-specifics of live prefixes
    /// (almost always absorbed by prefix collapsing).
    pub add_specific: f64,
    /// Weight of announces of brand-new unrelated prefixes (the rare
    /// Index-Table-insert case).
    pub add_new: f64,
}

/// The five RIS collector profiles of Figure 14 / Table 1.
pub fn rrc_profiles() -> Vec<TraceProfile> {
    vec![
        TraceProfile {
            name: "rrc00 (Amsterdam)",
            seed: 0xcc00,
            withdraws: 0.28,
            flaps: 0.22,
            next_hops: 0.38,
            add_specific: 0.118,
            add_new: 0.002,
        },
        TraceProfile {
            name: "rrc01 (LINX London)",
            seed: 0xcc01,
            withdraws: 0.25,
            flaps: 0.27,
            next_hops: 0.36,
            add_specific: 0.118,
            add_new: 0.002,
        },
        TraceProfile {
            name: "rrc11 (New York)",
            seed: 0xcc11,
            withdraws: 0.30,
            flaps: 0.18,
            next_hops: 0.42,
            add_specific: 0.098,
            add_new: 0.002,
        },
        TraceProfile {
            name: "rrc08 (San Jose)",
            seed: 0xcc08,
            withdraws: 0.24,
            flaps: 0.30,
            next_hops: 0.34,
            add_specific: 0.118,
            add_new: 0.002,
        },
        TraceProfile {
            name: "rrc06 (Otemachi, Japan)",
            seed: 0xcc06,
            withdraws: 0.33,
            flaps: 0.20,
            next_hops: 0.36,
            add_specific: 0.108,
            add_new: 0.002,
        },
    ]
}

/// A deliberately unrealistic re-setup storm: almost every event is a
/// brand-new unrelated prefix, the rare Index-Table-insert case that
/// forces singleton encodes and partition re-setups. **Not** part of
/// [`rrc_profiles`] — real collector mixes keep `add_new` at a ~0.1%
/// sliver — this is the stress profile the batched update engine uses to
/// demonstrate re-setup sharing (`resetups_saved`).
pub fn resetup_storm_profile() -> TraceProfile {
    TraceProfile {
        name: "resetup-storm (synthetic)",
        seed: 0xc5_70_12,
        withdraws: 0.05,
        flaps: 0.05,
        next_hops: 0.04,
        add_specific: 0.01,
        add_new: 0.85,
    }
}

/// Generates `events` updates against (a model of) `table`.
///
/// The generator tracks the evolving live prefix set so withdraws target
/// live prefixes, flaps re-announce recently withdrawn ones, and
/// more-specific adds extend live prefixes by a few bits.
///
/// # Panics
///
/// Panics if `table` is empty (there is nothing to update).
pub fn generate_trace(
    table: &RoutingTable,
    events: usize,
    profile: &TraceProfile,
) -> Vec<UpdateEvent> {
    assert!(
        !table.is_empty(),
        "cannot generate updates for an empty table"
    );
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let width = table.family().width();
    let mut live: Vec<(Prefix, NextHop)> = table.iter().map(|e| (e.prefix, e.next_hop)).collect();
    let mut withdrawn: Vec<(Prefix, NextHop)> = Vec::new();
    let mut out = Vec::with_capacity(events);

    let total = profile.withdraws
        + profile.flaps
        + profile.next_hops
        + profile.add_specific
        + profile.add_new;
    while out.len() < events {
        let x: f64 = rng.gen_range(0.0..total);
        if x < profile.withdraws {
            if live.is_empty() {
                continue;
            }
            let i = rng.gen_range(0..live.len());
            let (p, nh) = live.swap_remove(i);
            withdrawn.push((p, nh));
            out.push(UpdateEvent::Withdraw(p));
        } else if x < profile.withdraws + profile.flaps {
            // Re-announce a recently withdrawn prefix (route flap).
            match withdrawn.pop() {
                Some((p, nh)) => {
                    live.push((p, nh));
                    out.push(UpdateEvent::Announce(p, nh));
                }
                None => continue,
            }
        } else if x < profile.withdraws + profile.flaps + profile.next_hops {
            if live.is_empty() {
                continue;
            }
            let i = rng.gen_range(0..live.len());
            let nh = NextHop::new(rng.gen_range(0..64));
            live[i].1 = nh;
            out.push(UpdateEvent::Announce(live[i].0, nh));
        } else if x < total - profile.add_new {
            // More-specific of a live prefix: extends by 1..=2 bits, which
            // usually stays inside the parent's collapse window (the
            // paper observes 99.9% of trace adds collapse onto existing
            // Index Table keys).
            if live.is_empty() {
                continue;
            }
            let parent = live[rng.gen_range(0..live.len())].0;
            let extra = rng.gen_range(1..=2u8);
            if parent.len() + extra > width {
                continue;
            }
            let p = parent.extend(rng.gen::<u128>() & mask(extra), extra);
            let nh = NextHop::new(rng.gen_range(0..64));
            if live.iter().any(|&(q, _)| q == p) {
                continue;
            }
            live.push((p, nh));
            out.push(UpdateEvent::Announce(p, nh));
        } else {
            // Brand-new unrelated prefix.
            let len = rng.gen_range(width / 4..=(3 * width / 4));
            let p = Prefix::new(table.family(), rng.gen::<u128>() & mask(len), len)
                .expect("masked bits fit");
            if live.iter().any(|&(q, _)| q == p) {
                continue;
            }
            let nh = NextHop::new(rng.gen_range(0..64));
            live.push((p, nh));
            out.push(UpdateEvent::Announce(p, nh));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, PrefixLenDistribution};

    fn base_table() -> RoutingTable {
        synthesize(5_000, &PrefixLenDistribution::bgp_ipv4(), 11)
    }

    #[test]
    fn generates_requested_count() {
        let t = base_table();
        let p = &rrc_profiles()[0];
        let trace = generate_trace(&t, 10_000, p);
        assert_eq!(trace.len(), 10_000);
    }

    #[test]
    fn event_mix_tracks_profile() {
        let t = base_table();
        let p = &rrc_profiles()[0];
        let trace = generate_trace(&t, 50_000, p);
        let withdraws = trace
            .iter()
            .filter(|e| matches!(e, UpdateEvent::Withdraw(_)))
            .count();
        let frac = withdraws as f64 / trace.len() as f64;
        assert!(
            (frac - p.withdraws).abs() < 0.05,
            "withdraw fraction {frac} vs profile {}",
            p.withdraws
        );
    }

    #[test]
    fn deterministic_given_profile() {
        let t = base_table();
        let p = &rrc_profiles()[2];
        assert_eq!(generate_trace(&t, 1_000, p), generate_trace(&t, 1_000, p));
    }

    #[test]
    fn profiles_are_distinct() {
        let ps = rrc_profiles();
        assert_eq!(ps.len(), 5);
        let names: std::collections::HashSet<_> = ps.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 5);
        for p in &ps {
            let total = p.withdraws + p.flaps + p.next_hops + p.add_specific + p.add_new;
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{} weights sum to {total}",
                p.name
            );
            assert!(p.add_new <= 0.01, "new-key adds must be a sliver");
        }
    }

    #[test]
    fn storm_profile_is_add_new_heavy_and_separate() {
        let storm = resetup_storm_profile();
        assert!(
            storm.add_new > 0.5,
            "the storm exists to force new-key inserts"
        );
        // The storm must never leak into the realistic collector set,
        // whose profiles all keep add_new at a sliver.
        assert!(rrc_profiles().iter().all(|p| p.name != storm.name));
        let t = base_table();
        let trace = generate_trace(&t, 5_000, &storm);
        let new_keys = trace
            .iter()
            .filter(|e| matches!(e, UpdateEvent::Announce(_, _)))
            .count();
        assert!(new_keys as f64 / trace.len() as f64 > 0.8);
    }

    #[test]
    fn withdraws_target_live_prefixes() {
        let t = base_table();
        let trace = generate_trace(&t, 20_000, &rrc_profiles()[1]);
        // Replaying the trace against a set model never withdraws an
        // absent prefix.
        let mut live: std::collections::HashSet<Prefix> = t.iter().map(|e| e.prefix).collect();
        for ev in &trace {
            match ev {
                UpdateEvent::Withdraw(p) => {
                    assert!(live.remove(p), "withdraw of absent prefix {p}");
                }
                UpdateEvent::Announce(p, _) => {
                    live.insert(*p);
                }
            }
        }
    }
}
