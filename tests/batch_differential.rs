//! Differential tests for the batched update engine: replaying a trace
//! through `ChiselLpm::apply_batch` in windows must be observationally
//! equivalent to applying it one event at a time — same answers as the
//! reference oracle, same recovered route set, same verifier pass — for
//! every window size, and a whole window must publish atomically (a
//! reader pinned mid-batch sees the pre- or post-window generation,
//! never a torn intermediate).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use chisel::core::{verify_image, BatchPlan, RouteUpdate, SharedChisel};
use chisel::prefix::bits::mask;
use chisel::workloads::{
    generate_trace, resetup_storm_profile, rrc_profiles, synthesize, PrefixLenDistribution,
    UpdateEvent,
};
use chisel::{AddressFamily, ChiselConfig, ChiselLpm, Key, NextHop, Prefix, RoutingTable};
use chisel_prefix::oracle::OracleLpm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WINDOWS: [usize; 4] = [1, 16, 64, 256];

/// Runs both verifier passes (engine-side and image-side) and fails the
/// test with the full violation report on any broken invariant.
#[track_caller]
fn assert_verified(e: &ChiselLpm) {
    let report = e.verify();
    assert!(report.is_ok(), "engine invariants violated:\n{report}");
    let image = verify_image(&e.export_image());
    assert!(image.is_ok(), "image invariants violated:\n{image}");
}

/// The engine's logical route set, as comparable (prefix, next-hop) data.
fn route_set(e: &ChiselLpm) -> BTreeMap<(u8, u128), u32> {
    e.iter_routes()
        .map(|r| ((r.prefix.len(), r.prefix.bits()), r.next_hop.id()))
        .collect()
}

/// Keys biased into covered space (half the time) so deep prefixes get
/// exercised, not just misses.
fn probe_keys(rng: &mut StdRng, table: &RoutingTable, n: usize) -> Vec<Key> {
    let prefixes: Vec<_> = table.iter().map(|e| e.prefix).collect();
    let width = table.family().width();
    (0..n)
        .map(|_| {
            if prefixes.is_empty() || rng.gen_bool(0.5) {
                Key::from_raw(table.family(), rng.gen::<u128>() & mask(width))
            } else {
                let p = prefixes[rng.gen_range(0..prefixes.len())];
                let host = rng.gen::<u128>() & mask(width - p.len());
                Key::from_raw(table.family(), p.network() | host)
            }
        })
        .collect()
}

/// Trace replay across all five collector profiles and every window
/// size: batched application must land on exactly the sequential state.
#[test]
fn batched_replay_matches_sequential_across_profiles_and_windows() {
    for profile in rrc_profiles() {
        let table = synthesize(
            2_000,
            &PrefixLenDistribution::bgp_ipv4(),
            0x0D1F ^ profile.seed,
        );
        let trace = generate_trace(&table, 2_000, &profile);
        let base = ChiselLpm::build(&table, ChiselConfig::ipv4()).unwrap();

        // The sequential reference and the independent oracle.
        let mut seq = base.clone();
        let mut oracle = OracleLpm::from_table(&table);
        for ev in &trace {
            match *ev {
                UpdateEvent::Announce(p, nh) => {
                    seq.announce(p, nh).expect("sequential announce");
                    oracle.insert(p, nh);
                }
                UpdateEvent::Withdraw(p) => {
                    seq.withdraw(p).expect("sequential withdraw");
                    oracle.remove(&p);
                }
            }
        }
        assert_verified(&seq);
        let want = route_set(&seq);

        let mut rng = StdRng::seed_from_u64(0x9999 ^ profile.seed);
        let probes = probe_keys(&mut rng, &table, 1_000);
        for window in WINDOWS {
            let mut e = base.clone();
            for chunk in trace.chunks(window) {
                let report = e.apply_batch(chunk).expect("apply_batch");
                assert!(
                    report.rejected_events.is_empty(),
                    "{} window {window}: rejected {:?}",
                    profile.name,
                    report.rejected_events
                );
            }
            assert_verified(&e);
            assert_eq!(
                route_set(&e),
                want,
                "{} window {window}: route set diverged from sequential",
                profile.name
            );
            for &key in &probes {
                assert_eq!(
                    e.lookup(key),
                    oracle.lookup(key),
                    "{} window {window} at {key}",
                    profile.name
                );
            }
        }
    }
}

/// The planner and the engine counters must both show coalescing doing
/// real work on the flap-heavy collector mixes (withdraw + re-announce
/// of the same prefix inside one window collapses to one residual op).
#[test]
fn coalescing_fires_on_rrc_flap_profiles() {
    for profile in rrc_profiles() {
        let table = synthesize(
            1_000,
            &PrefixLenDistribution::bgp_ipv4(),
            0x0C0A ^ profile.seed,
        );
        let trace = generate_trace(&table, 2_000, &profile);
        let windows: Vec<&[UpdateEvent]> = trace.chunks(64).collect();
        let planned: usize = windows.iter().map(|w| BatchPlan::of(w).coalesced()).sum();
        assert!(
            planned > 0,
            "{}: planner coalesced nothing over {} windows",
            profile.name,
            windows.len()
        );
        let mut e = ChiselLpm::build(&table, ChiselConfig::ipv4()).unwrap();
        for w in &windows {
            e.apply_batch(w).expect("apply_batch");
        }
        let b = e.batch_stats();
        assert_eq!(b.batches_published, windows.len() as u64);
        assert_eq!(b.events_ingested, trace.len() as u64);
        assert_eq!(
            b.events_coalesced, planned as u64,
            "{}: engine counter disagrees with the planner",
            profile.name
        );
    }
}

/// Re-setup sharing: an add-new-heavy trace against a two-partition,
/// high-slack config pools many new-key inserts of one window into
/// shared partition rebuilds, and the engine still answers like the
/// oracle replaying only the accepted events.
#[test]
fn resetup_storm_shares_rebuilds_at_window_64() {
    let table = synthesize(5_000, &PrefixLenDistribution::bgp_ipv4(), 0x5702);
    let trace = generate_trace(&table, 8_000, &resetup_storm_profile());
    let config = ChiselConfig::ipv4().partitions(2).slack(4.0);
    let mut e = ChiselLpm::build(&table, config).unwrap();
    let mut oracle = OracleLpm::from_table(&table);
    for window in trace.chunks(64) {
        let report = e.apply_batch(window).expect("apply_batch");
        for ev in report.accepted_events(window) {
            match *ev {
                UpdateEvent::Announce(p, nh) => oracle.insert(p, nh),
                UpdateEvent::Withdraw(p) => {
                    oracle.remove(&p);
                }
            }
        }
    }
    assert!(
        e.batch_stats().resetups_saved > 0,
        "storm shared no re-setups: {:?}",
        e.batch_stats()
    );
    assert_verified(&e);
    // Random probes over the base table, plus the network address of
    // every route the storm left behind (most of them new).
    let mut rng = StdRng::seed_from_u64(0x5703);
    let routes: Vec<Key> = e
        .iter_routes()
        .map(|r| Key::from_raw(AddressFamily::V4, r.prefix.network()))
        .collect();
    for key in probe_keys(&mut rng, &table, 2_000)
        .into_iter()
        .chain(routes)
    {
        assert_eq!(e.lookup(key), oracle.lookup(key), "at {key}");
    }
}

/// Snapshot atomicity: concurrent readers pinning snapshots mid-replay
/// must only ever observe generations the writer published — whole
/// window boundaries — with exactly the answers the writer saw there.
#[test]
fn pinned_readers_only_see_whole_windows() {
    let profile = rrc_profiles()[3]; // rrc08, the flap-heaviest mix
    let table = synthesize(1_500, &PrefixLenDistribution::bgp_ipv4(), 0x0A70);
    let trace = generate_trace(&table, 4_000, &profile);
    let shared = SharedChisel::build(&table, ChiselConfig::ipv4()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x0A71);
    let probes = probe_keys(&mut rng, &table, 48);

    let answers = |snap: &chisel::core::EngineSnapshot| -> Vec<Option<NextHop>> {
        probes.iter().map(|&k| snap.lookup(k)).collect()
    };
    let mut expected: BTreeMap<u64, Vec<Option<NextHop>>> = BTreeMap::new();
    let snap0 = shared.snapshot();
    expected.insert(snap0.generation(), answers(&snap0));
    drop(snap0);

    let stop = AtomicBool::new(false);
    let samples = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen: Vec<(u64, Vec<Option<NextHop>>)> = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        let snap = shared.snapshot();
                        seen.push((snap.generation(), answers(&snap)));
                    }
                    seen
                })
            })
            .collect();
        for chunk in trace.chunks(64) {
            shared.apply_batch(chunk).expect("apply_batch");
            let snap = shared.snapshot();
            expected.insert(snap.generation(), answers(&snap));
        }
        stop.store(true, Ordering::Release);
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread"))
            .collect::<Vec<_>>()
    });
    assert!(!samples.is_empty());
    for (generation, got) in samples {
        let want = expected
            .get(&generation)
            .unwrap_or_else(|| panic!("reader saw unpublished generation {generation}"));
        assert_eq!(
            &got, want,
            "torn window observed at generation {generation}"
        );
    }
}

fn arb_prefix_v4() -> impl Strategy<Value = Prefix> {
    (0u8..=32, any::<u32>()).prop_map(|(len, raw)| {
        Prefix::new(AddressFamily::V4, (raw as u128) & mask(len), len).expect("masked bits fit")
    })
}

fn arb_ops() -> impl Strategy<Value = Vec<RouteUpdate>> {
    proptest::collection::vec((any::<bool>(), arb_prefix_v4(), 0u32..16), 1..120).prop_map(|ops| {
        ops.into_iter()
            .map(|(announce, p, nh)| {
                if announce {
                    RouteUpdate::Announce(p, NextHop::new(nh))
                } else {
                    RouteUpdate::Withdraw(p)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random op soups (duplicate announces, withdraw-before-announce,
    /// same-prefix churn, default routes) at random window sizes: the
    /// batched engine must land on the sequential engine's exact state.
    #[test]
    fn batched_equals_sequential_on_random_ops(
        ops in arb_ops(),
        window in 1usize..=64,
        probes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let empty = RoutingTable::new_v4();
        let mut seq = ChiselLpm::build(&empty, ChiselConfig::ipv4()).expect("builds");
        for op in &ops {
            match *op {
                RouteUpdate::Announce(p, nh) => { seq.announce(p, nh).expect("announce"); }
                RouteUpdate::Withdraw(p) => { seq.withdraw(p).expect("withdraw"); }
            }
        }
        let mut bat = ChiselLpm::build(&empty, ChiselConfig::ipv4()).expect("builds");
        for chunk in ops.chunks(window) {
            let report = bat.apply_batch(chunk).expect("apply_batch");
            prop_assert!(report.rejected_events.is_empty());
            prop_assert_eq!(report.ingested, chunk.len());
        }
        prop_assert_eq!(route_set(&bat), route_set(&seq));
        for raw in probes {
            let key = Key::from_raw(AddressFamily::V4, raw as u128);
            prop_assert_eq!(bat.lookup(key), seq.lookup(key), "key {:?}", key);
        }
        let report = bat.verify();
        prop_assert!(report.is_ok(), "batched engine failed verify:\n{}", report);
    }
}
