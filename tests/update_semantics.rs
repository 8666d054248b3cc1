//! Scenario tests for the incremental update machinery of Section 4.4:
//! withdraw/announce semantics, dirty-bit route flaps, classification,
//! and the partition-bounded re-setup path. After every scenario the
//! invariant verifier re-walks the engine and its exported hardware
//! image — an update sequence must never leave the tables structurally
//! inconsistent, even when every lookup it was tested with still works.

use chisel::core::{verify_image, FlowCache, SharedChisel, UpdateKind};
use chisel::{AddressFamily, ChiselConfig, ChiselLpm, Key, NextHop, Prefix, RoutingTable};
use chisel_prefix::bits::mask;

/// Runs both verifier passes (engine-side and image-side) and fails the
/// test with the full violation report on any broken invariant.
#[track_caller]
fn assert_verified(e: &ChiselLpm) {
    let report = e.verify();
    assert!(report.is_ok(), "engine invariants violated:\n{report}");
    let image = verify_image(&e.export_image());
    assert!(image.is_ok(), "image invariants violated:\n{image}");
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn k(s: &str) -> Key {
    s.parse().unwrap()
}

fn nh(i: u32) -> NextHop {
    NextHop::new(i)
}

fn engine_with(routes: &[(&str, u32)]) -> ChiselLpm {
    let mut t = RoutingTable::new_v4();
    for &(s, h) in routes {
        t.insert(p(s), nh(h));
    }
    ChiselLpm::build(&t, ChiselConfig::ipv4()).unwrap()
}

#[test]
fn withdraw_falls_back_to_next_longest_cover() {
    // Paper Figure 7 semantics: removing a prefix re-points its leaves at
    // the next-longest prefix p''' in the same subtree.
    let mut e = engine_with(&[
        ("10.0.0.0/8", 1),
        ("10.1.0.0/16", 2),
        ("10.1.128.0/17", 3),
        ("10.1.128.0/18", 4),
    ]);
    assert_eq!(e.lookup(k("10.1.128.1")), Some(nh(4)));
    e.withdraw(p("10.1.128.0/18")).unwrap();
    assert_eq!(e.lookup(k("10.1.128.1")), Some(nh(3)));
    e.withdraw(p("10.1.128.0/17")).unwrap();
    assert_eq!(e.lookup(k("10.1.128.1")), Some(nh(2)));
    e.withdraw(p("10.1.0.0/16")).unwrap();
    assert_eq!(e.lookup(k("10.1.128.1")), Some(nh(1)));
    assert_verified(&e);
}

#[test]
fn announce_respects_longer_existing_prefixes() {
    // Section 4.4.2: announcing a shorter prefix must NOT override leaves
    // covered by a longer one.
    let mut e = engine_with(&[("10.1.2.0/26", 9)]);
    e.announce(p("10.1.2.0/24"), nh(1)).unwrap();
    assert_eq!(
        e.lookup(k("10.1.2.10")),
        Some(nh(9)),
        "/26 must keep precedence"
    );
    assert_eq!(
        e.lookup(k("10.1.2.200")),
        Some(nh(1)),
        "/24 covers the rest"
    );
}

#[test]
fn announce_existing_changes_next_hop_only() {
    let mut e = engine_with(&[("10.0.0.0/8", 1)]);
    let kind = e.announce(p("10.0.0.0/8"), nh(2)).unwrap();
    assert_eq!(kind, UpdateKind::NextHopChange);
    assert_eq!(e.lookup(k("10.5.5.5")), Some(nh(2)));
    assert_eq!(e.len(), 1);
}

#[test]
fn flap_classification_both_mechanisms() {
    // (a) dirty-bit restore: sole member of a group withdrawn, re-announced.
    let mut e = engine_with(&[("10.1.2.0/24", 1), ("99.0.0.0/8", 2)]);
    e.withdraw(p("10.1.2.0/24")).unwrap();
    assert_eq!(
        e.announce(p("10.1.2.0/24"), nh(3)).unwrap(),
        UpdateKind::RouteFlap
    );

    // (b) bit-vector restore: one of two group members flaps.
    let mut e = engine_with(&[("10.1.2.0/24", 1), ("10.1.2.0/25", 2)]);
    e.withdraw(p("10.1.2.0/25")).unwrap();
    assert_eq!(
        e.announce(p("10.1.2.0/25"), nh(3)).unwrap(),
        UpdateKind::RouteFlap
    );
    assert_eq!(e.lookup(k("10.1.2.5")), Some(nh(3)));
    assert_verified(&e);
}

#[test]
fn withdraw_then_different_prefix_is_not_flap() {
    let mut e = engine_with(&[("10.1.2.0/24", 1)]);
    e.withdraw(p("10.1.2.0/24")).unwrap();
    // A *different* prefix in the same group is an add, not a flap...
    // except the group itself is dirty, which the paper also restores via
    // the dirty mechanism — but the prefix set must be exactly the new one.
    e.announce(p("10.1.2.128/25"), nh(7)).unwrap();
    assert_eq!(e.lookup(k("10.1.2.200")), Some(nh(7)));
    assert_eq!(
        e.lookup(k("10.1.2.1")),
        None,
        "withdrawn /24 must not resurface"
    );
    assert_verified(&e);
}

#[test]
fn double_withdraw_is_idempotent() {
    let mut e = engine_with(&[("10.1.0.0/16", 1)]);
    e.withdraw(p("10.1.0.0/16")).unwrap();
    let len_after_first = e.len();
    e.withdraw(p("10.1.0.0/16")).unwrap();
    assert_eq!(e.len(), len_after_first);
    assert_eq!(e.lookup(k("10.1.0.1")), None);
}

#[test]
fn update_stats_accumulate_and_reset() {
    let mut e = engine_with(&[("10.0.0.0/8", 1)]);
    e.announce(p("10.0.0.0/8"), nh(2)).unwrap();
    e.withdraw(p("10.0.0.0/8")).unwrap();
    let s = e.update_stats();
    assert_eq!(s.next_hop_changes, 1);
    assert_eq!(s.withdraws, 1);
    assert_eq!(s.total(), 2);
    e.reset_update_stats();
    assert_eq!(e.update_stats().total(), 0);
}

#[test]
fn singleton_inserts_into_fresh_regions() {
    // Announces of unrelated prefixes (new collapsed keys) should nearly
    // always be singleton inserts at low load.
    let mut e = engine_with(&[("10.0.0.0/8", 1)]);
    let mut singletons = 0;
    for i in 0..64u128 {
        // Distinct top-8-bits so each /12 lands in its own collapsed /8
        // group (length 12 sits in the 8..=12 cell).
        let prefix = Prefix::new(AddressFamily::V4, ((0x40 + i) << 4) & mask(12), 12).unwrap();
        match e.announce(prefix, nh(i as u32)).unwrap() {
            UpdateKind::AddSingleton => singletons += 1,
            UpdateKind::Resetup | UpdateKind::AddCollapsed => {}
            other => panic!("unexpected kind {other}"),
        }
    }
    // At this toy scale each of the 16 logical partitions has only ~12
    // Index Table locations, so late inserts occasionally miss a
    // singleton and re-setup (real deployments have thousands of
    // locations per partition — see the fig14 experiment).
    assert!(singletons >= 40, "only {singletons}/64 singleton inserts");
    // Either way, every announced prefix must resolve.
    for i in 0..64u128 {
        let key = Key::from_raw(AddressFamily::V4, ((0x40 + i) << 4) << 20);
        assert_eq!(e.lookup(key), Some(nh(i as u32)), "prefix {i}");
    }
    assert_verified(&e);
}

#[test]
fn resetup_purges_dirty_entries() {
    // Force enough new keys through a tiny, heavily-loaded cell to trigger
    // re-setups; dirty entries must be purged and never resurface.
    let config = ChiselConfig::ipv4()
        .slack(1.0)
        .partitions(2)
        .spill_capacity(1024);
    let mut t = RoutingTable::new_v4();
    for i in 0..256u128 {
        t.insert(Prefix::new(AddressFamily::V4, i, 20).unwrap(), nh(i as u32));
    }
    let mut e = ChiselLpm::build(&t, config).unwrap();
    // Withdraw half (making dirty groups), then announce a flood of new
    // keys to force inserts and eventually re-setups.
    for i in 0..128u128 {
        e.withdraw(Prefix::new(AddressFamily::V4, i, 20).unwrap())
            .unwrap();
    }
    for i in 0..2_000u128 {
        let prefix = Prefix::new(AddressFamily::V4, 0x400 + i, 20).unwrap();
        e.announce(prefix, nh(5000 + i as u32)).unwrap();
    }
    // Withdrawn prefixes stay gone.
    for i in 0..128u128 {
        let key = Key::from_raw(AddressFamily::V4, i << 12);
        assert_eq!(e.lookup(key), None, "dirty prefix {i} resurfaced");
    }
    // Survivors and new keys resolve.
    for i in 128..256u128 {
        let key = Key::from_raw(AddressFamily::V4, i << 12);
        assert_eq!(e.lookup(key), Some(nh(i as u32)));
    }
    for i in (0..2_000u128).step_by(37) {
        let key = Key::from_raw(AddressFamily::V4, (0x400 + i) << 12);
        assert_eq!(e.lookup(key), Some(nh(5000 + i as u32)));
    }
    assert_verified(&e);
}

#[test]
fn default_route_flap() {
    let mut e = engine_with(&[("0.0.0.0/0", 7)]);
    e.withdraw(p("0.0.0.0/0")).unwrap();
    assert_eq!(e.lookup(k("1.2.3.4")), None);
    assert_eq!(
        e.announce(p("0.0.0.0/0"), nh(8)).unwrap(),
        UpdateKind::RouteFlap
    );
    assert_eq!(e.lookup(k("1.2.3.4")), Some(nh(8)));
}

#[test]
fn unsupported_family_and_lengths_error_cleanly() {
    let mut e = engine_with(&[("10.0.0.0/8", 1)]);
    assert!(e.announce(p("2001:db8::/32"), nh(1)).is_err());
    assert!(e.withdraw(p("2001:db8::/32")).is_err());
}

#[test]
fn announce_at_never_populated_length_works() {
    // The covering plan must accept lengths absent from the build table.
    let mut e = engine_with(&[("10.0.0.0/8", 1)]);
    for len in 1..=32u8 {
        let prefix = Prefix::new(AddressFamily::V4, mask(len) & 0x5A5A_5A5A, len).unwrap();
        e.announce(prefix, nh(100 + len as u32)).unwrap();
    }
    // The /32 announce wins on its exact key.
    let key = Key::from_raw(AddressFamily::V4, 0x5A5A_5A5A);
    assert_eq!(e.lookup(key), Some(nh(132)));
    assert_verified(&e);
}

#[test]
fn verifier_stays_clean_under_random_churn() {
    // Drive every update path (announce/withdraw/flap/re-setup) from a
    // seeded random walk and re-verify periodically: structural
    // invariants must hold at every sampled point, not just at the end.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut t = RoutingTable::new_v4();
    while t.len() < 600 {
        let len = rng.gen_range(1..=32u8);
        let bits = rng.gen::<u128>() & mask(len);
        t.insert(
            Prefix::new(AddressFamily::V4, bits, len).unwrap(),
            nh(rng.gen_range(0..64)),
        );
    }
    let mut e = ChiselLpm::build(&t, ChiselConfig::ipv4()).unwrap();
    assert_verified(&e);
    for step in 0..1_500u32 {
        let len = rng.gen_range(1..=32u8);
        // A narrow bit pool makes withdraws hit live prefixes often.
        let bits = (rng.gen::<u128>() & mask(len)) & 0x3F3F_3F3F;
        let prefix = Prefix::new(AddressFamily::V4, bits, len).unwrap();
        if rng.gen_bool(0.45) {
            e.withdraw(prefix).unwrap();
        } else {
            e.announce(prefix, nh(step)).unwrap();
        }
        if step % 250 == 249 {
            assert_verified(&e);
        }
    }
    assert_verified(&e);
}

#[test]
fn flow_cache_coherent_across_1024_interleaved_schedules() {
    // The flow cache's only correctness claim: cached == uncached on
    // every key at every point of every update schedule. Each schedule
    // interleaves announces, withdraws and deliberate flaps
    // (withdraw-then-reannounce of a live prefix) with probe rounds; the
    // cache and a CachedReader both persist across the whole schedule, so
    // any missed invalidation — a stale positive after a withdraw, a
    // stale negative after an announce, a stale next hop after a flap —
    // shows up as a divergence. Probes repeat within a round to drive the
    // hit path, not just the fill path.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut total_hits = 0u64;
    for schedule in 0..1024u64 {
        let mut rng = StdRng::seed_from_u64(0xCAC4E ^ schedule);
        let mut t = RoutingTable::new_v4();
        for _ in 0..rng.gen_range(0..12) {
            let len = rng.gen_range(1..=32u8);
            let bits = (rng.gen::<u128>() & mask(len)) & 0x1F1F_1F1F;
            t.insert(
                Prefix::new(AddressFamily::V4, bits, len).unwrap(),
                nh(rng.gen_range(0..16)),
            );
        }
        let mut engine = ChiselLpm::build(&t, ChiselConfig::ipv4()).unwrap();
        let shared = SharedChisel::from_engine(engine.clone());
        // Tiny cache: index collisions and evictions every few probes.
        let mut cache = FlowCache::new(16);
        let mut reader = shared.reader_with_capacity(16);
        let mut live: Vec<Prefix> = t.iter().map(|e| e.prefix).collect();

        for step in 0..rng.gen_range(8..24usize) {
            // One update against both the bare engine and the shared
            // handle, keeping the two lineages identical.
            let flap = !live.is_empty() && rng.gen_bool(0.25);
            if flap {
                let p = live[rng.gen_range(0..live.len())];
                let hop = nh(rng.gen_range(16..32));
                engine.withdraw(p).unwrap();
                shared.withdraw(p).unwrap();
                engine.announce(p, hop).unwrap();
                shared.announce(p, hop).unwrap();
            } else {
                let len = rng.gen_range(1..=32u8);
                let bits = (rng.gen::<u128>() & mask(len)) & 0x1F1F_1F1F;
                let p = Prefix::new(AddressFamily::V4, bits, len).unwrap();
                if rng.gen_bool(0.4) {
                    engine.withdraw(p).unwrap();
                    shared.withdraw(p).unwrap();
                    live.retain(|&q| q != p);
                } else {
                    let hop = nh(step as u32);
                    engine.announce(p, hop).unwrap();
                    shared.announce(p, hop).unwrap();
                    if !live.contains(&p) {
                        live.push(p);
                    }
                }
            }
            // Probe round: a handful of keys, each twice (fill, then hit).
            for _ in 0..4 {
                let key = Key::from_raw(AddressFamily::V4, rng.gen::<u32>() as u128 & 0x1F1F_1FFF);
                let want = engine.lookup(key);
                for pass in 0..2 {
                    assert_eq!(
                        cache.lookup(&engine, key),
                        want,
                        "schedule {schedule} step {step} pass {pass}: cache diverged at {key}"
                    );
                    assert_eq!(
                        reader.lookup(key),
                        want,
                        "schedule {schedule} step {step} pass {pass}: reader diverged at {key}"
                    );
                }
            }
        }
        total_hits += cache.hits() + reader.cache().hits();
    }
    // The schedules must actually have exercised the hit path.
    assert!(
        total_hits > 10_000,
        "only {total_hits} cache hits across all schedules"
    );
}

/// FNV-1a 64 over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The hardware image one-at-a-time updates leave behind, pinned to a
/// constant: a change to the update path that moves a single word of any
/// table (a different slot claim, Result Table block, re-setup salt or
/// spill order) fails here even when every lookup still answers right.
/// Re-record the constant only for a deliberate image-format change.
#[test]
fn one_at_a_time_updates_reproduce_the_golden_image() {
    use chisel::core::RouteUpdate;
    use chisel::workloads::{
        generate_trace, resetup_storm_profile, synthesize, PrefixLenDistribution,
    };

    const GOLDEN: u64 = 0xbb76_dfa6_8da1_a580;
    let table = synthesize(20_000, &PrefixLenDistribution::bgp_ipv4(), 0x601D);
    let mut profile = resetup_storm_profile();
    profile.seed = 0x601D;
    let trace = generate_trace(&table, 4_000, &profile);
    let base = ChiselLpm::build(&table, ChiselConfig::ipv4()).unwrap();

    let mut scalar = base.clone();
    for ev in &trace {
        match *ev {
            RouteUpdate::Announce(p, hop) => scalar.announce(p, hop).unwrap(),
            RouteUpdate::Withdraw(p) => scalar.withdraw(p).unwrap(),
        };
    }
    assert!(
        scalar.update_stats().resetups > 0,
        "the trace must exercise a re-setup"
    );
    let golden = fnv1a64(&scalar.export_image().to_bytes());
    assert_eq!(golden, GOLDEN, "image hash {golden:#018x}");

    let mut windowed = base;
    for ev in &trace {
        windowed.apply_batch(std::slice::from_ref(ev)).unwrap();
    }
    assert_eq!(fnv1a64(&windowed.export_image().to_bytes()), golden);
}

#[test]
fn verifier_flags_corrupted_images() {
    // The negative direction: seed single-word corruptions into an
    // exported hardware image and check each one is caught. A verifier
    // that can't see planted collisions proves nothing about real ones.
    let e = engine_with(&[
        ("10.0.0.0/8", 1),
        ("10.1.0.0/16", 2),
        ("172.16.0.0/12", 3),
        ("192.168.0.0/16", 4),
        ("192.168.128.0/17", 5),
    ]);
    assert_verified(&e);
    let clean = e.export_image();

    // Corruption 1: duplicate a live key into another live row — the
    // Bloomier collision the whole design exists to rule out (§4.1).
    let mut img = clean.clone();
    let (cell, live): (usize, Vec<usize>) = img
        .cells
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            (
                ci,
                (0..c.filter.len())
                    .filter(|&s| c.filter[s].valid)
                    .collect::<Vec<_>>(),
            )
        })
        .find(|(_, live)| live.len() >= 2)
        .expect("some cell holds two live rows");
    img.cells[cell].filter[live[1]].key = img.cells[cell].filter[live[0]].key;
    let report = verify_image(&img);
    assert!(
        report.violations.iter().any(|v| v.check == "duplicate-key"),
        "planted key collision not flagged:\n{report}"
    );

    // Corruption 2: point a live row's result block past the table.
    let mut img = clean.clone();
    let end = img.cells[cell].result.len() as u32;
    img.cells[cell].bitvec[live[0]].pointer = Some(end);
    let report = verify_image(&img);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == "result-out-of-bounds"),
        "planted wild pointer not flagged:\n{report}"
    );

    // Corruption 3: leave leaf bits set on a freed row.
    let mut img = clean.clone();
    let free = (0..img.cells[cell].filter.len())
        .find(|&s| !img.cells[cell].filter[s].valid)
        .expect("provisioned capacity leaves free rows");
    img.cells[cell].bitvec[free].vector.set(0, true);
    let report = verify_image(&img);
    assert!(
        report.violations.iter().any(|v| v.check == "stale-vector"),
        "planted stale vector not flagged:\n{report}"
    );

    // Corruption 4: break a spilled or indexed binding by invalidating
    // the row its key decodes to while keeping the key "live" elsewhere:
    // swap two live rows' keys without re-encoding the Index Table.
    let mut img = clean;
    let (a, b) = (live[0], live[1]);
    let ka = img.cells[cell].filter[a].key;
    img.cells[cell].filter[a].key = img.cells[cell].filter[b].key;
    img.cells[cell].filter[b].key = ka;
    let report = verify_image(&img);
    assert!(
        report.violations.iter().any(|v| v.check == "index-replay"),
        "planted mis-binding not flagged:\n{report}"
    );
}
