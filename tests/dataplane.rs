//! Shard-equivalence test layer for the `chisel-dataplane` daemon.
//!
//! The central property is *shard equivalence*: a sharded daemon is just
//! N views of one engine, so every answer any shard gives must equal the
//! single-engine reference answer **at the snapshot generation the batch
//! was answered at** — for every seed, every shard count, and under an
//! adversarial update storm. The daemon records `(generation, keys,
//! answers)` per batch; the tests replay the control plane's accepted
//! updates through `OracleLpm` (and, at quiescence, `ChiselLpm` itself)
//! to reconstruct the exact per-generation ground truth, the same
//! discipline as the snapshot-linearizability suite in
//! `tests/concurrent.rs`: a batch whose answers match no single
//! generation means a torn snapshot, and fails loudly.

use std::collections::HashMap;

use chisel::core::SharedChisel;
use chisel::dataplane::{Dataplane, DataplaneConfig, DataplaneStats, RunOptions};
use chisel::prefix::oracle::OracleLpm;
use chisel::workloads::{
    adversarial_trace, flow_pool, synthesize, uniform_stream, PrefixLenDistribution, UpdateEvent,
};
use chisel::{AddressFamily, ChiselConfig, Key, NextHop, Prefix, RoutingTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Base table for the valid-trace runs: a stable /8, a /16 fan, and a
/// /16 parent over every flap /24 so withdraws fall back to a cover.
fn base_table() -> RoutingTable {
    let mut t = RoutingTable::new_v4();
    t.insert(
        Prefix::new(AddressFamily::V4, 0x0A, 8).unwrap(),
        NextHop::new(1),
    );
    for i in 0..64u128 {
        t.insert(
            Prefix::new(AddressFamily::V4, 0x0A00 | i, 16).unwrap(),
            NextHop::new(10 + i as u32),
        );
    }
    for i in 0..32u128 {
        t.insert(
            Prefix::new(AddressFamily::V4, 0xF000 | i, 16).unwrap(),
            NextHop::new(500 + i as u32),
        );
    }
    t
}

/// A deterministic announce/withdraw flap over /24s under the flap /16s
/// (always accepted: every prefix has a covering parent).
fn flap_trace(n: usize, seed: u64) -> Vec<UpdateEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|ev| {
            let p = Prefix::new(
                AddressFamily::V4,
                0xF0_0000 | u128::from(rng.gen_range(0..32u32)),
                24,
            )
            .unwrap();
            if rng.gen_bool(0.7) {
                UpdateEvent::Announce(p, NextHop::new(1000 + ev as u32))
            } else {
                UpdateEvent::Withdraw(p)
            }
        })
        .collect()
}

/// Probe flows that cross the flapping /24s and the stable fan.
fn probe_stream(seed: u64, n: usize) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..32u128)
        .map(|i| Key::from_raw(AddressFamily::V4, (0xF0_0000 | i) << 8 | 0x2A))
        .collect();
    keys.extend(
        (0..32u128).map(|i| Key::from_raw(AddressFamily::V4, ((0x0A00 | i) << 16) | 0x0101)),
    );
    uniform_stream(&keys, n, seed)
}

/// Per-generation ground truth: `answers[&key][g]` is the oracle's
/// answer for `key` after the first `g` accepted updates.
fn oracle_by_generation(
    table: &RoutingTable,
    accepted: &[UpdateEvent],
    keys: &[Key],
) -> HashMap<u128, Vec<Option<NextHop>>> {
    let mut distinct: Vec<Key> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &k in keys {
        if seen.insert(k.value()) {
            distinct.push(k);
        }
    }
    let mut oracle = OracleLpm::from_table(table);
    let mut answers: HashMap<u128, Vec<Option<NextHop>>> = distinct
        .iter()
        .map(|k| (k.value(), vec![oracle.lookup(*k)]))
        .collect();
    for ev in accepted {
        match ev {
            UpdateEvent::Announce(p, nh) => oracle.insert(*p, *nh),
            UpdateEvent::Withdraw(p) => {
                oracle.remove(p);
            }
        }
        for k in &distinct {
            answers.get_mut(&k.value()).unwrap().push(oracle.lookup(*k));
        }
    }
    answers
}

/// Checks every recorded batch of every shard against the oracle at the
/// batch's own generation; returns how many (batch, key) pairs were
/// checked. Any divergence is a torn / non-linearizable snapshot.
fn assert_shard_equivalence(
    report: &chisel::dataplane::DataplaneReport,
    answers: &HashMap<u128, Vec<Option<NextHop>>>,
    label: &str,
) -> usize {
    let mut checked = 0usize;
    for (shard, records) in report.records.iter().enumerate() {
        for rec in records {
            let g = rec.generation as usize;
            for (key, got) in rec.keys.iter().zip(&rec.answers) {
                let per_gen = answers
                    .get(&key.value())
                    .unwrap_or_else(|| panic!("{label}: unknown probe key {key}"));
                assert!(
                    g < per_gen.len(),
                    "{label}: shard {shard} answered at unpublished generation {g}"
                );
                assert_eq!(
                    *got, per_gen[g],
                    "{label}: shard {shard} diverged from oracle for {key} at generation {g}"
                );
                checked += 1;
            }
        }
    }
    checked
}

/// Shard-equivalence differential test: seeds × shard counts {1,2,4,8},
/// valid flap trace, every recorded batch equals the oracle at its own
/// snapshot generation — and the quiesced daemon equals `ChiselLpm`.
#[test]
fn shards_are_equivalent_to_single_engine_at_every_generation() {
    let table = base_table();
    for seed in [0xC0FFEE_u64, 0xBEEF] {
        let trace = flap_trace(120, seed);
        let stream = probe_stream(seed ^ 0x5EED, 6_000);
        for shards in SHARD_COUNTS {
            let label = format!("seed {seed:#x}, {shards} shard(s)");
            let shared = SharedChisel::build(&table, ChiselConfig::ipv4().seed(7).slack(3.0))
                .expect("engine builds");
            let dataplane = Dataplane::new(
                shared.clone(),
                DataplaneConfig {
                    shards,
                    batch: 32,
                    ..DataplaneConfig::default()
                },
            );
            let report = dataplane.run(
                &stream,
                &RunOptions {
                    updates: trace.clone(),
                    record: true,
                    ..RunOptions::default()
                },
            );
            assert!(report.control.failed.is_none(), "{label}: control failed");
            assert_eq!(report.control.rejected, 0, "{label}");
            let answers = oracle_by_generation(&table, &report.control.accepted, &stream);
            let checked = assert_shard_equivalence(&report, &answers, &label);
            assert_eq!(checked, stream.len(), "{label}: not every key was checked");

            // Quiescence: a fresh single-pass run after the control plane
            // is done must agree with the engine itself on every probe.
            let settle = dataplane.run(&stream, &RunOptions::default());
            assert_eq!(
                settle.aggregate.min_generation, settle.aggregate.max_generation,
                "{label}: quiesced run saw multiple generations"
            );
            let final_answers: Vec<Option<NextHop>> =
                shared.with_engine(|e| stream.iter().map(|&k| e.lookup(k)).collect());
            let matched_expect = final_answers.iter().filter(|a| a.is_some()).count() as u64;
            assert_eq!(settle.aggregate.matched, matched_expect, "{label}");
            assert!(settle.aggregate.is_balanced(), "{label}");
        }
    }
}

/// Update-storm torture: the control plane replays an adversarial trace
/// (duplicate announces, withdraw-before-announce, flap bursts, host
/// routes) at full rate while every shard serves lookups. No shard may
/// observe a torn snapshot, and the post-drain stats must balance per
/// shard and in the roll-up.
#[test]
fn update_storm_never_tears_a_snapshot_and_stats_balance() {
    let table = synthesize(600, &PrefixLenDistribution::bgp_ipv4(), 0xB14C);
    let storm = adversarial_trace(&table, 900, 0x00AD_5EED);
    let pool = flow_pool(&table, 48, 0xF10A);
    let stream = uniform_stream(&pool, 8_000, 0x21FF);
    for shards in SHARD_COUNTS {
        let label = format!("storm, {shards} shard(s)");
        let shared = SharedChisel::build(&table, ChiselConfig::ipv4()).expect("engine builds");
        let dataplane = Dataplane::new(
            shared.clone(),
            DataplaneConfig {
                shards,
                batch: 32,
                ..DataplaneConfig::default()
            },
        );
        let report = dataplane.run(
            &stream,
            &RunOptions {
                updates: storm.clone(),
                tolerate_rejections: true,
                record: true,
                traced: true,
                ..RunOptions::default()
            },
        );
        assert!(report.control.failed.is_none(), "{label}");
        assert_eq!(
            report.control.final_generation, report.control.applied as u64,
            "{label}: generations must count accepted updates exactly"
        );

        // Linearizability under the storm: every batch matches the
        // oracle state after exactly `generation` accepted updates.
        let answers = oracle_by_generation(&table, &report.control.accepted, &stream);
        let checked = assert_shard_equivalence(&report, &answers, &label);
        assert_eq!(checked, stream.len(), "{label}");

        // Post-drain balance: per shard and in the roll-up, hits +
        // misses == lookups issued, and the traced counters agree.
        for s in &report.per_shard {
            assert!(
                s.is_balanced(),
                "{label}: shard {} unbalanced: {s:?}",
                s.shard
            );
            assert_eq!(
                s.trace.cache_hits as u64 + s.trace.cache_misses as u64,
                s.lookups,
                "{label}: shard {} trace lost lookups",
                s.shard
            );
        }
        let agg = &report.aggregate;
        assert!(agg.is_balanced(), "{label}: roll-up unbalanced: {agg:?}");
        assert_eq!(agg.lookups, stream.len() as u64, "{label}");
        assert_eq!(
            agg.cache_hits,
            report.per_shard.iter().map(|s| s.cache_hits).sum::<u64>(),
            "{label}: cache hits lost in shutdown"
        );
        assert_eq!(
            agg.trace.degraded_hits,
            report
                .per_shard
                .iter()
                .map(|s| s.trace.degraded_hits)
                .sum::<usize>(),
            "{label}: degraded hits lost in shutdown"
        );

        // The roll-up is order-independent (the daemon already asserts
        // the algebra in unit tests; re-check on real counters).
        let mut reversed: Vec<_> = report.per_shard.clone();
        reversed.reverse();
        assert_eq!(
            *agg,
            DataplaneStats::roll_up(reversed.iter()),
            "{label}: roll-up depends on shard order"
        );
    }
}

/// The dispatcher must be flow-stable end to end: with recording on,
/// every occurrence of one key lands on the same shard.
#[test]
fn flows_stick_to_their_shard() {
    let table = base_table();
    let stream = probe_stream(0xD15B, 4_000);
    let shared = SharedChisel::build(&table, ChiselConfig::ipv4()).expect("engine builds");
    let dataplane = Dataplane::new(
        shared,
        DataplaneConfig {
            shards: 4,
            batch: 16,
            ..DataplaneConfig::default()
        },
    );
    let report = dataplane.run(
        &stream,
        &RunOptions {
            record: true,
            ..RunOptions::default()
        },
    );
    let mut owner: HashMap<u128, usize> = HashMap::new();
    for (shard, records) in report.records.iter().enumerate() {
        for rec in records {
            for key in &rec.keys {
                let prev = owner.insert(key.value(), shard);
                assert!(
                    prev.is_none() || prev == Some(shard),
                    "flow {key} moved from shard {prev:?} to {shard}"
                );
            }
        }
    }
    // All four shards actually served traffic.
    assert!(
        report.per_shard.iter().all(|s| s.lookups > 0),
        "some shard got no traffic: {:?}",
        report.per_shard
    );
}

/// Tracing rides the production path: with no updates, a traced and an
/// untraced run over one stream give every shard the same batches, so
/// they must report the same answers and the same flow-cache hits and
/// misses. Only the traced run carries table reads.
#[test]
fn traced_run_answers_and_caches_like_untraced() {
    let table = synthesize(2_000, &PrefixLenDistribution::bgp_ipv4(), 0x7AC3);
    let pool = flow_pool(&table, 1 << 12, 0x7AC4);
    let stream = uniform_stream(&pool, 6_000, 0x7AC5);
    let shared = SharedChisel::build(&table, ChiselConfig::ipv4()).expect("engine builds");
    let dataplane = Dataplane::new(
        shared,
        DataplaneConfig {
            shards: 2,
            // A small cache keeps both hits and same-slot evictions in play.
            cache_slots: 256,
            ..DataplaneConfig::default()
        },
    );
    let run = |traced: bool| {
        dataplane.run(
            &stream,
            &RunOptions {
                record: true,
                traced,
                ..RunOptions::default()
            },
        )
    };
    let (plain, traced) = (run(false), run(true));
    for (p, t) in plain.per_shard.iter().zip(&traced.per_shard) {
        assert_eq!(
            (p.lookups, p.cache_hits, p.cache_misses),
            (t.lookups, t.cache_hits, t.cache_misses),
            "shard {}",
            p.shard
        );
        assert_eq!(p.trace, Default::default(), "untraced shard {}", p.shard);
        let traced_counts = (t.trace.cache_hits as u64, t.trace.cache_misses as u64);
        assert_eq!(
            traced_counts,
            (t.cache_hits, t.cache_misses),
            "shard {}",
            t.shard
        );
        assert!(t.cache_hits > 0 && t.trace.index_reads > 0, "{t:?}");
    }
    for (p, t) in plain.records.iter().zip(&traced.records) {
        assert_eq!(p.len(), t.len());
        for (pb, tb) in p.iter().zip(t) {
            assert_eq!(pb.keys, tb.keys);
            assert_eq!(pb.answers, tb.answers);
        }
    }
}
