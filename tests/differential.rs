//! Cross-crate differential tests: every LPM engine in the workspace must
//! agree with the reference oracle on random tables, random keys, both
//! address families, and across configuration corners.

use chisel::baselines::{BinaryTrie, ChainedHashLpm, EbfCpeLpm, TreeBitmap};
use chisel::workloads::{synthesize, PrefixLenDistribution};
use chisel::{AddressFamily, ChiselConfig, ChiselLpm, Key};
use chisel_prefix::oracle::OracleLpm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_key(rng: &mut StdRng, family: AddressFamily) -> Key {
    Key::from_raw(
        family,
        rng.gen::<u128>() & chisel_prefix::bits::mask(family.width()),
    )
}

/// Keys biased into covered space (half the time) so deep prefixes get
/// exercised, not just misses.
fn probe_keys(rng: &mut StdRng, table: &chisel::RoutingTable, n: usize) -> Vec<Key> {
    let prefixes: Vec<_> = table.iter().map(|e| e.prefix).collect();
    let family = table.family();
    let width = family.width();
    (0..n)
        .map(|_| {
            if prefixes.is_empty() || rng.gen_bool(0.5) {
                random_key(rng, family)
            } else {
                let p = prefixes[rng.gen_range(0..prefixes.len())];
                let host = rng.gen::<u128>() & chisel_prefix::bits::mask(width - p.len());
                Key::from_raw(family, p.network() | host)
            }
        })
        .collect()
}

#[test]
fn all_engines_agree_ipv4() {
    let table = synthesize(8_000, &PrefixLenDistribution::bgp_ipv4(), 42);
    let oracle = OracleLpm::from_table(&table);
    let chisel = ChiselLpm::build(&table, ChiselConfig::ipv4()).unwrap();
    let treebitmap = TreeBitmap::from_table(&table, 4);
    let trie = BinaryTrie::from_table(&table);
    let chained = ChainedHashLpm::from_table(&table, 2.0, 9);
    let ebf = EbfCpeLpm::build(&table, 7, 12.0, 3, 9).unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    for key in probe_keys(&mut rng, &table, 20_000) {
        let expect = oracle.lookup(key);
        assert_eq!(chisel.lookup(key), expect, "chisel at {key}");
        assert_eq!(treebitmap.lookup(key), expect, "treebitmap at {key}");
        assert_eq!(trie.lookup(key), expect, "trie at {key}");
        assert_eq!(chained.lookup(key), expect, "chained at {key}");
        assert_eq!(ebf.lookup(key), expect, "ebf+cpe at {key}");
    }
}

#[test]
fn all_engines_agree_ipv6() {
    let v4 = synthesize(4_000, &PrefixLenDistribution::bgp_ipv4(), 43);
    let table = chisel::workloads::ipv6::synthesize_ipv6_from_v4_model(4_000, &v4, 43);
    let oracle = OracleLpm::from_table(&table);
    let chisel = ChiselLpm::build(&table, ChiselConfig::ipv6()).unwrap();
    let treebitmap = TreeBitmap::from_table(&table, 4);
    let trie = BinaryTrie::from_table(&table);

    let mut rng = StdRng::seed_from_u64(8);
    for key in probe_keys(&mut rng, &table, 10_000) {
        let expect = oracle.lookup(key);
        assert_eq!(chisel.lookup(key), expect, "chisel at {key}");
        assert_eq!(treebitmap.lookup(key), expect, "treebitmap at {key}");
        assert_eq!(trie.lookup(key), expect, "trie at {key}");
    }
}

#[test]
fn chisel_agrees_across_configuration_corners() {
    let table = synthesize(3_000, &PrefixLenDistribution::bgp_ipv4(), 44);
    let oracle = OracleLpm::from_table(&table);
    let configs = vec![
        ChiselConfig::ipv4().stride(1),
        ChiselConfig::ipv4().stride(2),
        ChiselConfig::ipv4().stride(6),
        ChiselConfig::ipv4().stride(8),
        ChiselConfig::ipv4().k(2).seed(5),
        ChiselConfig::ipv4().k(5).m_per_key(5.0),
        ChiselConfig::ipv4().partitions(1),
        ChiselConfig::ipv4().partitions(64),
        ChiselConfig::ipv4().slack(1.0),
        ChiselConfig::ipv4().slack(4.0),
    ];
    let mut rng = StdRng::seed_from_u64(9);
    let keys = probe_keys(&mut rng, &table, 4_000);
    for (i, config) in configs.into_iter().enumerate() {
        let engine = ChiselLpm::build(&table, config).unwrap();
        for &key in &keys {
            assert_eq!(
                engine.lookup(key),
                oracle.lookup(key),
                "config #{i} at {key}"
            );
        }
    }
}

#[test]
fn chisel_agrees_across_seeds() {
    // Hash-seed independence: any seed must give identical lookup results.
    let table = synthesize(2_000, &PrefixLenDistribution::bgp_ipv4(), 45);
    let oracle = OracleLpm::from_table(&table);
    let mut rng = StdRng::seed_from_u64(10);
    let keys = probe_keys(&mut rng, &table, 2_000);
    for seed in 0..8u64 {
        let engine = ChiselLpm::build(&table, ChiselConfig::ipv4().seed(seed)).unwrap();
        for &key in &keys {
            assert_eq!(
                engine.lookup(key),
                oracle.lookup(key),
                "seed {seed} at {key}"
            );
        }
    }
}

/// The full batch matrix for the vectorized cold path: uniform and
/// zipf-skewed streams, both address families, before and after an
/// update storm, compared lane-for-lane against the scalar per-key
/// path on both the blocked (default) and flat Index Table layouts.
/// The stream goes in as batches of 1, 5, 63, 64 and 65 keys, so the
/// kernel's 64-key lanes run full, partial and split. Every batch is
/// also run traced: the batch trace must equal the sum of the per-key
/// traces, field by field. With the `simd` feature on (the default)
/// the batch side exercises the AVX2 gather lanes wherever the host
/// supports them; built with `--no-default-features` the same test pins
/// the scalar fallback — CI runs both, so a divergence in either path
/// fails the suite.
#[test]
fn batch_lanes_agree_with_scalar_across_matrix() {
    use chisel::core::LookupTrace;
    use chisel::workloads::keystream::{flow_pool, uniform_stream, zipf_stream};
    let quick = std::env::var_os("CHISEL_BENCH_QUICK").is_some();
    let (nkeys, batch_lens): (usize, &[usize]) = if quick {
        (2_000, &[65])
    } else {
        (8_000, &[1, 5, 63, 64, 65])
    };
    for family in [AddressFamily::V4, AddressFamily::V6] {
        let (table, base_config) = match family {
            AddressFamily::V4 => (
                synthesize(3_000, &PrefixLenDistribution::bgp_ipv4(), 61),
                ChiselConfig::ipv4(),
            ),
            AddressFamily::V6 => {
                let v4 = synthesize(2_000, &PrefixLenDistribution::bgp_ipv4(), 62);
                (
                    chisel::workloads::ipv6::synthesize_ipv6_from_v4_model(2_000, &v4, 62),
                    ChiselConfig::ipv6(),
                )
            }
        };
        for blocked in [true, false] {
            let mut engine =
                ChiselLpm::build(&table, base_config.clone().blocked_index(blocked)).unwrap();
            // Two passes: the freshly built engine, then the same engine
            // after a random announce/withdraw storm (spill entries,
            // dirty slots, rebuilt partitions all in play).
            for pass in 0..2 {
                if pass == 1 {
                    let mut rng = StdRng::seed_from_u64(63);
                    let live: Vec<chisel::Prefix> = table.iter().map(|e| e.prefix).collect();
                    for round in 0..500 {
                        if rng.gen_bool(0.4) && !live.is_empty() {
                            let p = live[rng.gen_range(0..live.len())];
                            let _ = engine.withdraw(p);
                        } else {
                            let len = rng.gen_range(1..=family.width());
                            let bits = rng.gen::<u128>() & chisel_prefix::bits::mask(len);
                            let p = chisel::Prefix::new(family, bits, len).unwrap();
                            engine.announce(p, chisel::NextHop::new(round)).unwrap();
                        }
                    }
                }
                let pool = flow_pool(&table, 1 << 12, 64 + pass as u64);
                for (name, stream) in [
                    ("uniform", uniform_stream(&pool, nkeys, 65)),
                    ("zipf", zipf_stream(&pool, 1.1, nkeys, 66)),
                ] {
                    let mut scalar_trace = LookupTrace::default();
                    let scalar: Vec<_> = stream
                        .iter()
                        .map(|&k| engine.lookup_traced(k, &mut scalar_trace))
                        .collect();
                    for &len in batch_lens {
                        let at =
                            format!("{family:?} blocked={blocked} pass={pass} {name} len={len}");
                        let mut batched = vec![None; stream.len()];
                        let mut traced = vec![None; stream.len()];
                        let mut trace = LookupTrace::default();
                        for ((keys, out), traced_out) in stream
                            .chunks(len)
                            .zip(batched.chunks_mut(len))
                            .zip(traced.chunks_mut(len))
                        {
                            engine.lookup_batch(keys, out);
                            engine.lookup_batch_traced(keys, traced_out, &mut trace);
                        }
                        assert_eq!(batched, scalar, "{at}: batch diverged from scalar");
                        assert_eq!(traced, scalar, "{at}: traced batch diverged from scalar");
                        assert_eq!(trace, scalar_trace, "{at}: batch trace != per-key traces");
                    }
                }
            }
        }
    }
}

#[test]
fn engines_agree_after_update_storm() {
    // Apply the same random announce/withdraw storm to chisel, treebitmap,
    // trie, and oracle; all must stay in lockstep.
    let table = synthesize(2_000, &PrefixLenDistribution::bgp_ipv4(), 46);
    let mut oracle = OracleLpm::from_table(&table);
    let mut chisel = ChiselLpm::build(&table, ChiselConfig::ipv4()).unwrap();
    let mut treebitmap = TreeBitmap::from_table(&table, 4);
    let mut trie = BinaryTrie::from_table(&table);

    let mut rng = StdRng::seed_from_u64(11);
    let mut live: Vec<chisel::Prefix> = table.iter().map(|e| e.prefix).collect();
    for round in 0..4_000 {
        if rng.gen_bool(0.45) && !live.is_empty() {
            let p = live.swap_remove(rng.gen_range(0..live.len()));
            chisel.withdraw(p).unwrap();
            treebitmap.remove(&p);
            trie.remove(&p);
            oracle.remove(&p);
        } else {
            let len = rng.gen_range(1..=32u8);
            let bits = rng.gen::<u128>() & chisel_prefix::bits::mask(len);
            let p = chisel::Prefix::new(AddressFamily::V4, bits, len).unwrap();
            let nh = chisel::NextHop::new(rng.gen_range(0..256));
            chisel.announce(p, nh).unwrap();
            treebitmap.insert(p, nh);
            trie.insert(p, nh);
            oracle.insert(p, nh);
            if !live.contains(&p) {
                live.push(p);
            }
        }
        if round % 50 == 0 {
            let key = random_key(&mut rng, AddressFamily::V4);
            let expect = oracle.lookup(key);
            assert_eq!(chisel.lookup(key), expect, "chisel at round {round}");
            assert_eq!(
                treebitmap.lookup(key),
                expect,
                "treebitmap at round {round}"
            );
            assert_eq!(trie.lookup(key), expect, "trie at round {round}");
        }
    }
    // Full sweep at the end.
    let keys = probe_keys(&mut rng, &table, 5_000);
    for key in keys {
        assert_eq!(
            chisel.lookup(key),
            oracle.lookup(key),
            "final sweep at {key}"
        );
    }
}

/// Exact `LookupTrace` totals of per-key `lookup_traced` over a seeded
/// table, update storm and key stream, on both Index Table layouts. A
/// sparse Index Table (`m_per_key` 1.1) leaves setup-failure keys in the
/// spillover TCAM, so spill hits are counted too. The figures were
/// recorded before the traced walk moved onto the batch kernel's stage
/// methods: any change in what a lookup counts fails here. The traced
/// batch kernel must answer and count the same, in 64-key lanes and in
/// odd batches of 37.
#[test]
fn lookup_trace_totals_match_golden_counts() {
    use chisel::core::LookupTrace;
    let table = synthesize(3_000, &PrefixLenDistribution::bgp_ipv4(), 73);
    // Both layouts probe the same cells; only the Index Table lines per
    // probe (1 blocked, k = 3 flat) and the spilled keys differ.
    let golden = |blocked: bool| LookupTrace {
        index_reads: 38_136,
        filter_reads: 38_136,
        bitvec_reads: 38_136,
        result_reads: 4_478,
        spill_hits: if blocked { 2 } else { 21 },
        cache_hits: 0,
        cache_misses: 0,
        degraded_hits: 0,
        cache_lines_touched: if blocked { 118_884 } else { 195_095 },
    };
    for blocked in [true, false] {
        let config = ChiselConfig::ipv4()
            .blocked_index(blocked)
            .m_per_key(1.1)
            .spill_capacity(256);
        let mut engine = ChiselLpm::build(&table, config).unwrap();
        let mut rng = StdRng::seed_from_u64(74);
        let live: Vec<chisel::Prefix> = table.iter().map(|e| e.prefix).collect();
        for round in 0..300 {
            if rng.gen_bool(0.4) {
                let _ = engine.withdraw(live[rng.gen_range(0..live.len())]);
            } else {
                let len = rng.gen_range(8..=32u8);
                let bits = rng.gen::<u128>() & chisel_prefix::bits::mask(len);
                let p = chisel::Prefix::new(AddressFamily::V4, bits, len).unwrap();
                engine.announce(p, chisel::NextHop::new(round)).unwrap();
            }
        }
        let mut routes = chisel::RoutingTable::new_v4();
        routes.extend(engine.iter_routes());
        let stream = probe_keys(&mut rng, &routes, 8_000);
        let mut trace = LookupTrace::default();
        let scalar: Vec<_> = stream
            .iter()
            .map(|&k| engine.lookup_traced(k, &mut trace))
            .collect();
        assert_eq!(trace, golden(blocked), "blocked={blocked}");
        let mut out = vec![None; stream.len()];
        for len in [stream.len(), 37] {
            let mut batch_trace = LookupTrace::default();
            for (keys, out) in stream.chunks(len).zip(out.chunks_mut(len)) {
                engine.lookup_batch_traced(keys, out, &mut batch_trace);
            }
            assert_eq!(out, scalar, "blocked={blocked} batch len={len}");
            assert_eq!(
                batch_trace,
                golden(blocked),
                "blocked={blocked} batch len={len}"
            );
        }
    }
}
