//! Frozen input generators: routing tables, flow pools, key streams and
//! BGP-style update traces, all derived from one `--seed` through the
//! benchmark's own splitmix64.
//!
//! Nothing here calls `chisel-workloads` or `vendor/rand`: later changes
//! may edit those, and a benchmark whose inputs drift with the code it
//! measures compares nothing. The shapes are the repo's own (`bgp_ipv4`
//! length mix with 35% more-specifics, uniform and Zipf(1.0) arrival
//! orders, the rrc00 event mix of the paper's Figure 14); the trace
//! generator keeps a hash set of live prefixes instead of scanning the
//! live list per add. `fingerprint` hashes everything the program will
//! see, and `workloads::Spec::pinned` pins the default-seed values.

use std::collections::HashSet;

use chisel_core::RouteUpdate;
use chisel_prefix::{AddressFamily, Key, NextHop, Prefix, RoutingTable};

const V4: AddressFamily = AddressFamily::V4;

/// Steele/Lea/Flood splitmix64: tiny, seedable, and owned by this file.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named input of one benchmark seed: distinct
    /// `(seed, stream)` pairs give unrelated sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut boot = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64(boot.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `(length, weight)` of the canonical IPv4 BGP shape: /24-dominated,
/// strong /16 and /19–/23, thin tail (a frozen copy of
/// `PrefixLenDistribution::bgp_ipv4`).
const BGP_IPV4: [(u8, f64); 24] = [
    (8, 0.2),
    (9, 0.1),
    (10, 0.2),
    (11, 0.3),
    (12, 0.6),
    (13, 1.0),
    (14, 1.5),
    (15, 1.5),
    (16, 7.5),
    (17, 2.0),
    (18, 3.0),
    (19, 5.0),
    (20, 5.5),
    (21, 5.0),
    (22, 7.0),
    (23, 7.0),
    (24, 52.0),
    (25, 0.2),
    (26, 0.2),
    (27, 0.1),
    (28, 0.1),
    (29, 0.1),
    (30, 0.1),
    (32, 0.3),
];

fn sample_len(rng: &mut SplitMix64) -> u8 {
    let total: f64 = BGP_IPV4.iter().map(|&(_, w)| w).sum();
    let mut x = rng.unit() * total;
    for &(len, w) in &BGP_IPV4 {
        if x < w {
            return len;
        }
        x -= w;
    }
    24
}

fn low_bits(rng: &mut SplitMix64, n: u8) -> u128 {
    u128::from(rng.next_u64()) & ((1u128 << n) - 1)
}

fn prefix(bits: u128, len: u8) -> Prefix {
    Prefix::new(V4, bits, len).expect("generated bits are masked to the length")
}

fn next_hop(rng: &mut SplitMix64) -> NextHop {
    // Routers have few distinct next hops regardless of table size.
    NextHop::new(rng.below(64) as u32)
}

/// A table of `n` distinct IPv4 prefixes; about a third are more-specifics
/// punched into earlier prefixes, the nesting prefix collapsing reacts to.
/// Past ~10^5 routes the short lengths saturate (there are only 65,536
/// /16s) and the mix tilts further toward /24.
pub fn table(n: usize, rng: &mut SplitMix64) -> RoutingTable {
    let mut table = RoutingTable::new_v4();
    let mut pool: Vec<Prefix> = Vec::with_capacity(n);
    while table.len() < n {
        let len = sample_len(rng);
        let parent = (!pool.is_empty() && rng.unit() < 0.35).then(|| pool[rng.below(pool.len())]);
        let p = match parent {
            Some(parent) if parent.len() < len => {
                let extra = len - parent.len();
                parent.extend(low_bits(rng, extra), extra)
            }
            _ => prefix(low_bits(rng, len), len),
        };
        if table.insert(p, next_hop(rng)).is_none() {
            pool.push(p);
        }
    }
    table
}

/// `flows` covered keys: one random host under a uniformly drawn route.
pub fn flow_pool(table: &RoutingTable, flows: usize, rng: &mut SplitMix64) -> Vec<Key> {
    let prefixes: Vec<Prefix> = table.iter().map(|e| e.prefix).collect();
    (0..flows)
        .map(|_| {
            let p = prefixes[rng.below(prefixes.len())];
            let host_bits = 32 - p.len();
            Key::from_raw(V4, (p.bits() << host_bits) | low_bits(rng, host_bits))
        })
        .collect()
}

/// `n` arrivals over `pool`, split into equal epochs of `flows` flows
/// each (flows come and go; the last epoch takes what is left). Within an
/// epoch every flow is equally likely, or flow `i` is weighted `1/(i+1)`
/// (Zipf 1.0, the locality a flow cache exploits). Several epochs make a
/// run average over several draws of which heavy flows share a slot of
/// the direct-mapped cache: with one 4096-flow pool that luck alone moves
/// the hit rate by a point, and throughput by 4%, from seed to seed.
pub fn stream(pool: &[Key], flows: usize, zipf: bool, n: usize, rng: &mut SplitMix64) -> Vec<Key> {
    let mut cumulative = Vec::with_capacity(flows);
    let mut acc = 0.0f64;
    for i in 0..flows {
        acc += if zipf { 1.0 / (i + 1) as f64 } else { 1.0 };
        cumulative.push(acc);
    }
    let epochs = pool.len() / flows;
    let mut out = Vec::with_capacity(n);
    for (e, epoch) in pool.chunks_exact(flows).enumerate() {
        let arrivals = if e + 1 == epochs {
            n - out.len()
        } else {
            n / epochs
        };
        out.extend((0..arrivals).map(|_| {
            let x = rng.unit() * acc;
            epoch[cumulative.partition_point(|&c| c <= x).min(flows - 1)]
        }));
    }
    out
}

/// Uniformly random addresses, covered or not: the verification probes
/// that also exercise the no-route answer.
pub fn random_keys(n: usize, rng: &mut SplitMix64) -> Vec<Key> {
    (0..n)
        .map(|_| Key::from_raw(V4, low_bits(rng, 32)))
        .collect()
}

/// An update trace in the rrc00 (Amsterdam) mix: 28% withdraws, 22% route
/// flaps, 38% next-hop changes, 11.8% more-specific adds, 0.2% brand-new
/// prefixes. Tracks the evolving live set so withdraws hit live prefixes
/// and flaps re-announce the most recent withdrawal.
pub fn trace(table: &RoutingTable, events: usize, rng: &mut SplitMix64) -> Vec<RouteUpdate> {
    let mut live: Vec<(Prefix, NextHop)> = table.iter().map(|e| (e.prefix, e.next_hop)).collect();
    let mut live_set: HashSet<Prefix> = live.iter().map(|&(p, _)| p).collect();
    let mut withdrawn: Vec<(Prefix, NextHop)> = Vec::new();
    let mut out = Vec::with_capacity(events);
    while out.len() < events {
        let x = rng.unit();
        if x < 0.28 {
            if live.len() < 2 {
                continue;
            }
            let (p, nh) = live.swap_remove(rng.below(live.len()));
            live_set.remove(&p);
            withdrawn.push((p, nh));
            out.push(RouteUpdate::Withdraw(p));
        } else if x < 0.50 {
            let Some((p, nh)) = withdrawn.pop() else {
                continue;
            };
            if live_set.insert(p) {
                live.push((p, nh));
                out.push(RouteUpdate::Announce(p, nh));
            }
        } else if x < 0.88 {
            let i = rng.below(live.len());
            live[i].1 = next_hop(rng);
            out.push(RouteUpdate::Announce(live[i].0, live[i].1));
        } else {
            // More-specifics extend a live prefix by 1–2 bits, which
            // usually stays inside the parent's collapse window (the
            // paper: 99.9% of trace adds collapse onto existing keys).
            let p = if x < 0.998 {
                let parent = live[rng.below(live.len())].0;
                let extra = 1 + rng.below(2) as u8;
                if parent.len() + extra > 32 {
                    continue;
                }
                parent.extend(low_bits(rng, extra), extra)
            } else {
                let len = 8 + rng.below(17) as u8;
                prefix(low_bits(rng, len), len)
            };
            if live_set.insert(p) {
                let nh = next_hop(rng);
                live.push((p, nh));
                out.push(RouteUpdate::Announce(p, nh));
            }
        }
    }
    out
}

/// FNV-1a 64 over everything the program is handed.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn prefix(&mut self, p: Prefix) {
        self.word(p.bits() as u64);
        self.word(u64::from(p.len()));
    }

    pub fn table(&mut self, table: &RoutingTable) {
        for e in table.iter() {
            self.prefix(e.prefix);
            self.word(u64::from(e.next_hop.id()));
        }
    }

    pub fn keys(&mut self, keys: &[Key]) {
        for k in keys {
            self.word(k.value() as u64);
        }
    }

    pub fn events(&mut self, events: &[RouteUpdate]) {
        for ev in events {
            match *ev {
                RouteUpdate::Announce(p, nh) => {
                    self.word(1);
                    self.prefix(p);
                    self.word(u64::from(nh.id()));
                }
                RouteUpdate::Withdraw(p) => {
                    self.word(2);
                    self.prefix(p);
                }
            }
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}
