//! A generation-stamped, direct-mapped flow cache.
//!
//! Real traffic is heavily skewed — a small set of flows dominates the
//! key stream — so a tiny exact-match cache in front of the Chisel data
//! path turns most lookups into a single memory read instead of the
//! hash → Index → Filter ∥ Bit-vector → Result pipeline (the paper's four
//! sequential accesses, Section 6.7.1). The cache stores *full keys*, not
//! prefixes, so a hit needs no longest-prefix reasoning at all.
//!
//! Coherence is wholesale and free: every slot carries the engine
//! [`version`](crate::ChiselLpm::version) it was filled at (offset by one
//! so the zero stamp always means "empty"), and a hit requires the stamp
//! to match the engine's *current* version. Any announce or withdraw bumps
//! the version, so every cached entry — including cached misses — goes
//! stale at once without the writer ever touching reader-owned state.
//! This is what keeps [`SharedChisel`](crate::SharedChisel) readers
//! lock-free: each reader owns its cache outright (see
//! [`CachedReader`](crate::CachedReader)) and revalidates against the
//! snapshot it pinned for that lookup.
//!
//! One cache serves one engine *lineage*: stamps from unrelated engines
//! (both starting at version 0) are not comparable. [`FlowCache::clear`]
//! resets the cache when re-pointing it.

use chisel_hash::{MixHasher, SplitMix64};
use chisel_prefix::{Key, NextHop};

use crate::stats::LookupTrace;
use crate::subcell::ProbeCounter;
use crate::ChiselLpm;

/// Seed of the fixed slot-index hash. The cache is a performance layer,
/// not a correctness layer, so an adversarial key set degrades it to
/// misses — never to wrong answers — and a fixed seed keeps behavior
/// reproducible across runs.
const SLOT_SEED: u64 = 0xF10C_CA11_D00D_F00D;

/// One direct-mapped cache line: the full key, its resolved next hop
/// (`None` is a cached *miss* — negative results are cacheable too), and
/// the engine version the entry was filled at, offset by one so a zeroed
/// slot can never match a live engine.
#[derive(Debug, Clone, Copy)]
struct Slot {
    stamp: u64,
    key: u128,
    hop: Option<NextHop>,
}

const EMPTY_SLOT: Slot = Slot {
    stamp: 0,
    key: 0,
    hop: None,
};

/// A direct-mapped, exact-match flow cache in front of a [`ChiselLpm`].
///
/// ```
/// use chisel_core::{ChiselConfig, ChiselLpm, FlowCache};
/// use chisel_prefix::{NextHop, RoutingTable};
///
/// # fn main() -> Result<(), chisel_core::ChiselError> {
/// let mut table = RoutingTable::new_v4();
/// table.insert("10.0.0.0/8".parse().unwrap(), NextHop::new(1));
/// let engine = ChiselLpm::build(&table, ChiselConfig::ipv4())?;
///
/// let mut cache = FlowCache::new(1024);
/// let key = "10.1.2.3".parse().unwrap();
/// assert_eq!(cache.lookup(&engine, key), Some(NextHop::new(1)));
/// assert_eq!(cache.lookup(&engine, key), Some(NextHop::new(1)));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlowCache {
    slots: Vec<Slot>,
    mask: usize,
    hasher: MixHasher,
    hits: u64,
    misses: u64,
    /// Batch scratch (kept across calls so the steady state allocates
    /// nothing): positions and keys of the lanes that missed, and the
    /// engine's answers for them.
    miss_idx: Vec<usize>,
    miss_keys: Vec<Key>,
    miss_out: Vec<Option<NextHop>>,
}

impl FlowCache {
    /// Default capacity in slots (32 bytes each — 8 Ki slots is a
    /// comfortably L2-resident 256 KiB).
    pub const DEFAULT_CAPACITY: usize = 8 * 1024;

    /// Creates a cache with at least `capacity` slots (rounded up to a
    /// power of two so the slot index is a mask, never a division).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        let mut rng = SplitMix64::new(SLOT_SEED);
        FlowCache {
            slots: vec![EMPTY_SLOT; cap],
            mask: cap - 1,
            hasher: MixHasher::from_rng(&mut rng),
            hits: 0,
            misses: 0,
            // ALLOC-OK: empty scratch buffers on the cold construction
            // path; the batch loop reuses them without reallocating.
            miss_idx: Vec::new(),
            miss_keys: Vec::new(),
            miss_out: Vec::new(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Lookups answered from the cache since creation (or [`clear`]).
    ///
    /// [`clear`]: FlowCache::clear
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that went through the full data path.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Empties every slot and zeroes the hit/miss counters. Required when
    /// re-pointing the cache at an unrelated engine (stamps from
    /// different lineages are not comparable).
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.hits = 0;
        self.misses = 0;
    }

    #[inline]
    fn slot_index(&self, key: u128) -> usize {
        (self.hasher.hash_u64(key) as usize) & self.mask
    }

    /// Cached lookup: one exact-match read on a hit, the full engine
    /// data path (plus a cache fill) on a miss. Agrees with
    /// [`ChiselLpm::lookup`] on every key, always — the stamp check makes
    /// staleness impossible, not just unlikely.
    #[inline]
    pub fn lookup(&mut self, engine: &ChiselLpm, key: Key) -> Option<NextHop> {
        let stamp = engine.version().wrapping_add(1);
        let idx = self.slot_index(key.value());
        let slot = self.slots[idx];
        if slot.stamp == stamp && slot.key == key.value() {
            self.hits += 1;
            return slot.hop;
        }
        self.misses += 1;
        let hop = engine.lookup(key);
        self.slots[idx] = Slot {
            stamp,
            key: key.value(),
            hop,
        };
        hop
    }

    /// Cached batch lookup: hits are answered in a first pass, the
    /// missing lanes are funneled through [`ChiselLpm::lookup_batch`] in
    /// one software-pipelined sweep, and their answers back-fill both
    /// `out` and the cache. Steady state allocates nothing (the miss
    /// scratch is reused across calls).
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length.
    pub fn lookup_batch(&mut self, engine: &ChiselLpm, keys: &[Key], out: &mut [Option<NextHop>]) {
        self.answer(engine, keys, out, &mut ());
    }

    /// [`lookup_batch`](FlowCache::lookup_batch), accumulating into
    /// `trace`: each hit adds one `cache_hits` and no table reads, each
    /// miss one `cache_misses`, and the miss sweep runs
    /// [`ChiselLpm::lookup_batch_traced`] — the same kernel, so answers,
    /// fills and hit counts are those of the untraced batch.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length.
    pub fn lookup_batch_traced(
        &mut self,
        engine: &ChiselLpm,
        keys: &[Key],
        out: &mut [Option<NextHop>],
        trace: &mut LookupTrace,
    ) {
        let misses = self.answer(engine, keys, out, trace);
        trace.cache_hits += keys.len() - misses;
        trace.cache_misses += misses;
    }

    /// The batch front behind both public batch lookups; returns how many
    /// keys missed.
    fn answer<C: ProbeCounter>(
        &mut self,
        engine: &ChiselLpm,
        keys: &[Key],
        out: &mut [Option<NextHop>],
        counter: &mut C,
    ) -> usize {
        // ASSERT-OK: documented `# Panics` contract, checked once per
        // batch, amortized over every key.
        assert_eq!(
            keys.len(),
            out.len(),
            "lookup_batch: keys and out must have equal length"
        );
        let stamp = engine.version().wrapping_add(1);
        self.miss_idx.clear();
        self.miss_keys.clear();
        for (i, &key) in keys.iter().enumerate() {
            let slot = self.slots[self.slot_index(key.value())];
            if slot.stamp == stamp && slot.key == key.value() {
                self.hits += 1;
                out[i] = slot.hop;
            } else {
                self.misses += 1;
                self.miss_idx.push(i);
                self.miss_keys.push(key);
            }
        }
        if self.miss_keys.is_empty() {
            return 0;
        }
        self.miss_out.clear();
        self.miss_out.resize(self.miss_keys.len(), None);
        engine.lookup_lanes(&self.miss_keys, &mut self.miss_out, counter);
        for j in 0..self.miss_keys.len() {
            let key = self.miss_keys[j];
            let hop = self.miss_out[j];
            out[self.miss_idx[j]] = hop;
            let idx = self.slot_index(key.value());
            self.slots[idx] = Slot {
                stamp,
                key: key.value(),
                hop,
            };
        }
        self.miss_keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChiselConfig, ChiselLpm};
    use chisel_prefix::{AddressFamily, NextHop, Prefix, RoutingTable};

    fn engine() -> ChiselLpm {
        let mut t = RoutingTable::new_v4();
        t.insert("10.0.0.0/8".parse().unwrap(), NextHop::new(1));
        t.insert("10.1.0.0/16".parse().unwrap(), NextHop::new(2));
        ChiselLpm::build(&t, ChiselConfig::ipv4()).unwrap()
    }

    fn key(v: u128) -> Key {
        Key::from_raw(AddressFamily::V4, v)
    }

    #[test]
    fn hit_and_miss_counters() {
        let e = engine();
        let mut c = FlowCache::new(64);
        let k = key(0x0A01_0203);
        assert_eq!(c.lookup(&e, k), Some(NextHop::new(2)));
        assert_eq!((c.hits(), c.misses()), (0, 1));
        for _ in 0..5 {
            assert_eq!(c.lookup(&e, k), Some(NextHop::new(2)));
        }
        assert_eq!((c.hits(), c.misses()), (5, 1));
    }

    #[test]
    fn negative_results_are_cached() {
        let e = engine();
        let mut c = FlowCache::new(64);
        let k = key(0x7F00_0001);
        assert_eq!(c.lookup(&e, k), None);
        assert_eq!(c.lookup(&e, k), None);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn update_invalidates_wholesale() {
        let mut e = engine();
        let mut c = FlowCache::new(64);
        let k = key(0x0B00_0001);
        assert_eq!(c.lookup(&e, k), None);
        e.announce("11.0.0.0/8".parse::<Prefix>().unwrap(), NextHop::new(7))
            .unwrap();
        // The stale cached miss must not survive the version bump.
        assert_eq!(c.lookup(&e, k), Some(NextHop::new(7)));
        e.withdraw("11.0.0.0/8".parse::<Prefix>().unwrap()).unwrap();
        assert_eq!(c.lookup(&e, k), None);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn traced_hits_skip_table_reads() {
        let e = engine();
        let mut c = FlowCache::new(64);
        let k = [key(0x0A01_0203)];
        let mut out = [None];
        let mut t = LookupTrace::default();
        c.lookup_batch_traced(&e, &k, &mut out, &mut t);
        assert_eq!((t.cache_hits, t.cache_misses), (0, 1));
        assert!(t.total_reads() > 0);
        let reads_after_miss = t.total_reads();
        c.lookup_batch_traced(&e, &k, &mut out, &mut t);
        assert_eq!(out, [Some(NextHop::new(2))]);
        assert_eq!((t.cache_hits, t.cache_misses), (1, 1));
        assert_eq!(
            t.total_reads(),
            reads_after_miss,
            "a cache hit must not touch the tables"
        );
    }

    #[test]
    fn batch_matches_scalar_with_collisions() {
        let e = engine();
        // A 4-slot cache forces constant eviction; answers must not care.
        let mut c = FlowCache::new(4);
        let keys: Vec<Key> = (0..512u128)
            .map(|i| key(0x0A00_0000 | (i * 2654435761 % 0x0002_0000)))
            .collect();
        let mut out = vec![None; keys.len()];
        c.lookup_batch(&e, &keys, &mut out);
        for (k, o) in keys.iter().zip(&out) {
            assert_eq!(*o, e.lookup(*k), "batch diverged at {k}");
        }
        assert_eq!(c.hits() + c.misses(), keys.len() as u64);
        // Re-running the same batch against an unchanged engine hits a lot.
        c.lookup_batch(&e, &keys, &mut out);
        assert!(c.hits() > 0);
    }

    #[test]
    fn batch_traced_matches_batch_and_accounts_every_lane() {
        let e = engine();
        let mut traced = FlowCache::new(64);
        let mut plain = FlowCache::new(64);
        let keys: Vec<Key> = (0..256u128)
            .map(|i| key(0x0A00_0000 | (i * 7919)))
            .collect();
        let mut t = LookupTrace::default();
        let mut out_traced = vec![None; keys.len()];
        let mut out_plain = vec![None; keys.len()];
        for _ in 0..2 {
            traced.lookup_batch_traced(&e, &keys, &mut out_traced, &mut t);
            plain.lookup_batch(&e, &keys, &mut out_plain);
            assert_eq!(out_traced, out_plain);
        }
        assert_eq!(
            t.cache_hits + t.cache_misses,
            2 * keys.len(),
            "every lane must be accounted as a hit or a miss"
        );
        // Counters stay coherent with the cache's own totals, and the
        // traced cache runs the production path: same hits, same misses.
        assert_eq!(
            (t.cache_hits as u64, t.cache_misses as u64),
            (traced.hits(), traced.misses())
        );
        assert_eq!(
            (traced.hits(), traced.misses()),
            (plain.hits(), plain.misses())
        );
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(FlowCache::new(1000).capacity(), 1024);
        assert_eq!(FlowCache::new(1).capacity(), 1);
        assert_eq!(FlowCache::new(0).capacity(), 1);
    }

    #[test]
    fn clear_resets_slots_and_counters() {
        let e = engine();
        let mut c = FlowCache::new(64);
        let k = key(0x0A01_0203);
        c.lookup(&e, k);
        c.lookup(&e, k);
        c.clear();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        c.lookup(&e, k);
        assert_eq!((c.hits(), c.misses()), (0, 1));
    }
}
