use std::collections::HashMap;

use chisel_hash::{HashFamily, KeyDigest};

use crate::packed::{entries_per_line, IndexLayout};
use crate::{BloomierError, PackedWords};

/// Probe-slot scratch held on the stack in the scalar lookup; families
/// with more hash functions (unused in practice) spill to a heap buffer.
const STACK_K: usize = 8;

/// The one shared scalar Index Table probe: XOR of the `w`-bit entries at
/// the key's probe locations under the arena's layout (Equation 2).
/// [`BloomierFilter::lookup_digest`], the hardware-image replay in
/// `chisel-core` and the batch lookup all bottom out here, so
/// layout dispatch cannot drift between the live engine and a loaded
/// image.
#[inline]
pub fn index_xor_lookup(family: &HashFamily, words: &PackedWords, d: KeyDigest) -> u64 {
    if words.is_empty() {
        return 0;
    }
    let mut acc = 0u64;
    match words.layout() {
        IndexLayout::Flat => {
            let m = words.len();
            for i in 0..family.k() {
                acc ^= words.get_wide(family.hash_one_digest(i, d, m));
            }
        }
        IndexLayout::Blocked => {
            let epl = words.line_entries();
            let line = family.block_digest(d, words.len() / epl);
            let mut buf = [0usize; STACK_K];
            // ALLOC-OK: Vec::new allocates nothing; the heap spill only
            // materializes for k > STACK_K geometries, off the common
            // stack-buffer path.
            let mut heap = Vec::new();
            let slots = if family.k() <= STACK_K {
                &mut buf[..family.k()]
            } else {
                heap.resize(family.k(), 0);
                &mut heap[..]
            };
            family.inblock_slots_digest(d, epl, slots);
            for &s in slots.iter() {
                acc ^= words.get_in_line(line, s);
            }
        }
    }
    acc
}

/// A collision-free hash table encoding a function `u128 -> u32`.
///
/// The Index Table `data` is set up so that XOR-ing the `k` locations of a
/// key's hash neighborhood yields exactly the value encoded for that key
/// (paper Equations 2/4). Locations are `w`-bit packed ([`PackedWords`]),
/// matching the Section 5 storage model where an entry is exactly wide
/// enough for a Filter/Result Table pointer. Occupancy bookkeeping
/// (`counts`, `xorsum`) is retained after setup to support incremental
/// singleton inserts; in the hardware realization this bookkeeping lives
/// in the software shadow copy on the line card, not in the lookup engine.
#[derive(Debug, Clone)]
pub struct BloomierFilter {
    family: HashFamily,
    m: usize,
    /// The Index Table (Equation 4 encodes Result Table pointers here),
    /// `w` bits per location.
    data: PackedWords,
    /// Number of (function, key) incidences per location over live keys.
    counts: Vec<u32>,
    /// XOR of the live keys hashing to each location (once per incidence).
    xorsum: Vec<u128>,
    len: usize,
}

/// The outcome of [`BloomierFilter::build`]: the filter plus any keys that
/// had to be spilled for setup to converge (destined for the spillover
/// TCAM, paper Section 4.1).
#[derive(Debug, Clone)]
pub struct Built {
    /// The constructed filter.
    pub filter: BloomierFilter,
    /// Keys (with their values) that could not be placed.
    pub spilled: Vec<(u128, u32)>,
}

impl BloomierFilter {
    /// Creates an empty filter with `m` full-width (32-bit) locations and
    /// `k` hash functions seeded from `seed`. See
    /// [`BloomierFilter::empty_packed`] for the storage-efficient form.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `k == 0`.
    pub fn empty(k: usize, m: usize, seed: u64) -> Self {
        Self::empty_packed(k, m, 32, seed)
    }

    /// Creates an empty filter whose `m` locations are packed to
    /// `value_bits` bits each — every encoded value must fit that width.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `k == 0`, or `value_bits` is outside `1..=32`.
    pub fn empty_packed(k: usize, m: usize, value_bits: u32, seed: u64) -> Self {
        Self::empty_packed_with_family(HashFamily::new(k, seed), m, value_bits)
    }

    /// Creates an empty packed filter around a pre-built hash family —
    /// the shared-digest form: a partitioned Index Table hands every
    /// partition a family built with the same digest seed so one key
    /// digest serves them all.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `value_bits` is outside `1..=32`.
    pub fn empty_packed_with_family(family: HashFamily, m: usize, value_bits: u32) -> Self {
        Self::empty_packed_with_family_layout(family, m, value_bits, IndexLayout::Flat)
    }

    /// [`BloomierFilter::empty_packed_with_family`] with an explicit
    /// Index Table layout. Under [`IndexLayout::Blocked`] the table is
    /// rounded up to a whole number of cache-line blocks (a key's probes
    /// must be able to address every in-line slot of its block), so
    /// [`BloomierFilter::m`] may exceed the requested `m` by up to
    /// `entries_per_line(value_bits) - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `value_bits` is outside `1..=32`.
    pub fn empty_packed_with_family_layout(
        family: HashFamily,
        m: usize,
        value_bits: u32,
        layout: IndexLayout,
    ) -> Self {
        assert!(m > 0, "index table must have at least one location");
        let m = match layout {
            IndexLayout::Flat => m,
            IndexLayout::Blocked => {
                let epl = entries_per_line(value_bits);
                m.div_ceil(epl) * epl
            }
        };
        BloomierFilter {
            family,
            m,
            data: PackedWords::with_layout(m, value_bits, layout),
            counts: vec![0; m],
            xorsum: vec![0; m],
            len: 0,
        }
    }

    /// Builds a filter over a static key set using the peeling setup
    /// algorithm (Section 3.2). Keys that prevent convergence are removed
    /// and returned in [`Built::spilled`] (Section 4.1's spillover TCAM).
    ///
    /// # Errors
    ///
    /// Returns [`BloomierError::DuplicateKey`] if a key appears twice and
    /// [`BloomierError::TableTooSmall`] if `m < k`.
    pub fn build(
        k: usize,
        m: usize,
        seed: u64,
        keys: &[(u128, u32)],
    ) -> Result<Built, BloomierError> {
        Self::build_packed(k, m, 32, seed, keys)
    }

    /// [`BloomierFilter::build`] with `value_bits`-bit packed locations.
    ///
    /// # Errors
    ///
    /// As [`BloomierFilter::build`]; additionally every value must fit in
    /// `value_bits` bits (asserted).
    pub fn build_packed(
        k: usize,
        m: usize,
        value_bits: u32,
        seed: u64,
        keys: &[(u128, u32)],
    ) -> Result<Built, BloomierError> {
        if m < k {
            return Err(BloomierError::TableTooSmall { m, k });
        }
        let mut filter = BloomierFilter::empty_packed(k, m, value_bits, seed);
        let spilled = filter.setup(keys)?;
        Ok(Built { filter, spilled })
    }

    /// [`BloomierFilter::build_packed`] around a pre-built hash family
    /// (see [`BloomierFilter::empty_packed_with_family`]).
    ///
    /// # Errors
    ///
    /// As [`BloomierFilter::build_packed`].
    pub fn build_packed_with_family(
        family: HashFamily,
        m: usize,
        value_bits: u32,
        keys: &[(u128, u32)],
    ) -> Result<Built, BloomierError> {
        Self::build_packed_with_family_layout(family, m, value_bits, IndexLayout::Flat, keys)
    }

    /// [`BloomierFilter::build_packed_with_family`] with an explicit
    /// Index Table layout (see
    /// [`BloomierFilter::empty_packed_with_family_layout`]).
    ///
    /// # Errors
    ///
    /// As [`BloomierFilter::build_packed`].
    pub fn build_packed_with_family_layout(
        family: HashFamily,
        m: usize,
        value_bits: u32,
        layout: IndexLayout,
        keys: &[(u128, u32)],
    ) -> Result<Built, BloomierError> {
        if m < family.k() {
            return Err(BloomierError::TableTooSmall { m, k: family.k() });
        }
        let mut filter =
            BloomierFilter::empty_packed_with_family_layout(family, m, value_bits, layout);
        let spilled = filter.setup(keys)?;
        Ok(Built { filter, spilled })
    }

    /// Number of hash functions.
    #[inline]
    pub fn k(&self) -> usize {
        self.family.k()
    }

    /// Index Table size in locations.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of live keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are encoded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hash family in use (shared with the engine for key collapse
    /// bookkeeping).
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// The one-pass digest of `key` under this filter's hash family; feed
    /// it to [`BloomierFilter::lookup_digest`] /
    /// [`BloomierFilter::prefetch_digest`] to avoid re-hashing the key per
    /// probe.
    #[inline]
    pub fn digest(&self, key: u128) -> KeyDigest {
        self.family.digest(key)
    }

    /// Looks up the value encoded for `key` — a single XOR across the hash
    /// neighborhood (Equation 2), exactly `k` memory reads.
    ///
    /// For keys not in the encoded set the result is an arbitrary value
    /// (the caller must filter false positives).
    #[inline]
    pub fn lookup(&self, key: u128) -> u32 {
        self.lookup_digest(self.digest(key))
    }

    /// [`BloomierFilter::lookup`] from an already-computed digest: the key
    /// is not re-hashed, each of the `k` locations costs two multiplies.
    /// Under [`IndexLayout::Blocked`] all `k` probes land in one 64-byte
    /// line.
    #[inline]
    pub fn lookup_digest(&self, d: KeyDigest) -> u32 {
        index_xor_lookup(&self.family, &self.data, d) as u32
    }

    /// The Index Table layout of this filter.
    #[inline]
    pub fn layout(&self) -> IndexLayout {
        self.data.layout()
    }

    /// The key's `k` probe locations under the active layout — global
    /// indices into `0..m`. Flat probes may repeat (they XOR-cancel at
    /// lookup; the setup/insert paths are written multiplicity-aware);
    /// blocked probes are pairwise distinct within the key's line (see
    /// [`HashFamily::inblock_slots_digest`]).
    pub fn probe_locations(&self, d: KeyDigest) -> Vec<usize> {
        match self.data.layout() {
            IndexLayout::Flat => self.family.neighborhood_digest(d, self.m),
            IndexLayout::Blocked => {
                let epl = self.data.line_entries();
                self.family
                    .blocked_neighborhood_digest(d, self.m / epl, epl)
            }
        }
    }

    /// Prefetches the Index Table line(s) of `key`'s probe locations, so
    /// a following [`BloomierFilter::lookup`] hits cache.
    #[inline]
    pub fn prefetch(&self, key: u128) {
        self.prefetch_digest(self.digest(key));
    }

    /// [`BloomierFilter::prefetch`] from an already-computed digest. The
    /// blocked layout touches exactly one line here — the whole point of
    /// the layout.
    #[inline]
    pub fn prefetch_digest(&self, d: KeyDigest) {
        match self.data.layout() {
            IndexLayout::Flat => {
                for i in 0..self.family.k() {
                    self.data
                        .prefetch(self.family.hash_one_digest(i, d, self.m));
                }
            }
            IndexLayout::Blocked => {
                let epl = self.data.line_entries();
                self.data
                    .prefetch_line(self.family.block_digest(d, self.m / epl));
            }
        }
    }

    /// Attempts an incremental insert (Section 4.4.2): succeeds iff the key
    /// has a *singleton* — a hash location no other live key touches.
    ///
    /// The caller must guarantee `key` is not already encoded.
    ///
    /// # Errors
    ///
    /// Returns [`BloomierError::NoSingleton`] if every location in the
    /// key's neighborhood is shared; the caller must then re-setup (or
    /// spill the key).
    pub fn try_insert(&mut self, key: u128, value: u32) -> Result<(), BloomierError> {
        let hood = self.probe_locations(self.digest(key));
        // τ must be untouched by other keys AND hit by exactly one of this
        // key's hash functions — a double incidence would XOR-cancel at
        // lookup and corrupt the encoding.
        let tau = *hood
            .iter()
            .find(|&&loc| self.counts[loc] == 0 && hood.iter().filter(|&&l| l == loc).count() == 1)
            .ok_or(BloomierError::NoSingleton { key })?;
        self.encode_at(key, value, tau, &hood);
        for &loc in &hood {
            self.counts[loc] += 1;
            self.xorsum[loc] ^= key;
        }
        self.len += 1;
        Ok(())
    }

    /// Whether `key` could be inserted incrementally right now (has a
    /// singleton) — used by the update engine to classify updates without
    /// mutating.
    pub fn has_singleton(&self, key: u128) -> bool {
        let hood = self.probe_locations(self.digest(key));
        hood.iter()
            .any(|&loc| self.counts[loc] == 0 && hood.iter().filter(|&&l| l == loc).count() == 1)
    }

    /// Writes `V(t)` for a key whose `τ` location is `tau` (Equation 4):
    /// XOR of the data at every *other* neighborhood location and the value.
    fn encode_at(&mut self, _key: u128, value: u32, tau: usize, hood: &[usize]) {
        let mut acc = value;
        let mut tau_seen = false;
        for &loc in hood {
            if loc == tau && !tau_seen {
                tau_seen = true; // skip exactly one incidence of τ
            } else {
                acc ^= self.data.get(loc);
            }
        }
        self.data.set(tau, acc);
    }

    /// Runs the full peeling setup over `keys`, replacing current contents.
    /// Returns keys spilled to make setup converge.
    fn setup(&mut self, keys: &[(u128, u32)]) -> Result<Vec<(u128, u32)>, BloomierError> {
        self.data.clear();
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.xorsum.iter_mut().for_each(|x| *x = 0);
        self.len = 0;

        // Live-key map: key -> value. Also detects duplicates.
        let mut live: HashMap<u128, u32> = HashMap::with_capacity(keys.len());
        for &(key, value) in keys {
            if live.insert(key, value).is_some() {
                return Err(BloomierError::DuplicateKey { key });
            }
            for loc in self.probe_locations(self.digest(key)) {
                self.counts[loc] += 1;
                self.xorsum[loc] ^= key;
            }
        }

        // Peel: repeatedly remove keys that own a degree-1 location. The
        // push order is the paper's stack; encoding happens in reverse.
        // `remaining` tracks un-peeled keys so a stuck 2-core can spill
        // its smallest member in O(log n).
        let mut order: Vec<(u128, usize)> = Vec::with_capacity(live.len());
        let mut candidates: Vec<usize> = (0..self.m).filter(|&l| self.counts[l] == 1).collect();
        let mut spilled: Vec<(u128, u32)> = Vec::new();
        let mut remaining: std::collections::BTreeSet<u128> = live.keys().copied().collect();

        loop {
            while let Some(loc) = candidates.pop() {
                if self.counts[loc] != 1 {
                    continue; // stale candidate
                }
                let key = self.xorsum[loc];
                debug_assert!(live.contains_key(&key), "xorsum invariant broken");
                order.push((key, loc));
                remaining.remove(&key);
                for l in self.probe_locations(self.digest(key)) {
                    self.counts[l] -= 1;
                    self.xorsum[l] ^= key;
                    if self.counts[l] == 1 {
                        candidates.push(l);
                    }
                }
            }
            if remaining.is_empty() {
                break;
            }
            // Stuck in a 2-core: spill the smallest remaining key (any
            // deterministic choice works) and resume peeling.
            let victim = *remaining.iter().next().expect("stuck set nonempty");
            remaining.remove(&victim);
            spilled.push((victim, live[&victim]));
            for l in self.probe_locations(self.digest(victim)) {
                self.counts[l] -= 1;
                self.xorsum[l] ^= victim;
                if self.counts[l] == 1 {
                    candidates.push(l);
                }
            }
        }

        // Re-install occupancy for the placed keys (peeling zeroed it).
        for &(key, _) in &order {
            for l in self.probe_locations(self.digest(key)) {
                self.counts[l] += 1;
                self.xorsum[l] ^= key;
            }
        }

        // Encode in reverse peel order (the paper's Γ: stack top first).
        // A key's τ location was degree-1 among all keys peeled after it,
        // so writing it never corrupts an already-encoded key.
        for idx in (0..order.len()).rev() {
            let (key, tau) = order[idx];
            let hood = self.probe_locations(self.digest(key));
            let value = live[&key];
            self.encode_at(key, value, tau, &hood);
        }
        self.len = order.len();
        Ok(spilled)
    }

    /// Occupancy count of one Index Table location — exposed for tests and
    /// the load-distribution diagnostics.
    pub fn occupancy(&self, loc: usize) -> u32 {
        self.counts[loc]
    }

    /// The packed Index Table arena — what gets loaded into the hardware
    /// memory macro. A lookup is fully determined by this arena plus the
    /// hash family.
    pub fn packed(&self) -> &PackedWords {
        &self.data
    }

    /// Entry width `w` of the Index Table in bits.
    #[inline]
    pub fn value_bits(&self) -> u32 {
        self.data.value_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyset(n: usize, salt: u128) -> Vec<(u128, u32)> {
        (0..n)
            .map(|i| ((i as u128).wrapping_mul(0x9E37_79B9) ^ salt, i as u32))
            .collect()
    }

    #[test]
    fn build_and_lookup_exact() {
        let keys = keyset(1000, 7);
        let built = BloomierFilter::build(3, 3000, 1, &keys).unwrap();
        assert!(built.spilled.is_empty(), "unexpected spill at m/n=3");
        assert_eq!(built.filter.len(), 1000);
        for &(k, v) in &keys {
            assert_eq!(built.filter.lookup(k), v);
        }
    }

    #[test]
    fn packed_build_matches_full_width() {
        // Values < 1024 fit in 10 bits: the packed filter must encode the
        // identical function while charging a third of the storage.
        let keys = keyset(1000, 7);
        let wide = BloomierFilter::build(3, 3000, 1, &keys).unwrap().filter;
        let packed = BloomierFilter::build_packed(3, 3000, 10, 1, &keys)
            .unwrap()
            .filter;
        for &(k, _) in &keys {
            assert_eq!(wide.lookup(k), packed.lookup(k));
        }
        assert_eq!(packed.value_bits(), 10);
        assert_eq!(packed.packed().logical_bits(), 3000 * 10);
        assert!(packed.packed().arena_bits() < wide.packed().arena_bits() / 2);
    }

    #[test]
    fn packed_incremental_insert() {
        let keys = keyset(500, 3);
        let mut f = BloomierFilter::build_packed(3, 4500, 13, 2, &keys)
            .unwrap()
            .filter;
        let mut inserted = Vec::new();
        for &(k, v) in &keyset(100, 0xABCD_0000_0000) {
            if f.try_insert(k, v).is_ok() {
                inserted.push((k, v));
            }
        }
        assert!(!inserted.is_empty());
        for &(k, v) in keys.iter().chain(&inserted) {
            assert_eq!(f.lookup(k), v);
        }
    }

    #[test]
    fn duplicate_key_rejected() {
        let keys = vec![(1u128, 1u32), (2, 2), (1, 3)];
        assert_eq!(
            BloomierFilter::build(3, 30, 1, &keys).unwrap_err(),
            BloomierError::DuplicateKey { key: 1 }
        );
    }

    #[test]
    fn table_too_small_rejected() {
        assert!(matches!(
            BloomierFilter::build(3, 2, 1, &[]),
            Err(BloomierError::TableTooSmall { .. })
        ));
    }

    #[test]
    fn empty_build() {
        let built = BloomierFilter::build(3, 16, 1, &[]).unwrap();
        assert!(built.filter.is_empty());
        assert!(built.spilled.is_empty());
    }

    #[test]
    fn overloaded_table_spills_but_serves_placed_keys() {
        // m barely above n forces the peel into 2-cores; spilled keys must
        // be reported and every placed key must still look up correctly.
        let keys = keyset(1000, 99);
        let built = BloomierFilter::build(3, 1050, 5, &keys).unwrap();
        let spilled: std::collections::HashSet<u128> =
            built.spilled.iter().map(|&(k, _)| k).collect();
        assert_eq!(built.filter.len() + spilled.len(), 1000);
        for &(k, v) in &keys {
            if !spilled.contains(&k) {
                assert_eq!(built.filter.lookup(k), v, "placed key {k:#x} corrupted");
            }
        }
    }

    #[test]
    fn incremental_insert_preserves_existing() {
        // A deployed filter is sized for worst-case capacity and runs well
        // under it, so empty locations — and hence singletons — are common
        // (load 0.4 here: P(no singleton) ~ 3.6% per key).
        let keys = keyset(500, 3);
        let built = BloomierFilter::build(3, 4500, 2, &keys).unwrap();
        let mut f = built.filter;
        let extra = keyset(100, 0xABCD_0000_0000);
        let mut inserted = Vec::new();
        for &(k, v) in &extra {
            if f.try_insert(k, v).is_ok() {
                inserted.push((k, v));
            }
        }
        assert!(
            inserted.len() >= 85,
            "too few singleton inserts: {}",
            inserted.len()
        );
        for &(k, v) in keys.iter().chain(&inserted) {
            assert_eq!(f.lookup(k), v);
        }
    }

    #[test]
    fn insert_into_empty_filter() {
        let mut f = BloomierFilter::empty(3, 30, 1);
        f.try_insert(42, 7).unwrap();
        assert_eq!(f.lookup(42), 7);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn no_singleton_reported_when_saturated() {
        // One location only: second key can never have a singleton.
        let mut f = BloomierFilter::empty(1, 1, 1);
        f.try_insert(1, 10).unwrap();
        assert_eq!(
            f.try_insert(2, 20).unwrap_err(),
            BloomierError::NoSingleton { key: 2 }
        );
    }

    #[test]
    fn has_singleton_matches_try_insert() {
        let keys = keyset(200, 1);
        let mut f = BloomierFilter::build(3, 700, 3, &keys).unwrap().filter;
        for &(k, _) in &keyset(50, 0xFEED_0000_0000) {
            let predicted = f.has_singleton(k);
            let actual = f.try_insert(k, 1).is_ok();
            assert_eq!(predicted, actual, "prediction mismatch for {k:#x}");
        }
    }

    #[test]
    fn lookup_digest_matches_lookup() {
        let keys = keyset(500, 21);
        let f = BloomierFilter::build(3, 1500, 6, &keys).unwrap().filter;
        for &(k, v) in &keys {
            let d = f.digest(k);
            assert_eq!(f.lookup_digest(d), v);
            assert_eq!(f.lookup_digest(d), f.lookup(k));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let keys = keyset(300, 11);
        let a = BloomierFilter::build(3, 900, 77, &keys).unwrap().filter;
        let b = BloomierFilter::build(3, 900, 77, &keys).unwrap().filter;
        for &(k, _) in &keys {
            assert_eq!(a.lookup(k), b.lookup(k));
        }
    }

    #[test]
    fn setup_at_paper_design_point() {
        // k = 3, m/n = 3 (the paper's chosen design point): setup of a
        // realistic-size set should converge without spills.
        let keys = keyset(50_000, 123);
        let built = BloomierFilter::build(3, 150_000, 9, &keys).unwrap();
        assert!(built.spilled.is_empty());
        for &(k, v) in keys.iter().step_by(97) {
            assert_eq!(built.filter.lookup(k), v);
        }
    }

    #[test]
    fn occupancy_counts_are_consistent() {
        let keys = keyset(100, 2);
        let f = BloomierFilter::build(3, 300, 4, &keys).unwrap().filter;
        let total: u32 = (0..f.m()).map(|l| f.occupancy(l)).sum();
        assert_eq!(total as usize, 100 * 3);
    }

    fn build_blocked(
        k: usize,
        m: usize,
        value_bits: u32,
        seed: u64,
        keys: &[(u128, u32)],
    ) -> Built {
        BloomierFilter::build_packed_with_family_layout(
            HashFamily::new(k, seed),
            m,
            value_bits,
            IndexLayout::Blocked,
            keys,
        )
        .unwrap()
    }

    #[test]
    fn blocked_build_and_lookup_exact() {
        let keys = keyset(1000, 7);
        let built = build_blocked(3, 3000, 12, 1, &keys);
        let spilled: std::collections::HashSet<u128> =
            built.spilled.iter().map(|&(k, _)| k).collect();
        // Per-block load is ~1/3 of the peel threshold; spills must be rare.
        assert!(
            spilled.len() < 10,
            "excessive blocked spill: {}",
            spilled.len()
        );
        assert_eq!(built.filter.layout(), IndexLayout::Blocked);
        assert_eq!(built.filter.m() % entries_per_line(12), 0);
        for &(k, v) in &keys {
            if !spilled.contains(&k) {
                assert_eq!(built.filter.lookup(k), v);
            }
        }
    }

    #[test]
    fn blocked_probes_confined_to_one_line() {
        let built = build_blocked(3, 900, 10, 3, &keyset(300, 5));
        let f = &built.filter;
        let epl = entries_per_line(10);
        for key in 0..2_000u128 {
            let hood = f.probe_locations(f.digest(key));
            assert_eq!(hood.len(), 3);
            let line = hood[0] / epl;
            for &loc in &hood {
                assert!(loc < f.m());
                assert_eq!(loc / epl, line, "probe left its cache line");
            }
        }
    }

    #[test]
    fn blocked_incremental_insert_preserves_existing() {
        let keys = keyset(500, 3);
        let built = build_blocked(3, 4500, 13, 2, &keys);
        assert!(built.spilled.is_empty(), "spill at load 1/9");
        let mut f = built.filter;
        let mut inserted = Vec::new();
        for &(k, v) in &keyset(100, 0xABCD_0000_0000) {
            if f.try_insert(k, v).is_ok() {
                inserted.push((k, v));
            }
        }
        assert!(
            inserted.len() >= 85,
            "too few blocked singleton inserts: {}",
            inserted.len()
        );
        for &(k, v) in keys.iter().chain(&inserted) {
            assert_eq!(f.lookup(k), v);
        }
    }

    #[test]
    fn blocked_m_rounds_up_to_whole_blocks() {
        let epl = entries_per_line(17); // 30
        for want in [1usize, 29, 30, 31, 1000] {
            let f = BloomierFilter::empty_packed_with_family_layout(
                HashFamily::new(3, 1),
                want,
                17,
                IndexLayout::Blocked,
            );
            assert_eq!(f.m(), want.div_ceil(epl) * epl);
            assert!(f.m() >= want);
        }
    }

    #[test]
    fn index_xor_lookup_matches_filter_lookup_both_layouts() {
        let keys = keyset(400, 13);
        for layout in [IndexLayout::Flat, IndexLayout::Blocked] {
            let built = BloomierFilter::build_packed_with_family_layout(
                HashFamily::new(3, 9),
                1200,
                11,
                layout,
                &keys,
            )
            .unwrap();
            let f = &built.filter;
            for key in (0..5_000u128).step_by(7) {
                let d = f.digest(key);
                assert_eq!(
                    index_xor_lookup(f.family(), f.packed(), d) as u32,
                    f.lookup_digest(d),
                    "layout {layout:?} at {key}"
                );
            }
        }
    }
}

#[cfg(test)]
mod blocked_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite: across table shapes and sizes, a blocked-layout
        /// filter must encode exactly the same function as the unblocked
        /// reference — every key the blocked build places answers with
        /// the value the flat build answers, and keys are only ever
        /// *missing* via the reported spill list, never silently wrong.
        #[test]
        fn blocked_lookups_equal_unblocked_reference(
            n in 1usize..400,
            m_per_key in 2u32..6,
            value_bits in 4u32..=32,
            k in 2usize..=4,
            seed in 0u64..1000,
        ) {
            let mask = if value_bits == 32 { u32::MAX } else { (1u32 << value_bits) - 1 };
            let keys: Vec<(u128, u32)> = (0..n)
                .map(|i| {
                    let key = (i as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (seed as u128) << 64;
                    (key, (i as u32).wrapping_mul(0x85EB_CA6B) & mask)
                })
                .collect();
            let m = n * m_per_key as usize + k;
            let flat = BloomierFilter::build_packed_with_family_layout(
                HashFamily::new(k, seed),
                m,
                value_bits,
                IndexLayout::Flat,
                &keys,
            ).unwrap();
            let blocked = BloomierFilter::build_packed_with_family_layout(
                HashFamily::new(k, seed),
                m,
                value_bits,
                IndexLayout::Blocked,
                &keys,
            ).unwrap();
            let flat_spilled: std::collections::HashSet<u128> =
                flat.spilled.iter().map(|&(key, _)| key).collect();
            let blocked_spilled: std::collections::HashSet<u128> =
                blocked.spilled.iter().map(|&(key, _)| key).collect();
            for &(key, v) in &keys {
                if !flat_spilled.contains(&key) {
                    prop_assert_eq!(flat.filter.lookup(key), v);
                }
                if !blocked_spilled.contains(&key) {
                    // The blocked layout changes *where* entries live,
                    // never *what* the function returns.
                    prop_assert_eq!(blocked.filter.lookup(key), v);
                }
            }
            // Spills stay bounded: the per-block load is m_per_key-fold
            // under the peel threshold.
            prop_assert!(blocked_spilled.len() <= n / 8 + 2,
                "blocked spilled {} of {}", blocked_spilled.len(), n);
        }
    }
}
