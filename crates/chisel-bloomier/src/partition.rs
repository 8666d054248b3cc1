use std::sync::Arc;

use chisel_hash::{HashFamily, KeyDigest};

use crate::packed::entries_per_line;
use crate::{BloomierError, BloomierFilter, Built, IndexLayout};

/// One built partition: the filter, the keys it spilled, and the seed salt
/// that produced it — the unit of work the parallel setup pipeline moves
/// between threads.
pub type PartitionBuild = (BloomierFilter, Vec<(u128, u32)>, u64);

/// A candidate encoding for one partition, built but **not installed**.
///
/// Produced by [`PartitionedBloomier::build_partition_candidate`]; the
/// caller inspects `spilled` (does it fit the spillover TCAM?) before
/// committing via [`PartitionedBloomier::install_partition`]. `attempts`
/// records how many salted setup attempts the retry schedule consumed.
#[derive(Debug, Clone)]
pub struct RebuildCandidate {
    /// The freshly built partition filter.
    pub filter: BloomierFilter,
    /// Keys the best attempt still failed to encode.
    pub spilled: Vec<(u128, u32)>,
    /// Seed salt of the best attempt (pass to `install_partition`).
    pub salt: u64,
    /// Salted setup attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// A Bloomier filter logically partitioned into `d` sub-tables
/// (paper Section 4.4.2).
///
/// Each key is assigned to a partition by a `log2(d)`-bit hash checksum;
/// a re-setup triggered by a singleton-less insert then only rebuilds one
/// sub-table of ~`n/d` keys, bounding the worst-case update latency. The
/// hardware realization is still one monolithic Index Table — the checksum
/// simply forms the most-significant address bits — so lookup cost is
/// unchanged.
///
/// Partitions sit behind `Arc`s: cloning the whole filter is `d` pointer
/// bumps, and a mutation copies only the one partition it lands in. This
/// is what keeps snapshot publication (the clone-apply-publish update
/// path) proportional to the *modified* Index Table group rather than the
/// full table.
///
/// The selector and every partition share one digest seed (the master
/// `seed`), so a lookup hashes the key exactly once: the
/// [`KeyDigest`] from [`PartitionedBloomier::digest`] selects the
/// partition *and* drives its `k` probes. Rebuild retries only re-salt
/// the cheap derived mixers, never the digest front end.
#[derive(Debug, Clone)]
pub struct PartitionedBloomier {
    parts: Vec<Arc<BloomierFilter>>,
    selector: HashFamily,
    k: usize,
    part_m: usize,
    value_bits: u32,
    layout: IndexLayout,
    seed: u64,
    /// Per-partition seed salt, bumped when a partition is rebuilt after a
    /// convergence failure so the rebuild tries fresh hash functions.
    salts: Vec<u64>,
}

impl PartitionedBloomier {
    /// Creates an empty partitioned filter of full-width (32-bit)
    /// locations: `d` sub-tables of `ceil(total_m / d)` locations each.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `total_m == 0`.
    pub fn empty(k: usize, total_m: usize, d: usize, seed: u64) -> Self {
        Self::empty_packed(k, total_m, d, 32, seed)
    }

    /// [`PartitionedBloomier::empty`] with `value_bits`-bit packed
    /// locations (the paper's `w`-bit Index Table entries).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`, `total_m == 0`, or `value_bits` is outside
    /// `1..=32`.
    pub fn empty_packed(k: usize, total_m: usize, d: usize, value_bits: u32, seed: u64) -> Self {
        Self::empty_packed_layout(k, total_m, d, value_bits, IndexLayout::Flat, seed)
    }

    /// [`PartitionedBloomier::empty_packed`] with an explicit Index Table
    /// layout. Under [`IndexLayout::Blocked`], each partition is rounded
    /// up to a whole number of 64-byte blocks (so a key's `k` probes can
    /// address every in-line slot), and [`PartitionedBloomier::total_m`]
    /// may exceed the requested `total_m` accordingly.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`, `total_m == 0`, or `value_bits` is outside
    /// `1..=32`.
    pub fn empty_packed_layout(
        k: usize,
        total_m: usize,
        d: usize,
        value_bits: u32,
        layout: IndexLayout,
        seed: u64,
    ) -> Self {
        assert!(d > 0, "need at least one partition");
        assert!(total_m > 0, "index table must be nonempty");
        let mut part_m = total_m.div_ceil(d).max(k);
        if layout == IndexLayout::Blocked {
            // Keep `part_m` block-aligned up front so the per-partition
            // filters' own rounding is idempotent and `install_partition`
            // geometry checks stay exact equalities.
            let epl = entries_per_line(value_bits);
            part_m = part_m.div_ceil(epl) * epl;
        }
        let parts = (0..d)
            .map(|i| {
                Arc::new(BloomierFilter::empty_packed_with_family_layout(
                    part_family(k, seed, i, 0),
                    part_m,
                    value_bits,
                    layout,
                ))
            })
            .collect();
        PartitionedBloomier {
            parts,
            selector: HashFamily::with_shared_digest(1, seed, seed ^ 0x5E1E_C70A),
            k,
            part_m,
            value_bits,
            layout,
            seed,
            salts: vec![0; d],
        }
    }

    /// Builds over a static key set; spills are aggregated across
    /// partitions.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from any partition (duplicate keys,
    /// table too small).
    pub fn build(
        k: usize,
        total_m: usize,
        d: usize,
        seed: u64,
        keys: &[(u128, u32)],
    ) -> Result<(Self, Vec<(u128, u32)>), BloomierError> {
        Self::build_packed(k, total_m, d, 32, seed, keys)
    }

    /// [`PartitionedBloomier::build`] with `value_bits`-bit packed
    /// locations.
    ///
    /// # Errors
    ///
    /// As [`PartitionedBloomier::build`].
    pub fn build_packed(
        k: usize,
        total_m: usize,
        d: usize,
        value_bits: u32,
        seed: u64,
        keys: &[(u128, u32)],
    ) -> Result<(Self, Vec<(u128, u32)>), BloomierError> {
        Self::build_with_threads(k, total_m, d, value_bits, seed, keys, 1)
    }

    /// Builds over a static key set with the `d` independent partition
    /// setups fanned out over `threads` scoped worker threads — the
    /// concurrent realization of Section 4.4.2's observation that logical
    /// partitions are set up in isolation. The result is identical to the
    /// serial build for any thread count: partitions are assembled and
    /// spills concatenated in partition order.
    ///
    /// # Errors
    ///
    /// As [`PartitionedBloomier::build`]; the first failing partition (in
    /// partition order) reports its error.
    pub fn build_with_threads(
        k: usize,
        total_m: usize,
        d: usize,
        value_bits: u32,
        seed: u64,
        keys: &[(u128, u32)],
        threads: usize,
    ) -> Result<(Self, Vec<(u128, u32)>), BloomierError> {
        Self::build_with_threads_layout(
            k,
            total_m,
            d,
            value_bits,
            IndexLayout::Flat,
            seed,
            keys,
            threads,
            4,
        )
    }

    /// [`PartitionedBloomier::build_with_threads`] with an explicit Index
    /// Table layout (see [`PartitionedBloomier::empty_packed_layout`]) and
    /// salted-retry budget: each partition keeps the best of up to
    /// `attempts` setups under the schedule of
    /// [`PartitionedBloomier::build_one_partition_with_retries_layout`],
    /// stopping early at zero spills. Deterministic for any thread count
    /// and any budget (the schedule is fixed; only how far a spilling
    /// partition walks it changes).
    ///
    /// # Errors
    ///
    /// As [`PartitionedBloomier::build`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_threads_layout(
        k: usize,
        total_m: usize,
        d: usize,
        value_bits: u32,
        layout: IndexLayout,
        seed: u64,
        keys: &[(u128, u32)],
        threads: usize,
        attempts: u32,
    ) -> Result<(Self, Vec<(u128, u32)>), BloomierError> {
        let mut this = Self::empty_packed_layout(k, total_m, d, value_bits, layout, seed);
        let mut buckets: Vec<Vec<(u128, u32)>> = vec![Vec::new(); d];
        for &(key, value) in keys {
            buckets[this.partition_of(key)].push((key, value));
        }
        let part_m = this.part_m;
        let built: Vec<Result<PartitionBuild, BloomierError>> = if threads <= 1 || d == 1 {
            buckets
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    Self::build_one_partition_with_retries_layout(
                        k, part_m, value_bits, layout, seed, i, 0, attempts, b,
                    )
                    .map(|c| (c.filter, c.spilled, c.salt))
                })
                .collect()
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let slots: Vec<std::sync::Mutex<Option<_>>> =
                (0..d).map(|_| std::sync::Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..threads.min(d) {
                    scope.spawn(|| loop {
                        // ORDERING: work-queue ticket only; each result
                        // is published through its Mutex slot and the
                        // scope join orders the final reads.
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= d {
                            break;
                        }
                        let r = Self::build_one_partition_with_retries_layout(
                            k,
                            part_m,
                            value_bits,
                            layout,
                            seed,
                            i,
                            0,
                            attempts,
                            &buckets[i],
                        )
                        .map(|c| (c.filter, c.spilled, c.salt));
                        *slots[i].lock().expect("result slot poisoned") = Some(r);
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().expect("result slot poisoned"))
                .map(|r| r.expect("every partition was built"))
                .collect()
        };
        let mut spilled = Vec::new();
        for (i, r) in built.into_iter().enumerate() {
            let (filter, spill, salt) = r?;
            this.install_partition(i, filter, salt);
            spilled.extend(spill);
        }
        Ok((this, spilled))
    }

    /// Number of partitions.
    #[inline]
    pub fn d(&self) -> usize {
        self.parts.len()
    }

    /// Locations per partition.
    #[inline]
    pub fn partition_m(&self) -> usize {
        self.part_m
    }

    /// Total Index Table locations across partitions.
    #[inline]
    pub fn total_m(&self) -> usize {
        self.part_m * self.parts.len()
    }

    /// Total live keys.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Whether no keys are encoded.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// The one-pass digest of `key`, valid for the selector *and* every
    /// partition (they share the digest seed). Compute it once, then use
    /// the `*_digest` methods.
    #[inline]
    pub fn digest(&self, key: u128) -> KeyDigest {
        self.selector.digest(key)
    }

    /// The partition a key belongs to (the paper's hash checksum).
    #[inline]
    pub fn partition_of(&self, key: u128) -> usize {
        self.partition_of_digest(self.digest(key))
    }

    /// [`PartitionedBloomier::partition_of`] from an already-computed
    /// digest.
    #[inline]
    pub fn partition_of_digest(&self, d: KeyDigest) -> usize {
        self.selector.hash_one_digest(0, d, self.parts.len())
    }

    /// The partition-selector hash family (needed to replay lookups from
    /// an exported memory image).
    pub fn selector(&self) -> &HashFamily {
        &self.selector
    }

    /// Read access to one partition's filter (its table words and hash
    /// family fully determine its lookups).
    ///
    /// # Panics
    ///
    /// Panics if `i >= d`.
    pub fn part(&self, i: usize) -> &BloomierFilter {
        &self.parts[i]
    }

    /// Collision-free lookup: one digest of the key selects the partition
    /// and drives its `k` XOR probes.
    #[inline]
    pub fn lookup(&self, key: u128) -> u32 {
        self.lookup_digest(self.digest(key))
    }

    /// [`PartitionedBloomier::lookup`] from an already-computed digest —
    /// the key itself is never re-read.
    #[inline]
    pub fn lookup_digest(&self, d: KeyDigest) -> u32 {
        self.parts[self.partition_of_digest(d)].lookup_digest(d)
    }

    /// Prefetches the key's hash neighborhood in its partition (see
    /// [`BloomierFilter::prefetch`]).
    #[inline]
    pub fn prefetch(&self, key: u128) {
        self.prefetch_digest(self.digest(key));
    }

    /// [`PartitionedBloomier::prefetch`] from an already-computed digest.
    // Forced: the engine's batch kernel otherwise makes a call per key.
    #[inline(always)]
    pub fn prefetch_digest(&self, d: KeyDigest) {
        self.parts[self.partition_of_digest(d)].prefetch_digest(d);
    }

    /// Incremental singleton insert into the key's partition.
    ///
    /// # Errors
    ///
    /// Returns [`BloomierError::NoSingleton`] when the partition must be
    /// re-set-up; use [`PartitionedBloomier::rebuild_partition`] with the
    /// partition's full key list.
    pub fn try_insert(&mut self, key: u128, value: u32) -> Result<(), BloomierError> {
        let p = self.partition_of(key);
        Arc::make_mut(&mut self.parts[p]).try_insert(key, value)
    }

    /// Whether an incremental insert of `key` would succeed.
    pub fn has_singleton(&self, key: u128) -> bool {
        self.parts[self.partition_of(key)].has_singleton(key)
    }

    /// Rebuilds one partition from scratch over `keys` (which must all map
    /// to partition `idx`). Used for the bounded re-setup path. Retries
    /// with salted hash seeds until the spill fits a small spillover set.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-key errors.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a key does not belong to partition `idx`.
    pub fn rebuild_partition(
        &mut self,
        idx: usize,
        keys: &[(u128, u32)],
    ) -> Result<Vec<(u128, u32)>, BloomierError> {
        let candidate = self.build_partition_candidate(idx, keys, 4)?;
        let spilled = candidate.spilled.clone();
        self.install_partition(idx, candidate.filter, candidate.salt);
        Ok(spilled)
    }

    /// Builds a replacement encoding for partition `idx` over `keys`
    /// **without installing it**: the live partition is untouched until
    /// the caller decides the candidate is acceptable (e.g. its spill fits
    /// the spillover TCAM) and passes it to
    /// [`PartitionedBloomier::install_partition`]. This is the
    /// build-then-commit half of the re-setup recovery policy: a rejected
    /// or failed candidate leaves readers on the pre-update encoding.
    ///
    /// Retries up to `attempts` times on an exponential salt schedule
    /// (see [`PartitionedBloomier::build_one_partition_with_retries`]).
    ///
    /// # Errors
    ///
    /// Propagates duplicate-key / sizing errors from the underlying build.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a key does not belong to partition `idx`.
    pub fn build_partition_candidate(
        &self,
        idx: usize,
        keys: &[(u128, u32)],
        attempts: u32,
    ) -> Result<RebuildCandidate, BloomierError> {
        debug_assert!(keys.iter().all(|&(k, _)| self.partition_of(k) == idx));
        Self::build_one_partition_with_retries_layout(
            self.k,
            self.part_m,
            self.value_bits,
            self.layout,
            self.seed,
            idx,
            self.salts[idx],
            attempts,
            keys,
        )
    }

    /// Builds partition `idx` in isolation — the unit of work the parallel
    /// setup pipeline distributes across threads. Retries with salted hash
    /// seeds (up to 4 attempts; the paper notes repeated failures have
    /// probability 1e-14, 1e-21, ... — Section 4.1) and returns the
    /// filter, its spilled keys, and the salt that produced it.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-key / sizing errors from the underlying build.
    pub fn build_one_partition(
        k: usize,
        part_m: usize,
        value_bits: u32,
        seed: u64,
        idx: usize,
        salt_base: u64,
        keys: &[(u128, u32)],
    ) -> Result<PartitionBuild, BloomierError> {
        let c = Self::build_one_partition_with_retries(
            k, part_m, value_bits, seed, idx, salt_base, 4, keys,
        )?;
        Ok((c.filter, c.spilled, c.salt))
    }

    /// [`PartitionedBloomier::build_one_partition`] with an explicit Index
    /// Table layout. `part_m` must already be block-aligned under
    /// [`IndexLayout::Blocked`] (as [`PartitionedBloomier::empty_packed_layout`]
    /// guarantees) or the built filter will not match the partition
    /// geometry at install time.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-key / sizing errors from the underlying build.
    #[allow(clippy::too_many_arguments)]
    pub fn build_one_partition_layout(
        k: usize,
        part_m: usize,
        value_bits: u32,
        layout: IndexLayout,
        seed: u64,
        idx: usize,
        salt_base: u64,
        keys: &[(u128, u32)],
    ) -> Result<PartitionBuild, BloomierError> {
        let c = Self::build_one_partition_with_retries_layout(
            k, part_m, value_bits, layout, seed, idx, salt_base, 4, keys,
        )?;
        Ok((c.filter, c.spilled, c.salt))
    }

    /// [`PartitionedBloomier::build_one_partition`] with an explicit retry
    /// budget and an exponential seed schedule: attempt `i` uses salt
    /// `salt_base + offset(i)` with offsets `0, 1, 2, 4, 8, ...`, so the
    /// first attempt reproduces the installed encoding's salt exactly and
    /// later retries jump to ever more distant seed families. Keeps the
    /// attempt with the fewest spilled keys, stopping early at zero.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-key / sizing errors from the underlying build.
    #[allow(clippy::too_many_arguments)]
    pub fn build_one_partition_with_retries(
        k: usize,
        part_m: usize,
        value_bits: u32,
        seed: u64,
        idx: usize,
        salt_base: u64,
        attempts: u32,
        keys: &[(u128, u32)],
    ) -> Result<RebuildCandidate, BloomierError> {
        Self::build_one_partition_with_retries_layout(
            k,
            part_m,
            value_bits,
            IndexLayout::Flat,
            seed,
            idx,
            salt_base,
            attempts,
            keys,
        )
    }

    /// [`PartitionedBloomier::build_one_partition_with_retries`] with an
    /// explicit Index Table layout. The salted retry schedule matters
    /// more under [`IndexLayout::Blocked`]: confining a key's probes to
    /// one block makes local 2-cores slightly likelier, and a re-salt
    /// re-rolls both the block choice and the in-block slots.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-key / sizing errors from the underlying build.
    #[allow(clippy::too_many_arguments)]
    pub fn build_one_partition_with_retries_layout(
        k: usize,
        part_m: usize,
        value_bits: u32,
        layout: IndexLayout,
        seed: u64,
        idx: usize,
        salt_base: u64,
        attempts: u32,
        keys: &[(u128, u32)],
    ) -> Result<RebuildCandidate, BloomierError> {
        let mut best: Option<RebuildCandidate> = None;
        for attempt in 0..attempts.max(1) {
            let offset = if attempt == 0 {
                0
            } else {
                1u64 << (attempt - 1).min(62)
            };
            let salt = salt_base.wrapping_add(offset);
            let built: Built = BloomierFilter::build_packed_with_family_layout(
                part_family(k, seed, idx, salt),
                part_m,
                value_bits,
                layout,
                keys,
            )?;
            let better = match &best {
                None => true,
                Some(c) => built.spilled.len() < c.spilled.len(),
            };
            if better {
                let done = built.spilled.is_empty();
                best = Some(RebuildCandidate {
                    filter: built.filter,
                    spilled: built.spilled,
                    salt,
                    attempts: attempt + 1,
                });
                if done {
                    break;
                }
            } else if let Some(c) = &mut best {
                c.attempts = attempt + 1;
            }
        }
        Ok(best.expect("at least one attempt ran"))
    }

    /// Installs an externally-built partition filter (from
    /// [`PartitionedBloomier::build_one_partition`]) at index `idx`,
    /// recording the salt its hash seeds were derived with.
    ///
    /// # Panics
    ///
    /// Panics if the filter's geometry disagrees with the partition
    /// layout, or `idx >= d`.
    pub fn install_partition(&mut self, idx: usize, filter: BloomierFilter, salt: u64) {
        assert_eq!(filter.m(), self.part_m, "partition size mismatch");
        assert_eq!(filter.k(), self.k, "hash-count mismatch");
        assert_eq!(filter.value_bits(), self.value_bits, "entry width mismatch");
        assert_eq!(filter.layout(), self.layout, "index layout mismatch");
        assert_eq!(
            filter.family().digest_seed(),
            self.seed,
            "partition digest seed mismatch: one digest must serve every partition"
        );
        self.salts[idx] = salt;
        self.parts[idx] = Arc::new(filter);
    }

    /// Entry width `w` of the Index Table locations in bits.
    #[inline]
    pub fn value_bits(&self) -> u32 {
        self.value_bits
    }

    /// The Index Table layout shared by every partition.
    #[inline]
    pub fn layout(&self) -> IndexLayout {
        self.layout
    }

    /// Master seed the partition hash functions derive from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current salt of partition `idx` (for externally-orchestrated
    /// rebuilds).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= d`.
    pub fn salt(&self, idx: usize) -> u64 {
        self.salts[idx]
    }

    /// Logical Index Table storage in bits: `total_m * value_bits` — the
    /// Section 5 storage-model figure for this filter.
    pub fn logical_bits(&self) -> u64 {
        self.parts.iter().map(|p| p.packed().logical_bits()).sum()
    }

    /// Physical arena storage in bits (whole backing words).
    pub fn arena_bits(&self) -> u64 {
        self.parts.iter().map(|p| p.packed().arena_bits()).sum()
    }
}

fn part_seed(seed: u64, idx: usize, salt: u64) -> u64 {
    seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The hash family of partition `idx` at rebuild salt `salt`: the derived
/// mixers come from the salted per-partition seed, while the digest front
/// end always comes from the master `seed` so every partition (and the
/// selector) accepts one shared digest.
fn part_family(k: usize, seed: u64, idx: usize, salt: u64) -> HashFamily {
    HashFamily::with_shared_digest(k, seed, part_seed(seed, idx, salt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyset(n: usize, salt: u128) -> Vec<(u128, u32)> {
        (0..n)
            .map(|i| ((i as u128).wrapping_mul(0x1234_5679) ^ salt, i as u32))
            .collect()
    }

    #[test]
    fn build_and_lookup_across_partitions() {
        let keys = keyset(4000, 5);
        let (f, spilled) = PartitionedBloomier::build(3, 12_000, 8, 1, &keys).unwrap();
        assert!(spilled.is_empty());
        assert_eq!(f.len(), 4000);
        assert_eq!(f.d(), 8);
        for &(k, v) in &keys {
            assert_eq!(f.lookup(k), v);
        }
    }

    #[test]
    fn threaded_build_is_byte_identical_to_serial() {
        let keys = keyset(4000, 5);
        let (serial, spill_s) =
            PartitionedBloomier::build_with_threads(3, 12_000, 8, 13, 1, &keys, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let (par, spill_p) =
                PartitionedBloomier::build_with_threads(3, 12_000, 8, 13, 1, &keys, threads)
                    .unwrap();
            assert_eq!(
                spill_s, spill_p,
                "spill order diverged at {threads} threads"
            );
            for i in 0..8 {
                assert_eq!(
                    serial.part(i).packed(),
                    par.part(i).packed(),
                    "partition {i} words diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn packed_partitioned_lookup() {
        let keys = keyset(4000, 9);
        // Values < 4096 fit 12 bits.
        let (f, spilled) = PartitionedBloomier::build_packed(3, 12_000, 8, 12, 2, &keys).unwrap();
        assert!(spilled.is_empty());
        assert_eq!(f.value_bits(), 12);
        for &(k, v) in &keys {
            assert_eq!(f.lookup(k), v);
        }
        assert_eq!(f.logical_bits(), f.total_m() as u64 * 12);
        assert!(f.arena_bits() >= f.logical_bits());
        assert!(f.arena_bits() - f.logical_bits() < 64 * f.d() as u64);
    }

    #[test]
    fn blocked_partitioned_build_and_lookup() {
        let keys = keyset(4000, 21);
        let (f, spilled) = PartitionedBloomier::build_with_threads_layout(
            3,
            12_000,
            8,
            12,
            IndexLayout::Blocked,
            1,
            &keys,
            1,
            4,
        )
        .unwrap();
        assert_eq!(f.layout(), IndexLayout::Blocked);
        assert_eq!(f.partition_m() % crate::entries_per_line(12), 0);
        let spilled: std::collections::HashSet<u128> = spilled.iter().map(|&(k, _)| k).collect();
        assert!(
            spilled.len() < 40,
            "excessive blocked spill: {}",
            spilled.len()
        );
        for &(k, v) in &keys {
            if !spilled.contains(&k) {
                assert_eq!(f.lookup(k), v);
            }
        }
        // A blocked rebuild of one partition must install cleanly (the
        // geometry assertions in install_partition are exact equalities).
        let mut f = f;
        let p2: Vec<(u128, u32)> = keys
            .iter()
            .copied()
            .filter(|&(k, _)| f.partition_of(k) == 2)
            .collect();
        f.rebuild_partition(2, &p2).unwrap();
        for &(k, v) in &p2 {
            assert_eq!(f.lookup(k), v);
        }
    }

    #[test]
    fn partition_assignment_is_stable() {
        let f = PartitionedBloomier::empty(3, 3000, 16, 2);
        let g = PartitionedBloomier::empty(3, 3000, 16, 2);
        for key in 0..1000u128 {
            assert_eq!(f.partition_of(key), g.partition_of(key));
        }
    }

    #[test]
    fn insert_goes_to_right_partition() {
        let mut f = PartitionedBloomier::empty(3, 3000, 4, 3);
        for &(k, v) in &keyset(100, 9) {
            f.try_insert(k, v).unwrap();
        }
        assert_eq!(f.len(), 100);
        for &(k, v) in &keyset(100, 9) {
            assert_eq!(f.lookup(k), v);
        }
    }

    #[test]
    fn rebuild_partition_only_touches_that_partition() {
        let keys = keyset(2000, 1);
        let (mut f, _) = PartitionedBloomier::build(3, 6000, 4, 7, &keys).unwrap();
        // Rebuild partition 2 with its keys plus some new ones.
        let mut p2: Vec<(u128, u32)> = keys
            .iter()
            .copied()
            .filter(|&(k, _)| f.partition_of(k) == 2)
            .collect();
        let extra: Vec<(u128, u32)> = keyset(500, 0xFF00_0000)
            .into_iter()
            .filter(|&(k, _)| f.partition_of(k) == 2)
            .collect();
        p2.extend(extra.iter().copied());
        let spilled = f.rebuild_partition(2, &p2).unwrap();
        assert!(spilled.is_empty());
        // Everything (old keys in all partitions, new keys in p2) resolves.
        for &(k, v) in keys.iter().chain(&extra) {
            assert_eq!(f.lookup(k), v, "key {k:#x}");
        }
    }

    #[test]
    fn one_digest_serves_selector_and_partitions() {
        let keys = keyset(2000, 13);
        let (f, _) = PartitionedBloomier::build(3, 6000, 8, 4, &keys).unwrap();
        for &(k, v) in &keys {
            let d = f.digest(k);
            assert_eq!(f.partition_of_digest(d), f.partition_of(k));
            assert_eq!(f.lookup_digest(d), v);
            // The partition's own digest of the key is the shared one.
            assert_eq!(f.part(f.partition_of(k)).digest(k), d);
        }
    }

    #[test]
    fn rebuild_salt_keeps_digest_front_end() {
        // A salted rebuild changes hash placements but not the digest, so
        // digests computed before the rebuild stay valid after it.
        let keys = keyset(2000, 1);
        let (mut f, _) = PartitionedBloomier::build(3, 6000, 4, 7, &keys).unwrap();
        let probe = keys[17].0;
        let before = f.digest(probe);
        let p2: Vec<(u128, u32)> = keys
            .iter()
            .copied()
            .filter(|&(k, _)| f.partition_of(k) == 2)
            .collect();
        f.rebuild_partition(2, &p2).unwrap();
        assert_eq!(f.digest(probe), before);
        for &(k, v) in &keys {
            assert_eq!(f.lookup_digest(f.digest(k)), v);
        }
    }

    #[test]
    fn total_m_covers_requested() {
        let f = PartitionedBloomier::empty(3, 1000, 7, 1);
        assert!(f.total_m() >= 1000);
        assert_eq!(f.partition_m(), 1000usize.div_ceil(7));
    }

    #[test]
    fn empty_is_empty() {
        let f = PartitionedBloomier::empty(3, 100, 2, 1);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }
}
