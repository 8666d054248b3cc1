//! One Chisel sub-cell (Figure 6): a partitioned Bloomier Index Table, a
//! Filter Table for exact false-positive elimination, a Bit-vector Table
//! disambiguating collapsed bits, a Result Table of next hops, and a small
//! spillover store for setup-failure keys.
//!
//! A sub-cell serves all original prefix lengths in `base ..= base+stride`;
//! the engine instantiates one sub-cell per stride-plan cell and searches
//! them in parallel (here: in priority order).

use std::collections::HashMap;

use chisel_bloomier::{BloomierError, IndexLayout, PartitionedBloomier};
use chisel_hash::KeyDigest;
use chisel_prefix::bits::{addr_bits, extract_msb};
use chisel_prefix::collapse::CellRange;
use chisel_prefix::parallel::parallel_map;
use chisel_prefix::NextHop;

use crate::bitvector::LeafVector;
use crate::cow::CowTable;
use crate::engine::LANES;
use crate::faultpoint;
use crate::result_table::{Block, ResultTable};
use crate::shadow::GroupShadow;
use crate::stats::{LookupTrace, RecoveryStats};
use crate::verify::VerifyReport;
use crate::ChiselError;

/// One Filter Table entry: the collapsed key, a valid bit, and the dirty
/// bit used to absorb route flaps (Section 4.4.1).
#[derive(Debug, Clone)]
struct FilterEntry {
    key: u128,
    valid: bool,
    dirty: bool,
}

/// One Bit-vector Table entry: the leaf vector plus its Result Table block.
#[derive(Debug, Clone)]
struct BitVecEntry {
    vector: LeafVector,
    block: Option<Block>,
}

/// A lookup key pre-processed for one sub-cell: the collapsed key, its
/// one-pass hash digest (valid for the cell's selector and every Index
/// Table partition), and the bit-vector leaf index. Computed once per
/// (key, cell) by [`SubCell::prepare`] and threaded through every pipeline
/// stage, so no stage re-collapses or re-hashes the key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PreparedKey {
    collapsed: u128,
    digest: KeyDigest,
    leaf: usize,
}

/// What a lookup walk does after stage 3 of each sub-cell probe: nothing
/// (`()`, which compiles away) or count the probe's table accesses into a
/// [`LookupTrace`]. Crate-private, so these are its only two impls.
pub(crate) trait ProbeCounter {
    fn probe(&mut self, cell: &SubCell, p: &PreparedKey, slot: u32, hop: Option<NextHop>);
}

impl ProbeCounter for () {
    #[inline(always)]
    fn probe(&mut self, _: &SubCell, _: &PreparedKey, _: u32, _: Option<NextHop>) {}
}

impl ProbeCounter for LookupTrace {
    /// Re-asks the TCAM (and the degraded set) where stage 2 resolved the
    /// slot: only a counting walk pays for that.
    #[inline]
    fn probe(&mut self, cell: &SubCell, p: &PreparedKey, slot: u32, hop: Option<NextHop>) {
        // Hardware reads the k index segments in parallel: one access.
        self.index_reads += 1;
        if cell.spill_slot(p.collapsed).is_some() {
            self.spill_hits += 1;
            if cell.degraded.binary_search(&p.collapsed).is_ok() {
                self.degraded_hits += 1;
            }
        } else {
            self.cache_lines_touched += cell.index_probe_lines();
        }
        if (slot as usize) < cell.filter.len() {
            self.filter_reads += 1;
            self.bitvec_reads += 1; // read in parallel with the filter check
            self.cache_lines_touched += 2; // one line each: filter row, bit-vector row
        }
        if hop.is_some() {
            self.result_reads += 1;
            self.cache_lines_touched += 1;
        }
    }
}

/// Geometry and hashing parameters a sub-cell is built with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellParams {
    pub k: usize,
    pub m_per_key: f64,
    pub partitions: usize,
    pub seed: u64,
    pub spill_capacity: usize,
    pub flap_absorption: bool,
    /// Workers for full builds (initial build and grow-rebuilds). Already
    /// resolved by the engine: `>= 1`, never the `0 = auto` sentinel.
    pub build_threads: usize,
    /// Salted setup attempts per partition re-setup before the update
    /// degrades into the spillover TCAM.
    pub resetup_retries: u32,
    /// Whether Index Table partitions use the cache-line-blocked layout
    /// (one 64-byte line per cold lookup instead of `k`).
    pub blocked_index: bool,
}

/// Outcome of a sub-cell announce, refined by the engine into an
/// [`crate::UpdateKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnnounceOutcome {
    /// Cleared a dirty bit (the collapsed key never left the Index Table).
    DirtyRestore,
    /// The exact prefix existed; only its next hop changed.
    NextHopOnly,
    /// New prefix absorbed into an existing collapsed group.
    Collapsed,
    /// New collapsed key inserted via a singleton.
    Singleton,
    /// New collapsed key inserted after its claim forced the
    /// capacity-doubling rebuild of the whole cell.
    Resetup,
}

/// Result of one [`SubCell::announce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchAnnounce {
    /// Whether the step triggered a capacity-doubling full cell rebuild.
    /// A grow re-encodes *every* live group of the cell, so any pending
    /// (deferred) inserts of this cell are resolved by it — the engine
    /// must drop them from its rebuild worklist.
    pub grew: bool,
    /// What happened to this announce.
    pub step: BatchStep,
}

/// How an announce was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchStep {
    /// Fully applied.
    Applied(AnnounceOutcome),
    /// New collapsed key that found no singleton: parked transiently in
    /// the spillover TCAM at this slot, awaiting the batch rebuild phase.
    Pending(u32),
}

/// The gathered inputs of one deferred partition re-setup (batch rebuild
/// unit): produced by [`SubCell::plan_partition_resetup`] on a worker
/// thread, consumed by [`SubCell::commit_partition_resetup`] on the
/// update thread.
#[derive(Debug, Clone)]
pub(crate) struct PartitionResetupPlan {
    /// The Index Table partition being re-encoded.
    pub part: usize,
    /// Live `(collapsed key, slot)` pairs to place, spillover re-offers
    /// and pending batch inserts included.
    pub keys: Vec<(u128, u32)>,
    /// Dirty rows of the partition, purged only if the commit succeeds.
    pub purges: Vec<u32>,
}

/// A Chisel sub-cell.
///
/// The big tables are chunked copy-on-write ([`CowTable`]) and the Index
/// Table partitions sit behind `Arc`s, so cloning a sub-cell is cheap and
/// an update's clone-apply-publish cycle (see [`crate::SharedChisel`])
/// deep-copies only the blocks the update actually writes — the
/// software analogue of the paper's "modified portions … are transferred
/// to the hardware engine" (Section 4.4).
#[derive(Debug, Clone)]
pub(crate) struct SubCell {
    range: CellRange,
    width: u8,
    params: CellParams,
    index: PartitionedBloomier,
    filter: CowTable<FilterEntry>,
    bitvec: CowTable<BitVecEntry>,
    shadows: CowTable<GroupShadow>,
    /// Slots `next_fresh..capacity` have never been claimed; `recycled`
    /// holds purged slots. (An O(1)-clone replacement for a free stack.)
    next_fresh: u32,
    recycled: Vec<u32>,
    result: ResultTable,
    /// Spillover TCAM: (collapsed key, slot) pairs, searched before the
    /// Index Table.
    spill: Vec<(u128, u32)>,
    /// Collapsed keys parked in the spillover TCAM because their partition
    /// re-setup exhausted its retry budget (degraded mode). Sorted; always
    /// a subset of `spill`'s keys.
    degraded: Vec<u128>,
    live_groups: usize,
    resetups: u64,
    /// Re-setup retry / degradation / rollback counters.
    recovery: RecoveryStats,
}

impl SubCell {
    /// Builds a sub-cell over pre-grouped collapsed prefixes.
    ///
    /// `capacity` is the Filter/Bit-vector Table depth to provision. The
    /// paper sizes deterministically for the *original prefix* count
    /// (Section 4.3.2), which keeps the Index Table load low and makes
    /// incremental singleton inserts nearly always succeed.
    pub fn build(
        range: CellRange,
        width: u8,
        params: CellParams,
        mut groups: Vec<(u128, GroupShadow)>,
        capacity: usize,
    ) -> Result<Self, ChiselError> {
        let capacity = capacity.max(groups.len()).max(64);
        // Collapsed keys are unique, so sorting gives a total order: slot
        // `i` always holds the i-th smallest key, regardless of the order
        // the caller grouped in (HashMap drain, parallel merge, ...). This
        // is what makes the whole build byte-reproducible.
        groups.sort_unstable_by_key(|&(bits, _)| bits);
        let mut cell = SubCell {
            range,
            width,
            params,
            // Index Table entries are slot pointers: w = ceil(log2(depth))
            // bits each (the Section 5 storage model), bit-packed.
            index: PartitionedBloomier::empty_packed_layout(
                params.k,
                ((capacity as f64) * params.m_per_key).ceil() as usize,
                params.partitions,
                addr_bits(capacity),
                if params.blocked_index {
                    IndexLayout::Blocked
                } else {
                    IndexLayout::Flat
                },
                cell_seed(params.seed, range.base),
            ),
            filter: CowTable::from_fn(capacity, |_| FilterEntry {
                key: 0,
                valid: false,
                dirty: false,
            }),
            bitvec: CowTable::from_fn(capacity, |_| BitVecEntry {
                vector: LeafVector::new(range.stride),
                block: None,
            }),
            shadows: CowTable::from_fn(capacity, |_| GroupShadow::new()),
            next_fresh: 0,
            recycled: Vec::new(),
            result: ResultTable::new(),
            spill: Vec::new(),
            degraded: Vec::new(),
            live_groups: 0,
            resetups: 0,
            recovery: RecoveryStats::default(),
        };
        cell.install_groups(groups)?;
        Ok(cell)
    }

    /// Installs groups into a freshly-initialized cell: claims slots,
    /// writes filter/bit-vector/result state, and runs Bloomier setup over
    /// all keys at once.
    ///
    /// The fill and setup phases fan out over `params.build_threads`
    /// workers, but every ordering that matters — slot claims, Result
    /// Table block allocation, partition assembly, spill concatenation —
    /// is fixed in advance, so the cell is byte-identical to a serial
    /// build.
    fn install_groups(&mut self, groups: Vec<(u128, GroupShadow)>) -> Result<(), ChiselError> {
        let threads = self.params.build_threads.max(1);
        // Phase 1 (sequential, cheap): claim slots and write the Filter
        // Table and shadows. Slot order is the determinism anchor.
        let mut keys = Vec::with_capacity(groups.len());
        for (bits, shadow) in groups {
            let slot = self.claim_slot().ok_or(ChiselError::CapacityExceeded {
                cell_base: self.range.base,
            })?;
            *self.filter.get_mut(slot as usize).expect("claimed slot") = FilterEntry {
                key: bits,
                valid: true,
                dirty: false,
            };
            *self.shadows.get_mut(slot as usize).expect("claimed slot") = shadow;
            self.live_groups += 1;
            keys.push((bits, slot));
        }
        // Phase 2: resolve each group's per-leaf next hops in parallel
        // (the LPM-per-leaf scan dominates fill cost), then assemble
        // bit-vectors and Result Table blocks sequentially in slot order
        // so block addresses never depend on scheduling.
        let stride = self.range.stride;
        let fills = {
            let shadows = &self.shadows;
            parallel_map(threads, &keys, |_, &(_, slot)| {
                leaf_hops(&shadows[slot as usize], stride)
            })
        };
        for (&(_, slot), hops) in keys.iter().zip(fills) {
            self.apply_fill(slot, hops);
        }
        // Phase 3: the d independent Bloomier partition setups run
        // concurrently (Section 4.4.2); partitions are installed and
        // spills concatenated in partition order.
        let (index, spilled) = PartitionedBloomier::build_with_threads_layout(
            self.params.k,
            self.index.total_m(),
            self.index.d(),
            self.index.value_bits(),
            self.index.layout(),
            self.index.seed(),
            &keys,
            threads,
            self.params.resetup_retries.max(1),
        )?;
        self.index = index;
        self.spill = spilled;
        self.sort_spill();
        if self.spill.len() > self.params.spill_capacity {
            return Err(ChiselError::SpilloverOverflow {
                needed: self.spill.len(),
                capacity: self.params.spill_capacity,
            });
        }
        Ok(())
    }

    /// Claims a free slot: recycled slots first, then never-used ones.
    fn claim_slot(&mut self) -> Option<u32> {
        if let Some(s) = self.recycled.pop() {
            return Some(s);
        }
        if (self.next_fresh as usize) < self.capacity() {
            let s = self.next_fresh;
            self.next_fresh += 1;
            Some(s)
        } else {
            None
        }
    }

    /// Whether no free slot remains.
    fn slots_exhausted(&self) -> bool {
        self.recycled.is_empty() && self.next_fresh as usize >= self.capacity()
    }

    /// The cell's length range.
    pub fn range(&self) -> CellRange {
        self.range
    }

    /// Number of live (non-dirty) collapsed groups.
    pub fn groups(&self) -> usize {
        self.live_groups
    }

    /// Filter/Bit-vector Table depth the cell is provisioned for.
    pub fn capacity(&self) -> usize {
        self.filter.len()
    }

    /// Index Table locations (across all partitions).
    pub fn index_locations(&self) -> usize {
        self.index.total_m()
    }

    /// Width `w` of one packed Index Table entry in bits.
    pub fn index_value_bits(&self) -> u32 {
        self.index.value_bits()
    }

    /// Logical Index Table storage: `total_m * w` bits — the Section 5
    /// storage-model figure, now measured off the real packed arena.
    pub fn index_logical_bits(&self) -> u64 {
        self.index.logical_bits()
    }

    /// Physical Index Table arena storage (whole 64-bit backing words).
    pub fn index_arena_bits(&self) -> u64 {
        self.index.arena_bits()
    }

    /// Spillover TCAM occupancy.
    pub fn spill_len(&self) -> usize {
        self.spill.len()
    }

    /// Keys currently parked in the spillover TCAM by failed re-setups.
    pub fn degraded_len(&self) -> usize {
        self.degraded.len()
    }

    /// Re-setup recovery counters for this cell.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Number of partition re-setups this cell has performed.
    pub fn resetups(&self) -> u64 {
        self.resetups
    }

    /// Result Table (off-chip) high-water mark in entries.
    pub fn result_high_water(&self) -> usize {
        self.result.high_water()
    }

    /// The collapsed key of a full-width lookup value for this cell.
    #[inline]
    fn collapse_key(&self, key_value: u128) -> u128 {
        extract_msb(key_value, self.width, 0, self.range.base)
    }

    /// The bit-vector leaf index of a full-width lookup value.
    #[inline]
    fn leaf_of(&self, key_value: u128) -> usize {
        extract_msb(key_value, self.width, self.range.base, self.range.stride) as usize
    }

    /// Whether the cell holds no live groups. Only `valid && !dirty` rows
    /// can produce a match, so an empty cell answers every lookup with
    /// `None` — the engine branches past it without touching its tables.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_groups == 0
    }

    /// Searches the spillover TCAM for a collapsed key. The spill vector
    /// is kept sorted by key (every rebuild re-sorts it), so the common
    /// empty case is one branch and the rest is a binary search — never a
    /// linear scan on the hot path.
    #[inline]
    fn spill_slot(&self, collapsed: u128) -> Option<u32> {
        if self.spill.is_empty() {
            return None;
        }
        self.spill
            .binary_search_by_key(&collapsed, |&(k, _)| k)
            .ok()
            .map(|i| self.spill[i].1)
    }

    /// Restores the sorted-by-key invariant [`SubCell::spill_slot`] relies
    /// on after a rebuild appended spilled keys.
    fn sort_spill(&mut self) {
        self.spill.sort_unstable_by_key(|&(k, _)| k);
    }

    /// Finds the slot bound to a collapsed key: spillover TCAM first, then
    /// the Index Table, validated against the Filter Table. Returns the
    /// slot even for dirty entries (callers distinguish).
    fn slot_of(&self, collapsed: u128) -> Option<u32> {
        if let Some(slot) = self.spill_slot(collapsed) {
            return Some(slot);
        }
        let p = self.index.lookup(collapsed);
        let entry = self.filter.get(p as usize)?;
        (entry.valid && entry.key == collapsed).then_some(p)
    }

    /// Pre-processes a full-width lookup value for this cell: collapse,
    /// one-pass hash digest, leaf index. The digest is shared by the
    /// partition selector and all `k` Index Table probes, so this is the
    /// only time the key is hashed for this cell.
    #[inline]
    pub fn prepare(&self, key_value: u128) -> PreparedKey {
        let collapsed = self.collapse_key(key_value);
        PreparedKey {
            collapsed,
            digest: self.index.digest(collapsed),
            leaf: self.leaf_of(key_value),
        }
    }

    /// Modeled cold-cache lines one Index Table probe costs: one 64-byte
    /// line under the blocked layout (all `k` probes share it), `k` lines
    /// under the flat layout (each probe may land on a distinct line) —
    /// the quantity the DESIGN.md §11 access budget is written against.
    #[inline]
    fn index_probe_lines(&self) -> u64 {
        match self.index.layout() {
            IndexLayout::Blocked => 1,
            IndexLayout::Flat => self.params.k as u64,
        }
    }

    /// Stage 1 of the pipelined batch lookup: prefetch the Index Table
    /// locations of this key's hash neighborhood.
    #[inline]
    pub fn prefetch_index(&self, p: &PreparedKey) {
        self.index.prefetch_digest(p.digest);
    }

    /// Stage 2 of the pipelined batch lookup: resolve the candidate slot
    /// (spillover TCAM first, then the Index Table) without validating
    /// it. For keys outside the encoded set the slot is an arbitrary
    /// value that [`SubCell::lookup_at`] rejects.
    #[inline]
    pub fn probe_slot(&self, p: &PreparedKey) -> u32 {
        if let Some(s) = self.spill_slot(p.collapsed) {
            s
        } else {
            self.index.lookup_digest(p.digest)
        }
    }

    /// Lane-granular stage 2 of the batch pipeline: resolves candidate
    /// slots for a whole group of prepared keys at once. The Index Table
    /// probes go through the partition-bucketed SIMD batch kernel
    /// ([`PartitionedBloomier::lookup_digest_batch`]); spillover-TCAM hits
    /// then override their lanes, preserving the TCAM-before-Index search
    /// order of [`SubCell::probe_slot`] exactly. At most one lane of keys.
    pub fn probe_slots(&self, prepared: &[PreparedKey], slots: &mut [u32]) {
        debug_assert_eq!(prepared.len(), slots.len());
        let mut digests = [KeyDigest::default(); LANES];
        for (d, p) in digests.iter_mut().zip(prepared) {
            *d = p.digest;
        }
        self.index
            .lookup_digest_batch(&digests[..prepared.len()], slots);
        if !self.spill.is_empty() {
            for (s, p) in slots.iter_mut().zip(prepared) {
                if let Some(sp) = self.spill_slot(p.collapsed) {
                    *s = sp;
                }
            }
        }
    }

    /// Prefetches the Filter and Bit-vector Table rows of a candidate
    /// slot (no-op for out-of-range slots from unencoded keys).
    #[inline]
    pub fn prefetch_row(&self, slot: u32) {
        let si = slot as usize;
        if si < self.filter.len() {
            chisel_bloomier::prefetch_read(&self.filter[si]);
            chisel_bloomier::prefetch_read(&self.bitvec[si]);
        }
    }

    /// Stage 3 of every lookup walk: validate an already-resolved
    /// candidate slot against the Filter Table and read the next hop
    /// through the Bit-vector and Result Tables.
    // Forced: with two callers, plain `#[inline]` leaves a call per probe.
    #[inline(always)]
    pub fn lookup_at(&self, slot: u32, p: &PreparedKey) -> Option<NextHop> {
        let entry = self.filter.get(slot as usize)?;
        if !entry.valid || entry.dirty || entry.key != p.collapsed {
            return None; // no match or false positive filtered out
        }
        let bv = &self.bitvec[slot as usize];
        if !bv.vector.get(p.leaf) {
            return None;
        }
        let rank = bv.vector.rank(p.leaf);
        debug_assert!(bv.block.is_some(), "set leaf implies allocated block");
        let block = bv.block?;
        Some(self.result.read(block, rank - 1))
    }

    /// Rebuilds slot's bit-vector and Result Table block from its shadow.
    fn regenerate(&mut self, slot: u32) {
        let hops = leaf_hops(&self.shadows[slot as usize], self.range.stride);
        self.apply_fill(slot, hops);
    }

    /// Writes a precomputed per-leaf fill (from [`leaf_hops`]) into slot's
    /// bit-vector and Result Table block. Result Table allocation order —
    /// hence every block address — follows call order exactly.
    fn apply_fill(&mut self, slot: u32, hops: Vec<Option<NextHop>>) {
        let si = slot as usize;
        let ones = hops.iter().filter(|h| h.is_some()).count();

        let entry = self.bitvec.get_mut(si).expect("slot in range");
        entry.vector.clear();
        // Keep the old block if it still fits; else swap.
        let need_new = match entry.block {
            Some(b) => b.capacity() < ones,
            None => ones > 0,
        };
        if need_new || ones == 0 {
            if let Some(old) = entry.block.take() {
                self.result.release(old);
            }
        }
        if ones == 0 {
            return;
        }
        if need_new {
            let block = self.result.alloc(ones);
            self.bitvec.get_mut(si).expect("slot in range").block = Some(block);
        }
        let block = self.bitvec[si].block.expect("allocated above");
        let mut off = 0usize;
        let entry = self.bitvec.get_mut(si).expect("slot in range");
        for (leaf, hop) in hops.iter().enumerate() {
            if hop.is_some() {
                entry.vector.set(leaf, true);
            }
        }
        for hop in hops.into_iter().flatten() {
            self.result.write(block, off, hop);
            off += 1;
        }
    }

    /// The existing-collapsed-key half of an announce: clears a dirty bit
    /// if set, inserts/overwrites the prefix in the group shadow and
    /// regenerates the row.
    fn announce_existing(
        &mut self,
        slot: u32,
        depth: u8,
        suffix: u128,
        next_hop: NextHop,
    ) -> AnnounceOutcome {
        let si = slot as usize;
        let was_dirty = self.filter[si].dirty;
        if was_dirty {
            self.filter.get_mut(si).expect("resolved slot").dirty = false;
            self.shadows.get_mut(si).expect("resolved slot").clear();
            self.live_groups += 1;
        }
        let existed = self
            .shadows
            .get_mut(si)
            .expect("resolved slot")
            .insert(depth, suffix, next_hop)
            .is_some();
        self.regenerate(slot);
        self.debug_assert_slot(slot);
        if was_dirty {
            AnnounceOutcome::DirtyRestore
        } else if existed {
            AnnounceOutcome::NextHopOnly
        } else {
            AnnounceOutcome::Collapsed
        }
    }

    /// Stages a brand-new collapsed group: claims a slot (growing the cell
    /// if exhausted), writes the Filter row and shadow, regenerates the
    /// row. Returns `(slot, grew)`. The key has *no* Index Table encoding
    /// yet — the caller must obtain one (or roll back via
    /// [`SubCell::rollback_new_group`]).
    fn stage_new_group(
        &mut self,
        collapsed: u128,
        depth: u8,
        suffix: u128,
        next_hop: NextHop,
    ) -> Result<(u32, bool), ChiselError> {
        let grew = if self.slots_exhausted() {
            self.grow()?;
            true
        } else {
            false
        };
        let slot = self.claim_slot().ok_or(ChiselError::CapacityExceeded {
            cell_base: self.range.base,
        })?;
        let si = slot as usize;
        *self.filter.get_mut(si).expect("claimed slot") = FilterEntry {
            key: collapsed,
            valid: true,
            dirty: false,
        };
        let shadow = self.shadows.get_mut(si).expect("claimed slot");
        shadow.clear();
        shadow.insert(depth, suffix, next_hop);
        self.regenerate(slot);
        self.live_groups += 1;
        Ok((slot, grew))
    }

    /// Attempts the incremental singleton insert for a staged new key.
    /// NO_SINGLETON forces the re-setup path even when the encoding would
    /// have accepted it.
    fn try_insert_new(&mut self, collapsed: u128, slot: u32) -> Result<(), BloomierError> {
        if faultpoint::fire(faultpoint::NO_SINGLETON) {
            Err(BloomierError::NoSingleton { key: collapsed })
        } else {
            self.index.try_insert(collapsed, slot)
        }
    }

    /// Applies an announce for an original prefix of `depth` extra bits
    /// and collapsed key `collapsed`. A new key that finds no singleton
    /// does *not* re-set up its partition here: it is parked transiently
    /// in the spillover TCAM (searched before the Index Table), which
    /// keeps the whole cell consistent — lookups, later ops of the window
    /// and the verifier all resolve the key through the TCAM — and the
    /// engine's rebuild phase re-sets up the partition, one unit per
    /// touched (cell, partition).
    pub(crate) fn announce(
        &mut self,
        collapsed: u128,
        depth: u8,
        suffix: u128,
        next_hop: NextHop,
    ) -> Result<BatchAnnounce, ChiselError> {
        if let Some(slot) = self.slot_of(collapsed) {
            return Ok(BatchAnnounce {
                grew: false,
                step: BatchStep::Applied(self.announce_existing(slot, depth, suffix, next_hop)),
            });
        }
        let (slot, grew) = self.stage_new_group(collapsed, depth, suffix, next_hop)?;
        match self.try_insert_new(collapsed, slot) {
            Ok(()) => {
                self.debug_assert_slot(slot);
                Ok(BatchAnnounce {
                    grew,
                    step: BatchStep::Applied(if grew {
                        AnnounceOutcome::Resetup
                    } else {
                        AnnounceOutcome::Singleton
                    }),
                })
            }
            Err(BloomierError::NoSingleton { .. }) => {
                // Transient TCAM park; may exceed the spill budget until
                // the batch commit, which either encodes the key (rebuild)
                // or enforces the budget (degraded park / rollback).
                self.spill.push((collapsed, slot));
                self.sort_spill();
                self.debug_assert_slot(slot);
                Ok(BatchAnnounce {
                    grew,
                    step: BatchStep::Pending(slot),
                })
            }
            Err(e) => {
                self.rollback_new_group(collapsed, slot);
                Err(e.into())
            }
        }
    }

    /// Index Table partition a collapsed key routes to. Stable across
    /// re-setups and installs — the selector hash is fixed at build time —
    /// so batch rebuild units keyed on it stay disjoint no matter the
    /// commit order.
    pub(crate) fn partition_of(&self, collapsed: u128) -> usize {
        self.index.partition_of(collapsed)
    }

    /// Phase 1 of a partition re-setup (Section 4.4.2): a pure gather on
    /// `&self`, so rebuild units can run it (and the candidate build) from
    /// worker threads. Collects the partition's live keys — spillover
    /// entries of the partition (pending inserts included) are re-offered
    /// for placement — and only *schedules* its dirty rows for purging:
    /// destroying them before the rebuild is known to succeed would tear
    /// the cell on the failure path.
    pub(crate) fn plan_partition_resetup(&self, part: usize) -> PartitionResetupPlan {
        let mut keys: Vec<(u128, u32)> = Vec::new();
        let mut purges: Vec<u32> = Vec::new();
        for slot in 0..self.filter.len() as u32 {
            let e = &self.filter[slot as usize];
            if !e.valid {
                continue;
            }
            if self.index.partition_of(e.key) != part {
                continue;
            }
            if self.spill_slot(e.key).is_some() {
                continue; // re-offered from the spill loop below
            }
            if e.dirty {
                purges.push(slot);
            } else {
                keys.push((e.key, slot));
            }
        }
        for &(k, s) in &self.spill {
            if self.index.partition_of(k) == part {
                if self.filter[s as usize].dirty {
                    purges.push(s);
                } else {
                    keys.push((k, s));
                }
            }
        }
        PartitionResetupPlan { part, keys, purges }
    }

    /// Phase 2 of a deferred partition re-setup: builds a candidate
    /// encoding over the gathered keys with the bounded salted retry
    /// schedule, mutating nothing. Safe to call concurrently for distinct
    /// units — all units of a batch plan and build against the same
    /// pre-commit cell state.
    pub(crate) fn build_resetup_candidate(
        &self,
        plan: &PartitionResetupPlan,
    ) -> Result<chisel_bloomier::RebuildCandidate, ChiselError> {
        let attempts = self.params.resetup_retries.max(1);
        Ok(self
            .index
            .build_partition_candidate(plan.part, &plan.keys, attempts)?)
    }

    /// Phase 3 of a partition re-setup: commit or degrade, run
    /// sequentially in unit order by the engine. The candidate commits
    /// only if its spill fits the spillover TCAM. Otherwise the partition
    /// keeps its encoding, and the unit's pending keys (already parked in
    /// the TCAM by [`SubCell::announce`]) become formal degraded parks —
    /// as many as the spill budget allows, in op order — and the rest are
    /// rolled back. `candidate` is `None` when the retry schedule failed
    /// (the SETUP_FAIL draw, taken sequentially by the engine).
    ///
    /// Returns `(committed, parked)`: whether the partition was
    /// re-encoded, and — if not — how many of the unit's pending keys
    /// were parked (a prefix of `pending`; the remainder were rolled
    /// back and must be reported as rejected).
    pub(crate) fn commit_partition_resetup(
        &mut self,
        plan: &PartitionResetupPlan,
        candidate: Option<chisel_bloomier::RebuildCandidate>,
        pending: &[(u128, u32)],
    ) -> (bool, usize) {
        self.resetups += 1;
        let part = plan.part;
        match &candidate {
            Some(c) => {
                self.recovery.resetup_attempts += c.attempts as u64;
                self.recovery.resetup_retries += c.attempts.saturating_sub(1) as u64;
            }
            None => {
                let attempts = self.params.resetup_retries.max(1);
                self.recovery.resetup_attempts += attempts as u64;
                self.recovery.resetup_retries += (attempts - 1) as u64;
            }
        }
        // Spill entries of *other* partitions survive any outcome. Counted
        // at commit time, not gather time: earlier units of the same cell
        // may have rewritten the spill since the parallel gather ran.
        // (Pending keys of not-yet-committed sibling units count against
        // the budget here — conservative, never unsound.)
        let kept = self
            .spill
            .iter()
            .filter(|&&(k, _)| self.index.partition_of(k) != part)
            .count();
        let acceptable = candidate.as_ref().is_some_and(|c| {
            kept + c.spilled.len() <= self.params.spill_capacity
                && !faultpoint::fire(faultpoint::SPILL_OVERFLOW)
        });
        if let (true, Some(c)) = (acceptable, candidate) {
            for &s in &plan.purges {
                self.purge_slot(s);
            }
            self.index.install_partition(part, c.filter, c.salt);
            {
                let index = &self.index;
                self.spill.retain(|&(k, _)| index.partition_of(k) != part);
            }
            self.spill.extend(c.spilled);
            self.sort_spill();
            // Every previously-degraded key of this partition was handed
            // to the rebuild, so its park is reclaimed (it now has a
            // healthy encoding, or is a regular spill).
            if !self.degraded.is_empty() {
                let before = self.degraded.len();
                let index = &self.index;
                self.degraded.retain(|&k| index.partition_of(k) != part);
                self.recovery.degraded_reclaims += (before - self.degraded.len()) as u64;
            }
            for &(_, slot) in pending {
                self.debug_assert_slot(slot);
            }
            return (true, pending.len());
        }
        // Degraded path: the partition keeps its pre-batch encoding and
        // only the unit's pending keys are parked — as many as the TCAM
        // budget allows (they already sit in the spill; `base` is the
        // occupancy everything else accounts for).
        self.recovery.resetup_failures += 1;
        let base = self.spill.len().saturating_sub(pending.len());
        let allowed = self
            .params
            .spill_capacity
            .saturating_sub(base)
            .min(pending.len());
        for (i, &(key, slot)) in pending.iter().enumerate() {
            if i < allowed {
                if let Err(at) = self.degraded.binary_search(&key) {
                    self.degraded.insert(at, key);
                }
                self.recovery.degraded_parks += 1;
                self.debug_assert_slot(slot);
            } else {
                self.rollback_new_group(key, slot);
            }
        }
        (false, allowed)
    }

    /// Undoes the group state [`SubCell::announce`] writes for a new
    /// collapsed key, restoring the cell to its pre-announce answers. Only
    /// valid for a slot whose key never obtained an Index Table encoding.
    fn rollback_new_group(&mut self, collapsed: u128, slot: u32) {
        let si = slot as usize;
        if let Some(f) = self.filter.get_mut(si) {
            f.valid = false;
            f.dirty = false;
        }
        if let Some(s) = self.shadows.get_mut(si) {
            s.clear();
        }
        if let Some(entry) = self.bitvec.get_mut(si) {
            entry.vector.clear();
            if let Some(block) = entry.block.take() {
                self.result.release(block);
            }
        }
        self.spill.retain(|&(k, _)| k != collapsed);
        if let Ok(i) = self.degraded.binary_search(&collapsed) {
            self.degraded.remove(i);
        }
        self.recycled.push(slot);
        self.live_groups -= 1;
        self.recovery.rollbacks += 1;
    }

    /// Applies a withdraw. Returns `true` when the prefix existed.
    pub fn withdraw(&mut self, collapsed: u128, depth: u8, suffix: u128) -> bool {
        let Some(slot) = self.slot_of(collapsed) else {
            return false;
        };
        let si = slot as usize;
        if self.filter[si].dirty {
            return false;
        }
        if self
            .shadows
            .get_mut(si)
            .expect("resolved slot")
            .remove(depth, suffix)
            .is_none()
        {
            return false;
        }
        if self.shadows[si].is_empty() {
            let spilled = self.spill_slot(collapsed).is_some();
            if self.params.flap_absorption && !spilled {
                // All expanded prefixes deleted: mark dirty and retain the
                // key in the Index Table until the next re-setup
                // (Section 4.4.1).
                self.filter.get_mut(si).expect("resolved slot").dirty = true;
            } else {
                // Drop the entry outright — in ablation mode always, and
                // for *spillover* keys even with flap absorption on. The
                // stale Index Table encoding of a dropped key is harmless
                // (the Filter Table rejects it), but a retained spillover
                // entry is not: it pins scarce TCAM capacity for a key
                // with no partition encoding behind it (a key parked by a
                // failed re-setup may never be reclaimed by a later
                // rebuild), and the TCAM is searched before the Index
                // Table, so it would shadow a fresh re-announce of the
                // same key. Drop row, spill entry and degraded park
                // together, reclaiming the capacity immediately.
                self.filter.get_mut(si).expect("resolved slot").valid = false;
                self.spill.retain(|&(k, _)| k != collapsed);
                if let Ok(i) = self.degraded.binary_search(&collapsed) {
                    self.degraded.remove(i);
                    self.recovery.degraded_reclaims += 1;
                }
                self.recycled.push(slot);
            }
            self.live_groups -= 1;
            let entry = self.bitvec.get_mut(si).expect("resolved slot");
            entry.vector.clear();
            if let Some(block) = entry.block.take() {
                self.result.release(block);
            }
        } else {
            self.regenerate(slot);
        }
        self.debug_assert_slot(slot);
        true
    }

    /// Frees a dirty slot entirely (purge at re-setup time).
    fn purge_slot(&mut self, slot: u32) {
        let si = slot as usize;
        debug_assert!(self.filter[si].dirty);
        let f = self.filter.get_mut(si).expect("slot in range");
        f.valid = false;
        f.dirty = false;
        self.shadows.get_mut(si).expect("slot in range").clear();
        let entry = self.bitvec.get_mut(si).expect("slot in range");
        entry.vector.clear();
        if let Some(block) = entry.block.take() {
            self.result.release(block);
        }
        self.recycled.push(slot);
    }

    /// Doubles capacity by rebuilding the whole cell (a full — but still
    /// cell-local — re-setup). Dirty entries are purged in passing.
    fn grow(&mut self) -> Result<(), ChiselError> {
        // ALLOC_PRESSURE models the doubled-arena allocation failing —
        // before any state is touched, so the announce aborts cleanly.
        if faultpoint::fire(faultpoint::ALLOC_PRESSURE) {
            return Err(ChiselError::FaultInjected {
                site: faultpoint::ALLOC_PRESSURE,
            });
        }
        self.resetups += 1;
        let groups: Vec<(u128, GroupShadow)> = self
            .filter
            .iter()
            .zip(self.shadows.iter())
            .filter(|(e, _)| e.valid && !e.dirty)
            .map(|(e, s)| (e.key, s.clone()))
            .collect();
        let new_capacity = (self.capacity() * 2).max(64);
        let rebuilt = SubCell::build(self.range, self.width, self.params, groups, new_capacity)?;
        // The full rebuild runs setup over every live key, so previously
        // parked (degraded) keys come out with healthy encodings — or as
        // regular setup-time spills — either way their parks are gone.
        let mut recovery = self.recovery;
        recovery.degraded_reclaims += self.degraded.len() as u64;
        *self = SubCell {
            resetups: self.resetups,
            recovery,
            ..rebuilt
        };
        Ok(())
    }

    /// Exports the cell's memories as a hardware image (see
    /// [`crate::HardwareImage`]).
    pub fn export_image(&self) -> crate::image::CellImage {
        crate::image::CellImage {
            base: self.range.base,
            stride: self.range.stride,
            selector: self.index.selector().clone(),
            index_parts: (0..self.index.d())
                .map(|i| {
                    let part = self.index.part(i);
                    crate::image::IndexPartImage {
                        words: part.packed().clone(),
                        family: part.family().clone(),
                    }
                })
                .collect(),
            filter: self
                .filter
                .iter()
                .map(|e| crate::image::FilterWord {
                    key: e.key,
                    valid: e.valid,
                    dirty: e.dirty,
                })
                .collect(),
            bitvec: self
                .bitvec
                .iter()
                .map(|e| crate::image::BitVectorWord {
                    vector: e.vector.clone(),
                    pointer: e.block.map(|b| b.ptr),
                })
                .collect(),
            result: self.result.words(),
            spill: self.spill.clone(),
        }
    }

    /// Enumerates `(collapsed_key, depth, suffix, next_hop)` of every live
    /// original prefix — used by verification and serialization.
    pub fn iter_routes(&self) -> impl Iterator<Item = (u128, u8, u128, NextHop)> + '_ {
        self.filter
            .iter()
            .zip(self.shadows.iter())
            .filter(|(e, _)| e.valid && !e.dirty)
            .flat_map(|(e, s)| s.iter().map(move |(d, suf, nh)| (e.key, d, suf, nh)))
    }

    /// Re-walks the whole cell against the invariants of
    /// [`crate::verify`]: collision-free key→slot bindings, pointer
    /// ranges and packing width, per-leaf rank/Result-Table consistency,
    /// drained dirty rows, and slot/spill accounting.
    pub(crate) fn verify(&self, cell: usize, report: &mut VerifyReport) {
        let cv = Some(cell);
        let n = self.capacity();
        if self.index.value_bits() != addr_bits(n) {
            report.push(
                cv,
                None,
                "index-entry-width",
                format!(
                    "index packs {} bits/entry, expected ceil(log2 {n}) = {}",
                    self.index.value_bits(),
                    addr_bits(n)
                ),
            );
        }
        let mut keys: HashMap<u128, u32> = HashMap::new();
        let mut valid_rows = 0usize;
        let mut live_rows = 0usize;
        // (ptr, capacity, slot) of every live Result Table block, for the
        // overlap check.
        let mut blocks: Vec<(u32, usize, u32)> = Vec::new();
        for slot in 0..n as u32 {
            let f = &self.filter[slot as usize];
            if f.valid {
                valid_rows += 1;
                if let Some(prev) = keys.insert(f.key, slot) {
                    report.push(
                        cv,
                        Some(slot),
                        "duplicate-key",
                        format!("key {:#x} also stored at slot {prev} (collision)", f.key),
                    );
                }
                if !f.dirty {
                    live_rows += 1;
                }
            }
            if let Some(b) = self.bitvec[slot as usize].block {
                blocks.push((b.ptr, b.capacity(), slot));
            }
            self.verify_slot(cell, slot, report);
        }
        if live_rows != self.live_groups {
            report.push(
                cv,
                None,
                "live-group-count",
                format!(
                    "live_groups counter {} but {live_rows} live rows",
                    self.live_groups
                ),
            );
        }
        // Every non-valid row must be reachable by `claim_slot`: either
        // never claimed (>= next_fresh) or on the recycled list.
        let free_expected = self.recycled.len() + (n - (self.next_fresh as usize).min(n));
        if n - valid_rows != free_expected {
            report.push(
                cv,
                None,
                "slot-accounting",
                format!(
                    "{} free rows but {} recycled + {} fresh",
                    n - valid_rows,
                    self.recycled.len(),
                    n - (self.next_fresh as usize).min(n)
                ),
            );
        }
        for &s in &self.recycled {
            if s as usize >= n || self.filter[s as usize].valid || s >= self.next_fresh {
                report.push(
                    cv,
                    Some(s),
                    "recycled-slot",
                    "recycled slot is live or was never claimed".into(),
                );
            }
        }
        let mut spill_keys: HashMap<u128, u32> = HashMap::new();
        for &(k, s) in &self.spill {
            if let Some(prev) = spill_keys.insert(k, s) {
                report.push(
                    cv,
                    Some(s),
                    "duplicate-spill-key",
                    format!("key {k:#x} also spilled to slot {prev}"),
                );
            }
            if s as usize >= n {
                report.push(
                    cv,
                    Some(s),
                    "spill-slot-range",
                    format!("spill slot {s} outside filter depth {n}"),
                );
            } else {
                let f = &self.filter[s as usize];
                if !f.valid || f.key != k {
                    report.push(
                        cv,
                        Some(s),
                        "spill-binding",
                        format!("spilled key {k:#x} not stored at its slot"),
                    );
                }
            }
        }
        if self.spill.len() > self.params.spill_capacity {
            report.push(
                cv,
                None,
                "spill-capacity",
                format!(
                    "spillover TCAM holds {} entries, capacity {}",
                    self.spill.len(),
                    self.params.spill_capacity
                ),
            );
        }
        // Degraded parks are spill entries by construction: a parked key
        // with no TCAM entry would be unreachable (its partition has no
        // encoding for it), i.e. a silently-dropped route.
        if !self.degraded.windows(2).all(|w| w[0] < w[1]) {
            report.push(
                cv,
                None,
                "degraded-order",
                "degraded key list is not sorted/deduplicated".into(),
            );
        }
        for &k in &self.degraded {
            if !spill_keys.contains_key(&k) {
                report.push(
                    cv,
                    None,
                    "degraded-not-spilled",
                    format!("degraded key {k:#x} has no spillover TCAM entry"),
                );
            }
        }
        // Live blocks must be pairwise disjoint and inside the table —
        // an overlap means the allocator double-handed a region and two
        // groups are scribbling over each other's next hops.
        blocks.sort_unstable();
        for pair in blocks.windows(2) {
            let ((a_ptr, a_cap, a_slot), (b_ptr, _, b_slot)) = (pair[0], pair[1]);
            if a_ptr as usize + a_cap > b_ptr as usize {
                report.push(
                    cv,
                    Some(b_slot),
                    "block-overlap",
                    format!("block at {b_ptr} overlaps slot {a_slot}'s block [{a_ptr}, {a_ptr}+{a_cap})"),
                );
            }
        }
        if let Some(&(ptr, cap, slot)) = blocks.last() {
            if ptr as usize + cap > self.result.len() {
                report.push(
                    cv,
                    Some(slot),
                    "result-out-of-bounds",
                    format!(
                        "block [{ptr}, {ptr}+{cap}) exceeds result table of {}",
                        self.result.len()
                    ),
                );
            }
        }
    }

    /// The per-slot half of [`SubCell::verify`]: data-path binding plus
    /// shadow ↔ bit-vector ↔ Result Table consistency for one row. Cheap
    /// enough (`O(2^stride)`) to re-run after every incremental update.
    pub(crate) fn verify_slot(&self, cell: usize, slot: u32, report: &mut VerifyReport) {
        let cv = Some(cell);
        let sv = Some(slot);
        let si = slot as usize;
        let f = &self.filter[si];
        let bv = &self.bitvec[si];
        let shadow = &self.shadows[si];
        if f.dirty && !f.valid {
            report.push(
                cv,
                sv,
                "dirty-invalid",
                "dirty bit set on an invalid row".into(),
            );
        }
        if f.valid {
            // Section 4.1/4.2: the full front end (spillover TCAM, then
            // Index Table decode validated by the Filter Table) must bind
            // this key back to this very row.
            match self.slot_of(f.key) {
                Some(s) if s == slot => {}
                other => report.push(
                    cv,
                    sv,
                    "data-path-binding",
                    format!("key {:#x} resolves to {other:?}", f.key),
                ),
            }
            if !self.spill.iter().any(|&(k, _)| k == f.key) {
                let p = self.index.lookup(f.key);
                if p as usize >= self.capacity() {
                    report.push(
                        cv,
                        sv,
                        "index-pointer-range",
                        format!("decoded pointer {p} outside [0, {})", self.capacity()),
                    );
                }
            }
        }
        if f.valid && !f.dirty {
            report.live_slots += 1;
            report.routes += shadow.len();
            if shadow.is_empty() {
                report.push(
                    cv,
                    sv,
                    "empty-live-group",
                    "live row has an empty shadow".into(),
                );
                return;
            }
            // Section 4.3: re-resolve the group's subtree and compare
            // leaf-by-leaf against the bit-vector and the compacted
            // Result Table block.
            let hops = leaf_hops(shadow, self.range.stride);
            let ones = hops.iter().filter(|h| h.is_some()).count();
            if bv.vector.count_ones() != ones {
                report.push(
                    cv,
                    sv,
                    "popcount-mismatch",
                    format!(
                        "vector popcount {} but shadow covers {ones} leaves",
                        bv.vector.count_ones()
                    ),
                );
            }
            let Some(block) = bv.block else {
                report.push(
                    cv,
                    sv,
                    "missing-block",
                    format!("{ones} covered leaves but no result block"),
                );
                return;
            };
            if block.capacity() < ones {
                report.push(
                    cv,
                    sv,
                    "block-overflow",
                    format!("block capacity {} below occupancy {ones}", block.capacity()),
                );
                return;
            }
            if block.ptr as usize + block.capacity() > self.result.len() {
                report.push(
                    cv,
                    sv,
                    "result-out-of-bounds",
                    format!(
                        "block [{}, {}+{}) exceeds result table of {}",
                        block.ptr,
                        block.ptr,
                        block.capacity(),
                        self.result.len()
                    ),
                );
                return;
            }
            for (leaf, hop) in hops.iter().enumerate() {
                if bv.vector.get(leaf) != hop.is_some() {
                    report.push(
                        cv,
                        sv,
                        "leaf-bit-mismatch",
                        format!("leaf {leaf}: bit {} vs shadow {hop:?}", bv.vector.get(leaf)),
                    );
                    continue;
                }
                if let Some(expected) = hop {
                    let rank = bv.vector.rank(leaf);
                    let stored = self.result.read(block, rank - 1);
                    if stored != *expected {
                        report.push(
                            cv,
                            sv,
                            "next-hop-mismatch",
                            format!("leaf {leaf} rank {rank}: stored {stored}, shadow {expected}"),
                        );
                    }
                }
            }
        } else {
            // Dirty (Section 4.4.1) and free rows must be fully drained:
            // empty shadow, zero vector, released block.
            if !shadow.is_empty() {
                report.push(
                    cv,
                    sv,
                    "stale-shadow",
                    format!("{} prefixes linger on a non-live row", shadow.len()),
                );
            }
            if !bv.vector.is_zero() {
                report.push(
                    cv,
                    sv,
                    "stale-vector",
                    format!(
                        "{} leaf bit(s) set on a non-live row",
                        bv.vector.count_ones()
                    ),
                );
            }
            if bv.block.is_some() {
                report.push(
                    cv,
                    sv,
                    "stale-block",
                    "result block held by a non-live row".into(),
                );
            }
        }
    }

    /// Debug-build hook: re-verifies the slot an incremental update just
    /// touched, so an update that corrupts a row fails at the update —
    /// not at some later lookup.
    #[cfg(debug_assertions)]
    fn debug_assert_slot(&self, slot: u32) {
        let mut report = VerifyReport::default();
        self.verify_slot(self.range.base as usize, slot, &mut report);
        assert!(
            report.is_ok(),
            "update left slot {slot} of cell base {} inconsistent:\n{report}",
            self.range.base
        );
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn debug_assert_slot(&self, _slot: u32) {}
}

fn cell_seed(seed: u64, base: u8) -> u64 {
    seed ^ ((base as u64) << 32).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Resolves the next hop of every leaf in a group's `stride`-bit subtree —
/// the pure, slot-independent part of a fill, safe to compute on any
/// worker thread.
fn leaf_hops(shadow: &GroupShadow, stride: u8) -> Vec<Option<NextHop>> {
    let leaves = 1usize << stride;
    let mut hops = Vec::with_capacity(leaves);
    for leaf in 0..leaves {
        hops.push(shadow.resolve_leaf(leaf, stride));
    }
    hops
}
