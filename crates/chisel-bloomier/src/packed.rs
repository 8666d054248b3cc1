//! The bit-packed Index Table arena (paper Section 5 storage model).
//!
//! The paper's storage claims rest on Index Table entries being exactly
//! `w = ceil(log2(n))` bits wide — a pointer into an `n`-deep Filter /
//! Bit-vector Table — not a machine word. [`PackedWords`] realizes that:
//! a fixed-length array of `w`-bit values (`1 <= w <= 64`) packed
//! back-to-back into 64-bit words, backed by cache-line (64-byte) aligned
//! storage so one Index Table probe touches the minimum number of lines
//! and hardware-style burst reads stay line-aligned.
//!
//! The Index Table itself never needs more than 32 pointer bits (a
//! 4-billion-deep Filter Table is far past any provisioning), so the hot
//! [`PackedWords::get`]/[`PackedWords::set`] accessors stay `u32`; the
//! `*_wide` pair exposes the full width for arenas that pack wider
//! payloads (and for exercising the boundary math at `w = 64`, where an
//! entry can cover two whole backing words).
//!
//! Entries may straddle a word boundary; reads and writes therefore go
//! through a two-word window folded into a `u128`, which keeps the access
//! branch-free (the arena always provisions one trailing pad word). The
//! arena is `Clone + PartialEq` so engine images built from it can be
//! compared byte-for-byte by the determinism suite.

/// One cache line of packed storage. `repr(C, align(64))` pins both the
/// layout (eight consecutive `u64`s) and the alignment of the backing
/// allocation.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CacheLine([u64; 8]);

const WORDS_PER_LINE: usize = 8;
pub(crate) const BITS_PER_LINE: usize = WORDS_PER_LINE * 64;

/// How entries are placed within the backing arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexLayout {
    /// Entries packed back-to-back across the whole arena (may straddle
    /// cache-line boundaries; zero padding waste beyond the last word).
    #[default]
    Flat,
    /// Entries grouped [`entries_per_line`] to one 64-byte line and never
    /// crossing a line boundary, so a key whose `k` probes are confined
    /// to one line (see `HashFamily::blocked_into_digest`) costs exactly
    /// one cache-line fill per Index Table lookup. The price is up to
    /// `512 mod (epl * w)` pad bits per line.
    Blocked,
}

/// Entries per 64-byte line under [`IndexLayout::Blocked`]:
/// `floor(512 / w)`. Always at least 8 (at `w = 64`).
///
/// # Panics
///
/// Panics unless `1 <= value_bits <= 64`.
#[inline]
pub fn entries_per_line(value_bits: u32) -> usize {
    // ASSERT-OK: documented `# Panics` contract on a setup-time helper.
    assert!(
        (1..=64).contains(&value_bits),
        "entry width {value_bits} out of range 1..=64"
    );
    BITS_PER_LINE / value_bits as usize
}

use IndexLayout::{Blocked, Flat};

/// A fixed-length array of `w`-bit values packed into cache-line aligned
/// 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWords {
    lines: Vec<CacheLine>,
    /// Number of addressable entries.
    len: usize,
    /// Entry width `w` in bits (`1..=64`).
    value_bits: u32,
    /// `2^w - 1`, cached for the access paths.
    mask: u64,
    /// Number of live (non-pad) backing words.
    words: usize,
    /// Entry placement scheme.
    layout: IndexLayout,
    /// Entries per line (meaningful under [`IndexLayout::Blocked`];
    /// cached so the cold accessors can re-derive an entry's line).
    epl: usize,
}

impl PackedWords {
    /// Creates a zero-filled flat arena of `len` entries of `value_bits`
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= value_bits <= 64`.
    pub fn new(len: usize, value_bits: u32) -> Self {
        Self::with_layout(len, value_bits, IndexLayout::Flat)
    }

    /// Creates a zero-filled arena of `len` entries of `value_bits` bits
    /// under the given placement scheme.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= value_bits <= 64`.
    pub fn with_layout(len: usize, value_bits: u32, layout: IndexLayout) -> Self {
        let epl = entries_per_line(value_bits);
        let words = match layout {
            Flat => (len * value_bits as usize).div_ceil(64),
            Blocked => len.div_ceil(epl) * WORDS_PER_LINE,
        };
        // One pad word keeps the two-word read window in bounds for the
        // last entry (under `Blocked` this rounds to a whole pad line).
        let lines = vec![CacheLine::default(); (words + 1).div_ceil(WORDS_PER_LINE)];
        PackedWords {
            lines,
            len,
            value_bits,
            mask: if value_bits == 64 {
                u64::MAX
            } else {
                (1u64 << value_bits) - 1
            },
            words,
            layout,
            epl,
        }
    }

    /// Reconstructs an arena from its raw backing words (the
    /// [`PackedWords::backing_words`] serialization). Returns `None` —
    /// instead of panicking — when the words cannot describe `len`
    /// entries of `value_bits` bits: width out of range, wrong word
    /// count, overflowing geometry, or set bits in the tail beyond
    /// `len * value_bits`. The image loader uses this to reject corrupt
    /// bytes.
    pub fn from_backing_words(len: usize, value_bits: u32, words: &[u64]) -> Option<Self> {
        if !(1..=64).contains(&value_bits) {
            return None;
        }
        let bits = len.checked_mul(value_bits as usize)?;
        if words.len() != bits.div_ceil(64) {
            return None;
        }
        let tail_bits = bits % 64;
        if tail_bits != 0 && words[words.len() - 1] >> tail_bits != 0 {
            return None;
        }
        let mut arena = Self::new(len, value_bits);
        arena.flat_mut()[..words.len()].copy_from_slice(words);
        Some(arena)
    }

    /// Reconstructs a [`IndexLayout::Blocked`] arena from its raw backing
    /// words. Returns `None` — instead of panicking — on the same damage
    /// classes as [`PackedWords::from_backing_words`], where "tail bits"
    /// generalizes to the per-line pad gap: in every line, bits beyond
    /// the entries that line actually holds must be zero.
    pub fn from_backing_words_blocked(len: usize, value_bits: u32, words: &[u64]) -> Option<Self> {
        if !(1..=64).contains(&value_bits) {
            return None;
        }
        let epl = entries_per_line(value_bits);
        let nlines = len.div_ceil(epl);
        if words.len() != nlines.checked_mul(WORDS_PER_LINE)? {
            return None;
        }
        for (l, chunk) in words.chunks(WORDS_PER_LINE).enumerate() {
            let used = (len - l * epl).min(epl);
            let bits_used = used * value_bits as usize;
            for (j, &word) in chunk.iter().enumerate() {
                let live = bits_used.saturating_sub(j * 64).min(64);
                if live < 64 && word >> live != 0 {
                    return None;
                }
            }
        }
        let mut arena = Self::with_layout(len, value_bits, Blocked);
        arena.flat_mut()[..words.len()].copy_from_slice(words);
        Some(arena)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entry width in bits (the paper's `w`).
    #[inline]
    pub fn value_bits(&self) -> u32 {
        self.value_bits
    }

    /// Entry placement scheme.
    #[inline]
    pub fn layout(&self) -> IndexLayout {
        self.layout
    }

    /// Entries per 64-byte line (`floor(512 / w)`; the addressing unit
    /// under [`IndexLayout::Blocked`]).
    #[inline]
    pub fn line_entries(&self) -> usize {
        self.epl
    }

    /// The bit offset of entry `i` inside the backing arena.
    #[inline]
    fn bit_of(&self, i: usize) -> usize {
        match self.layout {
            Flat => i * self.value_bits as usize,
            Blocked => (i / self.epl) * BITS_PER_LINE + (i % self.epl) * self.value_bits as usize,
        }
    }

    /// Logical storage in bits: `len * value_bits` — what the Section 5
    /// storage model charges for the Index Table.
    #[inline]
    pub fn logical_bits(&self) -> u64 {
        self.len as u64 * self.value_bits as u64
    }

    /// Physical storage in bits: whole 64-bit backing words, excluding
    /// the alignment tail. Flat word-packing overhead is at most 63
    /// bits; the blocked layout additionally pays `512 - epl * w` pad
    /// bits per line for its one-line-per-lookup guarantee.
    #[inline]
    pub fn arena_bits(&self) -> u64 {
        self.words as u64 * 64
    }

    /// The live backing words (pad word excluded) — what a hardware image
    /// serializes.
    pub fn backing_words(&self) -> &[u64] {
        &self.flat()[..self.words]
    }

    /// The whole backing arena as words, pad included: the readers take
    /// `flat[wi]`/`flat[wi + 1]` pairs and rely on the pad word the
    /// constructors provision.
    #[inline]
    fn flat(&self) -> &[u64] {
        // SAFETY: `CacheLine` is `repr(C)` over `[u64; 8]`, so a `Vec` of
        // lines is one contiguous, properly-aligned run of
        // `lines.len() * 8` initialized `u64`s.
        unsafe {
            std::slice::from_raw_parts(
                self.lines.as_ptr().cast::<u64>(),
                self.lines.len() * WORDS_PER_LINE,
            )
        }
    }

    #[inline]
    fn flat_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `flat`, plus `&mut self` guarantees uniqueness.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.lines.as_mut_ptr().cast::<u64>(),
                self.lines.len() * WORDS_PER_LINE,
            )
        }
    }

    /// Reads entry `i` (hot-path `u32` accessor for pointer-width
    /// entries; use [`PackedWords::get_wide`] when `w > 32`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(
            self.value_bits <= 32,
            "u32 accessor on a {}-bit arena",
            self.value_bits
        );
        self.get_wide(i) as u32
    }

    /// Writes entry `i`. Bits of `value` above `value_bits` must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or the value does not fit the entry width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u32) {
        self.set_wide(i, value as u64);
    }

    /// Reads entry `i` at full width.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get_wide(&self, i: usize) -> u64 {
        // ASSERT-OK: documented `# Panics` bounds contract; the bit
        // arithmetic below is unchecked, so it must hold in release.
        assert!(i < self.len, "entry {i} out of range {}", self.len);
        let bit = self.bit_of(i);
        let (wi, sh) = (bit >> 6, (bit & 63) as u32);
        let flat = self.flat();
        // A `w <= 64` entry at any bit offset lives inside this two-word
        // window (at `w = 64`, `sh = 63` it spans bits 63..127 of it).
        let pair = flat[wi] as u128 | ((flat[wi + 1] as u128) << 64);
        (pair >> sh) as u64 & self.mask
    }

    /// Reads the entry at in-line slot `slot` of cache-line `line` — the
    /// hot blocked-layout accessor: callers that already derived
    /// `(block, slot)` from the digest skip the division `bit_of` would
    /// pay to split a global index.
    ///
    /// # Panics
    ///
    /// Panics if the addressed entry is out of range.
    #[inline]
    pub fn get_in_line(&self, line: usize, slot: usize) -> u64 {
        debug_assert_eq!(self.layout, Blocked, "get_in_line on a flat arena");
        debug_assert!(slot < self.epl, "slot {slot} exceeds line capacity");
        // ASSERT-OK: documented `# Panics` bounds contract; must hold in
        // release to keep the in-line read inside the arena.
        assert!(
            line * self.epl + slot < self.len,
            "entry out of range {}",
            self.len
        );
        let bit = line * BITS_PER_LINE + slot * self.value_bits as usize;
        let (wi, sh) = (bit >> 6, (bit & 63) as u32);
        let flat = self.flat();
        let pair = flat[wi] as u128 | ((flat[wi + 1] as u128) << 64);
        (pair >> sh) as u64 & self.mask
    }

    /// Writes entry `i` at full width. Bits of `value` above
    /// `value_bits` must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or the value does not fit the entry width.
    #[inline]
    pub fn set_wide(&mut self, i: usize, value: u64) {
        // ASSERT-OK: documented `# Panics` bounds/width contract; both
        // checks keep the packed write in range in release builds.
        assert!(i < self.len, "entry {i} out of range {}", self.len);
        assert!(
            value & !self.mask == 0,
            "value {value:#x} exceeds {} bits",
            self.value_bits
        );
        let bit = self.bit_of(i);
        let (wi, sh) = (bit >> 6, (bit & 63) as u32);
        let clear = !((self.mask as u128) << sh);
        let flat = self.flat_mut();
        let pair =
            (flat[wi] as u128 | ((flat[wi + 1] as u128) << 64)) & clear | ((value as u128) << sh);
        flat[wi] = pair as u64;
        flat[wi + 1] = (pair >> 64) as u64;
    }

    /// Zeroes every entry.
    pub fn clear(&mut self) {
        self.lines.fill(CacheLine::default());
    }

    /// Prefetches the cache line holding entry `i`.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        debug_assert!(i < self.len);
        let wi = self.bit_of(i) >> 6;
        crate::prefetch_read(&self.flat()[wi]);
    }

    /// Prefetches cache-line `line` directly (blocked layout; the caller
    /// already knows the line from the digest's block choice).
    #[inline]
    pub fn prefetch_line(&self, line: usize) {
        debug_assert_eq!(self.layout, Blocked);
        if let Some(l) = self.lines.get(line) {
            crate::prefetch_read(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        for w in 1..=32u32 {
            let n = 517; // odd length exercises straddling entries
            let mask = if w == 32 { u32::MAX } else { (1 << w) - 1 };
            let mut t = PackedWords::new(n, w);
            for i in 0..n {
                t.set(i, (i as u32).wrapping_mul(0x9E37_79B9) & mask);
            }
            for i in 0..n {
                assert_eq!(
                    t.get(i),
                    (i as u32).wrapping_mul(0x9E37_79B9) & mask,
                    "w={w} i={i}"
                );
            }
        }
    }

    #[test]
    fn neighbors_do_not_clobber() {
        let mut t = PackedWords::new(64, 21); // 21 bits straddles words
        t.set(3, 0x1F_FFFF);
        t.set(2, 0);
        t.set(4, 0);
        assert_eq!(t.get(3), 0x1F_FFFF);
        t.set(3, 0);
        assert_eq!((0..64).map(|i| t.get(i)).sum::<u32>(), 0);
    }

    #[test]
    fn storage_accounting() {
        let t = PackedWords::new(1000, 17);
        assert_eq!(t.logical_bits(), 17_000);
        assert_eq!(t.arena_bits(), 17_000u64.div_ceil(64) * 64);
        assert!(t.arena_bits() - t.logical_bits() < 64);
        assert_eq!(t.backing_words().len() as u64 * 64, t.arena_bits());
    }

    #[test]
    fn backing_is_cache_line_aligned() {
        for n in [1usize, 63, 64, 1000] {
            let t = PackedWords::new(n, 13);
            assert_eq!(t.lines.as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn clear_and_equality() {
        let mut a = PackedWords::new(100, 9);
        let b = PackedWords::new(100, 9);
        a.set(57, 0x1FF);
        assert_ne!(a, b);
        a.clear();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_value_rejected() {
        let mut t = PackedWords::new(8, 4);
        t.set(0, 16);
    }

    #[test]
    fn single_bit_entries() {
        // w = 1: 64 entries per backing word, every offset a boundary
        // case of the shift math.
        let n = 130; // 2 full words + 2 straddling the pad boundary
        let mut t = PackedWords::new(n, 1);
        for i in 0..n {
            t.set(i, (i % 3 == 0) as u32);
        }
        for i in 0..n {
            assert_eq!(t.get(i), (i % 3 == 0) as u32, "i={i}");
        }
        assert_eq!(t.logical_bits(), n as u64);
        assert_eq!(t.arena_bits(), 192); // ceil(130/64) = 3 words
    }

    #[test]
    fn full_word_entries() {
        // w = 64: entries coincide exactly with backing words; the
        // two-word read window must not pull in a neighbor.
        let n = 9;
        let mut t = PackedWords::new(n, 64);
        for i in 0..n {
            t.set_wide(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63);
        }
        for i in 0..n {
            assert_eq!(
                t.get_wide(i),
                (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63,
                "i={i}"
            );
        }
        assert_eq!(t.logical_bits(), 64 * n as u64);
    }

    #[test]
    fn wide_straddling_entries() {
        // w = 63: every entry past the first straddles a word boundary,
        // sliding one bit further each time — the worst case for the
        // folded two-word window.
        let n = 100;
        let mask = u64::MAX >> 1;
        let mut t = PackedWords::new(n, 63);
        for i in 0..n {
            t.set_wide(i, (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) & mask);
        }
        for i in 0..n {
            assert_eq!(
                t.get_wide(i),
                (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) & mask,
                "i={i}"
            );
        }
        // Overwrite in reverse order; earlier neighbors must survive.
        for i in (0..n).rev() {
            t.set_wide(i, !(i as u64) & mask);
        }
        for i in 0..n {
            assert_eq!(t.get_wide(i), !(i as u64) & mask, "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_65_rejected() {
        let _ = PackedWords::new(8, 65);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        let _ = PackedWords::new(8, 0);
    }

    #[test]
    fn empty_arena() {
        let t = PackedWords::new(0, 8);
        assert!(t.is_empty());
        assert_eq!(t.logical_bits(), 0);
        assert_eq!(t.backing_words().len(), 0);
    }

    #[test]
    fn blocked_roundtrip_all_widths() {
        for w in 1..=64u32 {
            let epl = entries_per_line(w);
            // A couple of full lines plus a partial one.
            let n = 2 * epl + epl / 2 + 1;
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            let mut t = PackedWords::with_layout(n, w, IndexLayout::Blocked);
            for i in 0..n {
                t.set_wide(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask);
            }
            for i in 0..n {
                let want = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
                assert_eq!(t.get_wide(i), want, "w={w} i={i}");
                assert_eq!(t.get_in_line(i / epl, i % epl), want, "w={w} i={i}");
            }
        }
    }

    #[test]
    fn blocked_entries_never_straddle_lines() {
        // Writing all-ones to every entry must leave the per-line pad gap
        // zero: no entry leaks across its 64-byte line.
        for w in [3u32, 17, 20, 33, 63] {
            let epl = entries_per_line(w);
            let n = 3 * epl;
            let mask = (1u64 << w) - 1;
            let mut t = PackedWords::with_layout(n, w, IndexLayout::Blocked);
            for i in 0..n {
                t.set_wide(i, mask);
            }
            let gap = 512 - epl * w as usize;
            for (l, chunk) in t.backing_words().chunks(8).enumerate() {
                let mut high = 0u32;
                for (j, &word) in chunk.iter().enumerate() {
                    let live = (epl * w as usize).saturating_sub(j * 64).min(64);
                    assert_eq!(word >> live.min(63) >> (live == 64) as u32, 0, "line {l}");
                    high += word.count_ones();
                }
                assert_eq!(high as usize, 512 - gap, "line {l} pad bits set");
            }
        }
    }

    #[test]
    fn blocked_storage_accounting() {
        let w = 17u32;
        let epl = entries_per_line(w); // 30
        let t = PackedWords::with_layout(1000, w, IndexLayout::Blocked);
        assert_eq!(t.logical_bits(), 17_000);
        let nlines = 1000usize.div_ceil(epl) as u64; // 34 lines
        assert_eq!(t.arena_bits(), nlines * 512);
        assert_eq!(t.backing_words().len() as u64 * 64, t.arena_bits());
        assert_eq!(t.line_entries(), 30);
        assert_eq!(t.layout(), IndexLayout::Blocked);
    }

    #[test]
    fn blocked_backing_words_roundtrip() {
        let mut t = PackedWords::with_layout(100, 21, IndexLayout::Blocked);
        for i in 0..100 {
            t.set_wide(i, (i as u64 * 31) & ((1 << 21) - 1));
        }
        let rebuilt =
            PackedWords::from_backing_words_blocked(100, 21, t.backing_words()).expect("valid");
        assert_eq!(rebuilt, t);
        for i in 0..100 {
            assert_eq!(rebuilt.get_wide(i), t.get_wide(i));
        }
    }

    #[test]
    fn blocked_loader_rejects_damage() {
        let t = PackedWords::with_layout(64, 21, IndexLayout::Blocked);
        let words = t.backing_words().to_vec();
        // Wrong word count (flat-geometry count for the same len/width).
        assert!(PackedWords::from_backing_words_blocked(64, 21, &words[..21]).is_none());
        // A set bit in a line's pad gap (entries 0..24 of line 0 cover
        // bits 0..504; bit 510 is pad).
        let mut bad = words.clone();
        bad[7] |= 1 << 62;
        assert!(PackedWords::from_backing_words_blocked(64, 21, &bad).is_none());
        // A set bit beyond `len` in the final partial line: len = 64,
        // epl = 24, so line 2 holds entries 48..64 → bits 0..336 live.
        let mut bad = words;
        bad[2 * 8 + 5] |= 1 << 30; // bit 350 of line 2
        assert!(PackedWords::from_backing_words_blocked(64, 21, &bad).is_none());
        // Width out of range.
        assert!(PackedWords::from_backing_words_blocked(64, 0, &[]).is_none());
    }

    #[test]
    fn flat_words_do_not_load_as_blocked() {
        let mut t = PackedWords::new(64, 21);
        for i in 0..64 {
            t.set_wide(i, 0x1F_FFFF);
        }
        // Flat serialization has the wrong word count for blocked
        // geometry, so the blocked loader must reject it outright.
        assert!(PackedWords::from_backing_words_blocked(64, 21, t.backing_words()).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The obviously-correct reference: one `u64` per entry, no packing.
    struct Naive {
        values: Vec<u64>,
        mask: u64,
    }

    impl Naive {
        fn new(len: usize, value_bits: u32) -> Self {
            Naive {
                values: vec![0; len],
                mask: if value_bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << value_bits) - 1
                },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn packed_matches_naive_reference(
            value_bits in 1u32..=64,
            len in 1usize..200,
            writes in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..300),
        ) {
            let mut packed = PackedWords::new(len, value_bits);
            let mut naive = Naive::new(len, value_bits);
            for &(i, v) in &writes {
                let i = i as usize % len;
                let v = v & naive.mask;
                packed.set_wide(i, v);
                naive.values[i] = v;
            }
            for (i, &want) in naive.values.iter().enumerate() {
                prop_assert_eq!(packed.get_wide(i), want, "w={} i={}", value_bits, i);
            }
        }

        #[test]
        fn clear_resets_every_width(value_bits in 1u32..=64, len in 1usize..128) {
            let mut packed = PackedWords::new(len, value_bits);
            let mask = if value_bits == 64 { u64::MAX } else { (1u64 << value_bits) - 1 };
            for i in 0..len {
                packed.set_wide(i, mask);
            }
            packed.clear();
            for i in 0..len {
                prop_assert_eq!(packed.get_wide(i), 0);
            }
        }

        #[test]
        fn blocked_matches_naive_reference(
            value_bits in 1u32..=64,
            len in 1usize..300,
            writes in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..300),
        ) {
            let mut packed = PackedWords::with_layout(len, value_bits, IndexLayout::Blocked);
            let mut naive = Naive::new(len, value_bits);
            let epl = entries_per_line(value_bits);
            for &(i, v) in &writes {
                let i = i as usize % len;
                let v = v & naive.mask;
                packed.set_wide(i, v);
                naive.values[i] = v;
            }
            for (i, &want) in naive.values.iter().enumerate() {
                prop_assert_eq!(packed.get_wide(i), want, "w={} i={}", value_bits, i);
                prop_assert_eq!(packed.get_in_line(i / epl, i % epl), want);
            }
        }
    }
}
