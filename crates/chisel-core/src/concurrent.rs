//! A shared Chisel engine for the line-card split the paper describes
//! (Section 4.4): the software shadow applies updates on the network
//! processor while the forwarding path keeps serving lookups.
//!
//! [`SharedChisel`] publishes immutable engine snapshots through a
//! [`SnapshotCell`] instead of taking a read-write lock. Lookups pin the
//! current snapshot without blocking (and without bumping a reference
//! count); the writer clones the engine — cheap, because every table is
//! chunked copy-on-write (see `crate::cow`) and Index Table partitions
//! sit behind `Arc`s, so the clone copies pointers and the update then
//! deep-copies only the chunks and the partition it actually touches —
//! applies the update off to the side, and swings the snapshot pointer in
//! one atomic step. This mirrors the hardware flow where "the modified
//! portions of the data structure are transferred to the hardware engine"
//! while the data path forwards against the old tables.
//!
//! Consequences of the snapshot discipline:
//!
//! - Readers are never blocked by updates, and every lookup (or batch)
//!   sees one internally-consistent engine state.
//! - A failed update ([`ChiselLpm::announce`] returning an error) is
//!   atomic: the snapshot is only published on success, so readers never
//!   observe a partially-applied update.
//! - Each snapshot carries a [`EngineSnapshot::generation`] counter, so
//!   external observers can correlate lookups with a specific published
//!   routing state (the torture tests rely on this).

use std::ops::Deref;
use std::sync::{Arc, Mutex};

use chisel_prefix::{Key, NextHop, Prefix, RoutingTable};

use crate::snapshot::SnapshotCell;
use crate::{
    ChiselConfig, ChiselError, ChiselLpm, EngineStats, FlowCache, UpdateKind, UpdateStats,
};

/// One published engine state: the engine plus its generation stamp.
///
/// Dereferences to [`ChiselLpm`], so snapshot holders can run any
/// read-only engine method directly.
#[derive(Debug)]
pub struct EngineSnapshot {
    generation: u64,
    engine: ChiselLpm,
}

impl EngineSnapshot {
    /// How many update windows had been published when this snapshot was
    /// taken (the freshly-built engine is generation 0).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The engine state itself.
    pub fn engine(&self) -> &ChiselLpm {
        &self.engine
    }
}

impl Deref for EngineSnapshot {
    type Target = ChiselLpm;

    fn deref(&self) -> &ChiselLpm {
        &self.engine
    }
}

/// A thread-safe, cloneable handle to a Chisel engine.
///
/// ```
/// use chisel_core::{SharedChisel, ChiselConfig};
/// use chisel_prefix::{RoutingTable, NextHop};
///
/// # fn main() -> Result<(), chisel_core::ChiselError> {
/// let mut table = RoutingTable::new_v4();
/// table.insert("10.0.0.0/8".parse().unwrap(), NextHop::new(1));
/// let shared = SharedChisel::build(&table, ChiselConfig::ipv4())?;
///
/// let handle = shared.clone();
/// let t = std::thread::spawn(move || handle.lookup("10.1.1.1".parse().unwrap()));
/// shared.announce("11.0.0.0/8".parse().unwrap(), NextHop::new(2))?;
/// assert_eq!(t.join().unwrap(), Some(NextHop::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedChisel {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    cell: SnapshotCell<EngineSnapshot>,
    /// Serializes writers: clone-apply-publish must be atomic with
    /// respect to other writers (readers need no lock at all).
    writer: Mutex<()>,
}

impl SharedChisel {
    /// Builds a shared engine over a routing table.
    ///
    /// # Errors
    ///
    /// Propagates [`ChiselLpm::build`] errors.
    pub fn build(table: &RoutingTable, config: ChiselConfig) -> Result<Self, ChiselError> {
        Ok(Self::from_engine(ChiselLpm::build(table, config)?))
    }

    /// Wraps an existing engine as generation 0.
    pub fn from_engine(engine: ChiselLpm) -> Self {
        Self::from_engine_at(engine, 0)
    }

    /// Wraps an existing engine, republishing at a specific generation.
    /// Crash recovery (`crate::journal`) uses this to re-enter the
    /// generation sequence exactly where the replayed journal tail left
    /// it.
    pub fn from_engine_at(engine: ChiselLpm, generation: u64) -> Self {
        SharedChisel {
            inner: Arc::new(Inner {
                cell: SnapshotCell::new(Arc::new(EngineSnapshot { generation, engine })),
                writer: Mutex::new(()),
            }),
        }
    }

    /// Longest-prefix-match lookup against the current snapshot.
    ///
    /// Never blocks on concurrent updates.
    pub fn lookup(&self, key: Key) -> Option<NextHop> {
        self.inner.cell.load().lookup(key)
    }

    /// Batched lookup against one consistent snapshot (see
    /// [`ChiselLpm::lookup_batch`]): every key in the batch is resolved
    /// against the same published generation.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length.
    pub fn lookup_batch(&self, keys: &[Key], out: &mut [Option<NextHop>]) {
        self.inner.cell.load().lookup_batch(keys, out);
    }

    /// An owned handle on the current snapshot: the engine state plus its
    /// generation, guaranteed not to change underneath the caller.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.inner.cell.load_owned()
    }

    /// Generation of the currently-published snapshot.
    pub fn generation(&self) -> u64 {
        self.inner.cell.load().generation()
    }

    /// Applies an announce and publishes the resulting snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`ChiselLpm::announce`] errors; on error no new
    /// snapshot is published (the update is atomic).
    pub fn announce(&self, prefix: Prefix, next_hop: NextHop) -> Result<UpdateKind, ChiselError> {
        self.update(|e| e.announce(prefix, next_hop), |_| true)
    }

    /// Applies a withdraw and publishes the resulting snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`ChiselLpm::withdraw`] errors; on error no new
    /// snapshot is published.
    pub fn withdraw(&self, prefix: Prefix) -> Result<UpdateKind, ChiselError> {
        self.update(|e| e.withdraw(prefix), |_| true)
    }

    /// Applies a whole update window ([`ChiselLpm::apply_batch`]) and
    /// publishes it as **one** snapshot generation: readers keep serving
    /// the pre-batch snapshot while the window's partition rebuilds run in
    /// parallel on the clone, and the post-batch snapshot appears
    /// atomically — a pinned reader observes either all of the window (its
    /// non-rejected events) or none of it, never a torn mix. Flow caches
    /// invalidate wholesale once per window, not once per event.
    ///
    /// A window that accepts no event (empty, or every event rejected)
    /// publishes nothing: the clone is dropped and the generation stays
    /// where it was.
    ///
    /// # Errors
    ///
    /// Propagates [`ChiselLpm::apply_batch`] errors; on error the torn
    /// clone is discarded and no new snapshot is published.
    pub fn apply_batch(
        &self,
        events: &[crate::batch::RouteUpdate],
    ) -> Result<crate::batch::BatchReport, ChiselError> {
        self.update(|e| e.apply_batch(events), |r| r.accepted() > 0)
    }

    /// Clone-apply-publish under the writer lock; the clone is published
    /// only when `publish` approves the result.
    fn update<T>(
        &self,
        f: impl FnOnce(&mut ChiselLpm) -> Result<T, ChiselError>,
        publish: impl FnOnce(&T) -> bool,
    ) -> Result<T, ChiselError> {
        let _writers = self.inner.writer.lock().expect("writer lock poisoned");
        let current = self.inner.cell.load_owned();
        // Cheap: the Filter/Bit-vector/Result tables are chunked
        // copy-on-write and Index Table partitions are Arc-shared, so
        // this copies pointers. The update below then deep-copies only
        // the chunks and partition it touches (`Arc::make_mut`).
        let mut next = current.engine.clone();
        let out = f(&mut next)?;
        if publish(&out) {
            self.inner.cell.store(Arc::new(EngineSnapshot {
                generation: current.generation + 1,
                engine: next,
            }));
        }
        Ok(out)
    }

    /// Number of routable prefixes in the current snapshot.
    pub fn len(&self) -> usize {
        self.inner.cell.load().len()
    }

    /// Whether the current snapshot holds no routes.
    pub fn is_empty(&self) -> bool {
        self.inner.cell.load().is_empty()
    }

    /// Update statistics of the current snapshot.
    pub fn update_stats(&self) -> UpdateStats {
        self.inner.cell.load().update_stats()
    }

    /// Consolidated health snapshot (recovery counters, degraded mode,
    /// spillover occupancy) of the current snapshot.
    pub fn engine_stats(&self) -> EngineStats {
        self.inner.cell.load().engine.engine_stats()
    }

    /// Runs a closure against the current snapshot (batched reads with a
    /// single snapshot acquisition).
    ///
    /// The snapshot is pinned for the closure's duration: long-running
    /// closures delay reclamation of replaced snapshots (but never block
    /// updates from publishing).
    pub fn with_engine<T>(&self, f: impl FnOnce(&ChiselLpm) -> T) -> T {
        f(&self.inner.cell.load().engine)
    }

    /// A per-thread reader handle with a private [`FlowCache`] of
    /// [`FlowCache::DEFAULT_CAPACITY`] slots in front of the snapshot
    /// path.
    pub fn reader(&self) -> CachedReader {
        self.reader_with_capacity(FlowCache::DEFAULT_CAPACITY)
    }

    /// A per-thread reader handle with a private [`FlowCache`] of at
    /// least `capacity` slots.
    pub fn reader_with_capacity(&self, capacity: usize) -> CachedReader {
        CachedReader {
            shared: self.clone(),
            cache: FlowCache::new(capacity),
        }
    }
}

/// A reader handle that fronts [`SharedChisel`] lookups with a private,
/// exclusively-owned [`FlowCache`].
///
/// The cache is owned by this handle (`&mut self` methods), never shared,
/// so the lock-free reader story is untouched: each lookup pins the
/// current snapshot exactly as [`SharedChisel::lookup`] does, and the
/// cache revalidates every entry against that snapshot's engine version.
/// A writer publishing an update bumps the version, which invalidates
/// every reader's cache wholesale on their next lookup — no writer ever
/// touches reader state.
///
/// Spawn one per forwarding thread via [`SharedChisel::reader`].
#[derive(Debug, Clone)]
pub struct CachedReader {
    shared: SharedChisel,
    cache: FlowCache,
}

impl CachedReader {
    /// Cached longest-prefix-match lookup against the current snapshot.
    /// Agrees with [`SharedChisel::lookup`] on every key at every
    /// generation.
    pub fn lookup(&mut self, key: Key) -> Option<NextHop> {
        let snap = self.shared.inner.cell.load();
        self.cache.lookup(snap.engine(), key)
    }

    /// Cached batch lookup against one consistent snapshot: hits are
    /// served from the cache, the missing lanes go through the engine's
    /// software-pipelined batch path.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length.
    pub fn lookup_batch(&mut self, keys: &[Key], out: &mut [Option<NextHop>]) {
        let snap = self.shared.inner.cell.load();
        self.cache.lookup_batch(snap.engine(), keys, out);
    }

    /// Like [`lookup_batch`](CachedReader::lookup_batch), additionally
    /// returning the generation of the snapshot the whole batch was
    /// answered against — the dataplane shards stamp every batch with it
    /// so answers can be differentially checked against a reference at
    /// the exact same generation.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length.
    pub fn lookup_batch_pinned(&mut self, keys: &[Key], out: &mut [Option<NextHop>]) -> u64 {
        let snap = self.shared.inner.cell.load();
        self.cache.lookup_batch(snap.engine(), keys, out);
        snap.generation()
    }

    /// Like [`lookup_batch_pinned`](CachedReader::lookup_batch_pinned),
    /// accumulating per-table read counts (including `degraded_hits`)
    /// into `trace` through [`FlowCache::lookup_batch_traced`]: the same
    /// batch kernel, counting as it goes.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length.
    pub fn lookup_batch_traced(
        &mut self,
        keys: &[Key],
        out: &mut [Option<NextHop>],
        trace: &mut crate::LookupTrace,
    ) -> u64 {
        let snap = self.shared.inner.cell.load();
        self.cache
            .lookup_batch_traced(snap.engine(), keys, out, trace);
        snap.generation()
    }

    /// The cache fronting this reader (hit/miss counters live here).
    pub fn cache(&self) -> &FlowCache {
        &self.cache
    }

    /// Empties the cache and zeroes its counters.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// The shared engine handle this reader draws snapshots from.
    pub fn shared(&self) -> &SharedChisel {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chisel_prefix::AddressFamily;

    fn shared() -> SharedChisel {
        let mut t = RoutingTable::new_v4();
        t.insert("10.0.0.0/8".parse().unwrap(), NextHop::new(1));
        SharedChisel::build(&t, ChiselConfig::ipv4()).unwrap()
    }

    #[test]
    fn lookups_from_many_threads() {
        let s = shared();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let h = s.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u128 {
                        let key = Key::from_raw(AddressFamily::V4, 0x0A00_0000 | (i & 0xFFFF));
                        assert_eq!(h.lookup(key), Some(NextHop::new(1)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn updates_interleave_with_lookups() {
        let s = shared();
        let reader = {
            let h = s.clone();
            std::thread::spawn(move || {
                let mut hits = 0usize;
                for i in 0..20_000u128 {
                    let key = Key::from_raw(AddressFamily::V4, 0x0A00_0000 | (i & 0xFFFF));
                    if h.lookup(key).is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        };
        for i in 0..500u32 {
            let p = chisel_prefix::Prefix::new(AddressFamily::V4, 0x0B00 + i as u128, 16).unwrap();
            s.announce(p, NextHop::new(i)).unwrap();
        }
        // Readers always saw a consistent engine (the /8 never left).
        assert_eq!(reader.join().unwrap(), 20_000);
        assert_eq!(s.len(), 501);
    }

    #[test]
    fn with_engine_batches() {
        let s = shared();
        let total = s.with_engine(|e| {
            (0..100u128)
                .filter(|&i| {
                    e.lookup(Key::from_raw(AddressFamily::V4, 0x0A00_0000 | i))
                        .is_some()
                })
                .count()
        });
        assert_eq!(total, 100);
    }

    #[test]
    fn generation_counts_published_updates() {
        let s = shared();
        assert_eq!(s.generation(), 0);
        s.announce("11.0.0.0/8".parse().unwrap(), NextHop::new(2))
            .unwrap();
        assert_eq!(s.generation(), 1);
        s.withdraw("11.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(s.generation(), 2);
        // A rejected update publishes nothing.
        assert!(s
            .announce("2001:db8::/32".parse().unwrap(), NextHop::new(3))
            .is_err());
        assert_eq!(s.generation(), 2);
    }

    #[test]
    fn batch_publishes_one_generation_and_one_version() {
        use crate::batch::RouteUpdate;
        let s = shared();
        let gen0 = s.generation();
        let ver0 = s.with_engine(|e| e.version());
        let p: Prefix = "11.0.0.0/8".parse().unwrap();
        let events = vec![
            RouteUpdate::Announce(p, NextHop::new(2)),
            RouteUpdate::Withdraw(p),
            RouteUpdate::Announce(p, NextHop::new(3)),
            RouteUpdate::Announce("12.0.0.0/8".parse().unwrap(), NextHop::new(4)),
        ];
        let report = s.apply_batch(&events).unwrap();
        // One window → one generation, one flow-cache invalidation.
        assert_eq!(s.generation(), gen0 + 1);
        assert_eq!(s.with_engine(|e| e.version()), ver0 + 1);
        assert_eq!(report.ingested, 4);
        assert_eq!(report.coalesced, 2, "the flap pair must coalesce away");
        assert_eq!(report.applied_ops, 2);
        assert!(report.rejected_events.is_empty());
        let snap = s.snapshot();
        assert_eq!(
            snap.lookup("11.5.5.5".parse().unwrap()),
            Some(NextHop::new(3))
        );
        assert_eq!(
            snap.lookup("12.5.5.5".parse().unwrap()),
            Some(NextHop::new(4))
        );
        assert!(snap.verify().is_ok());
    }

    #[test]
    fn batch_accepting_nothing_publishes_nothing() {
        use crate::batch::RouteUpdate;
        let s = shared();
        let before = s.snapshot();
        let v6: Prefix = "2001:db8::/32".parse().unwrap();
        for window in [
            &[][..],
            &[RouteUpdate::Announce(v6, NextHop::new(3))][..],
            &[RouteUpdate::Withdraw(v6), RouteUpdate::Withdraw(v6)][..],
        ] {
            let report = s.apply_batch(window).unwrap();
            assert_eq!(report.accepted(), 0);
            assert_eq!(s.generation(), 0);
            assert!(
                Arc::ptr_eq(&before, &s.snapshot()),
                "a snapshot was published"
            );
        }
        // One accepted event among rejected ones still publishes.
        let report = s
            .apply_batch(&[
                RouteUpdate::Withdraw(v6),
                RouteUpdate::Announce("11.0.0.0/8".parse().unwrap(), NextHop::new(2)),
            ])
            .unwrap();
        assert_eq!(report.rejected_events, vec![0]);
        assert_eq!(s.generation(), 1);
    }

    #[test]
    fn pinned_reader_never_sees_a_partial_batch() {
        use crate::batch::RouteUpdate;
        let s = shared();
        let pre = s.snapshot();
        let events: Vec<RouteUpdate> = (0..16u32)
            .map(|i| {
                RouteUpdate::Announce(
                    Prefix::new(AddressFamily::V4, u128::from(0x0D00 + i), 16).unwrap(),
                    NextHop::new(100 + i),
                )
            })
            .collect();
        s.apply_batch(&events).unwrap();
        let post = s.snapshot();
        // The pre-batch snapshot still answers pre-batch for every key of
        // the window; the post-batch snapshot answers post-batch for all.
        for i in 0..16u32 {
            let k: Key = format!("{}.{}.9.9", 13, i).parse().unwrap();
            assert_eq!(pre.lookup(k), None, "pre-batch snapshot torn at {i}");
            assert_eq!(
                post.lookup(k),
                Some(NextHop::new(100 + i)),
                "post-batch snapshot incomplete at {i}"
            );
        }
        assert_eq!(post.generation, pre.generation + 1);
    }

    #[test]
    fn snapshot_is_immutable_while_engine_moves_on() {
        let s = shared();
        let snap = s.snapshot();
        for i in 0..50u32 {
            let p = Prefix::new(AddressFamily::V4, 0x0C00 + u128::from(i), 16).unwrap();
            s.announce(p, NextHop::new(i)).unwrap();
        }
        // The held snapshot still answers from generation 0.
        assert_eq!(snap.generation(), 0);
        assert_eq!(snap.len(), 1);
        let probe = Key::from_raw(AddressFamily::V4, 0x0C00_0000);
        assert_eq!(snap.lookup(probe), None);
        assert_eq!(s.lookup(probe), Some(NextHop::new(0)));
        assert_eq!(s.snapshot().generation(), 50);
    }

    #[test]
    fn batch_lookup_matches_scalar_on_shared_handle() {
        let s = shared();
        let keys: Vec<Key> = (0..300u128)
            .map(|i| Key::from_raw(AddressFamily::V4, 0x0A00_0000 | (i * 7919)))
            .collect();
        let mut out = vec![None; keys.len()];
        s.lookup_batch(&keys, &mut out);
        for (k, o) in keys.iter().zip(&out) {
            assert_eq!(*o, s.lookup(*k));
        }
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedChisel>();
        assert_send_sync::<EngineSnapshot>();
        assert_send_sync::<CachedReader>();
    }

    #[test]
    fn cached_reader_agrees_across_updates() {
        let s = shared();
        let mut r = s.reader_with_capacity(256);
        let probe = Key::from_raw(AddressFamily::V4, 0x0B00_0001);
        assert_eq!(r.lookup(probe), None);
        s.announce("11.0.0.0/8".parse().unwrap(), NextHop::new(4))
            .unwrap();
        // The cached miss is stale now; the version stamp must force a
        // revalidation against the new snapshot.
        assert_eq!(r.lookup(probe), Some(NextHop::new(4)));
        s.withdraw("11.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(r.lookup(probe), None);
        assert_eq!(r.cache().hits(), 0);
    }

    #[test]
    fn cached_reader_hits_on_stable_snapshot() {
        let s = shared();
        let mut r = s.reader();
        let key = Key::from_raw(AddressFamily::V4, 0x0A01_0203);
        for _ in 0..10 {
            assert_eq!(r.lookup(key), Some(NextHop::new(1)));
        }
        assert_eq!(r.cache().misses(), 1);
        assert_eq!(r.cache().hits(), 9);
    }

    #[test]
    fn cached_reader_batch_matches_uncached() {
        let s = shared();
        let mut r = s.reader_with_capacity(64);
        let keys: Vec<Key> = (0..400u128)
            .map(|i| Key::from_raw(AddressFamily::V4, 0x0A00_0000 | (i * 131)))
            .collect();
        let mut cached = vec![None; keys.len()];
        let mut plain = vec![None; keys.len()];
        // Twice: the second pass exercises the hit path of every lane.
        for _ in 0..2 {
            r.lookup_batch(&keys, &mut cached);
            s.lookup_batch(&keys, &mut plain);
            assert_eq!(cached, plain);
        }
        assert!(r.cache().hits() > 0);
    }

    #[test]
    fn pinned_batch_reports_the_answering_generation() {
        let s = shared();
        let mut r = s.reader_with_capacity(64);
        let keys: Vec<Key> = (0..32u128)
            .map(|i| Key::from_raw(AddressFamily::V4, 0x0A00_0000 | i))
            .collect();
        let mut out = vec![None; keys.len()];
        assert_eq!(r.lookup_batch_pinned(&keys, &mut out), 0);
        s.announce("11.0.0.0/8".parse().unwrap(), NextHop::new(9))
            .unwrap();
        assert_eq!(r.lookup_batch_pinned(&keys, &mut out), 1);
        let mut trace = crate::LookupTrace::default();
        let mut traced_out = vec![None; keys.len()];
        assert_eq!(r.lookup_batch_traced(&keys, &mut traced_out, &mut trace), 1);
        assert_eq!(traced_out, out);
        assert_eq!(
            trace.cache_hits + trace.cache_misses,
            keys.len(),
            "every lane accounted"
        );
    }

    #[test]
    fn cached_readers_on_many_threads_interleaved_with_updates() {
        let s = shared();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let h = s.clone();
                std::thread::spawn(move || {
                    let mut r = h.reader_with_capacity(512);
                    for i in 0..10_000u128 {
                        let key = Key::from_raw(AddressFamily::V4, 0x0A00_0000 | (i & 0x3FF));
                        // The /8 is never withdrawn, so a cached reader
                        // must always resolve it (to *some* hop).
                        assert!(r.lookup(key).is_some());
                    }
                    (r.cache().hits(), r.cache().misses())
                })
            })
            .collect();
        for i in 0..200u32 {
            let p = Prefix::new(AddressFamily::V4, 0x0B00 + u128::from(i), 16).unwrap();
            s.announce(p, NextHop::new(i)).unwrap();
        }
        for t in readers {
            let (hits, misses) = t.join().unwrap();
            assert_eq!(hits + misses, 10_000);
        }
    }
}
