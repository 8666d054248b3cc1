//! The Chisel LPM engine: sub-cells searched in priority order, a default
//! route, and the incremental update front-end (paper Sections 4.3–4.4).

use std::collections::BTreeMap;
use std::sync::Arc;

use chisel_prefix::collapse::StridePlan;
use chisel_prefix::parallel::{chunk_ranges, parallel_map, resolve_threads};
use chisel_prefix::{AddressFamily, Key, NextHop, Prefix, RouteEntry, RoutingTable};

use chisel_bloomier::RebuildCandidate;

use crate::batch::{BatchPlan, BatchReport, RouteUpdate};
use crate::faultpoint;
use crate::shadow::GroupShadow;
use crate::stats::{DegradedMode, EngineStats, LookupTrace, RecoveryStats, StorageBreakdown};
use crate::subcell::{
    AnnounceOutcome, BatchStep, CellParams, PartitionResetupPlan, PreparedKey, ProbeCounter,
    SubCell,
};
use crate::update::{BatchStats, RecentWithdrawals, UpdateKind, UpdateStats};
use crate::{ChiselConfig, ChiselError};

/// Keys in flight per batch-kernel lane: with d-partitioned cells a lane
/// needs several keys *per partition* to fill the 4-wide gather groups of
/// the vectorized Index Table probe.
pub(crate) const LANES: usize = 64;

/// The Chisel longest-prefix-matching engine.
///
/// ```
/// use chisel_core::{ChiselLpm, ChiselConfig};
/// use chisel_prefix::{RoutingTable, NextHop, Key};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut table = RoutingTable::new_v4();
/// table.insert("10.0.0.0/8".parse()?, NextHop::new(1));
/// table.insert("10.1.0.0/16".parse()?, NextHop::new(2));
/// let mut engine = ChiselLpm::build(&table, ChiselConfig::ipv4())?;
///
/// assert_eq!(engine.lookup("10.1.2.3".parse()?), Some(NextHop::new(2)));
///
/// // Incremental update:
/// engine.announce("11.0.0.0/8".parse()?, NextHop::new(3))?;
/// assert_eq!(engine.lookup("11.9.9.9".parse()?), Some(NextHop::new(3)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChiselLpm {
    config: ChiselConfig,
    plan: StridePlan,
    /// Sub-cells behind `Arc` so cloning the engine is cheap: the
    /// concurrent snapshot writer clones the whole engine per update and
    /// deep-copies (via [`Arc::make_mut`]) only the sub-cell it mutates.
    cells: Vec<Arc<SubCell>>,
    default_route: Option<NextHop>,
    stats: UpdateStats,
    /// Batched-update counters ([`ChiselLpm::apply_batch`]).
    batch: BatchStats,
    recent: RecentWithdrawals,
    len: usize,
    /// Monotonic update counter, bumped once per update window (a valid
    /// announce or withdraw is a window of one) before any table is
    /// touched. A flow cache stamps its entries with this and treats any
    /// mismatch as a miss, so cached results can never survive an update
    /// — see [`crate::FlowCache`].
    version: u64,
}

impl ChiselLpm {
    /// Builds an engine over a routing table.
    ///
    /// # Errors
    ///
    /// Fails if the Bloomier setup cannot converge within the spillover
    /// budget, or if the table's family disagrees with the configuration.
    pub fn build(table: &RoutingTable, config: ChiselConfig) -> Result<Self, ChiselError> {
        if table.family() != config.family {
            return Err(ChiselError::FamilyMismatch);
        }
        let width = config.family.width();
        let plan = match &config.plan {
            Some(p) => p.clone(),
            None => StridePlan::covering(&table.length_histogram(), config.stride, width),
        };
        let threads = resolve_threads(config.build_threads);
        let params = CellParams {
            k: config.k,
            m_per_key: config.m_per_key,
            partitions: config.partitions,
            seed: config.seed,
            spill_capacity: config.spill_capacity,
            flap_absorption: config.flap_absorption,
            build_threads: threads,
            resetup_retries: config.resetup_retries,
            blocked_index: config.blocked_index,
        };

        // Phase A: group prefixes per cell by collapsed key. Contiguous
        // chunks of the (deterministically ordered) table are grouped on
        // worker threads and merged chunk-by-chunk; per-prefix inserts
        // land in BTreeMaps and each prefix appears in exactly one chunk,
        // so the merged result is identical for any thread count.
        let ncells = plan.num_cells();
        type CellGroups = Vec<BTreeMap<u128, GroupShadow>>;
        type ChunkGroups = Result<(CellGroups, Option<NextHop>, usize), ChiselError>;
        let entries: Vec<RouteEntry> = table.iter().collect();
        let ranges = chunk_ranges(entries.len(), threads);
        let partials: Vec<ChunkGroups> = parallel_map(threads, &ranges, |_, range| {
            let mut groups: CellGroups = vec![BTreeMap::new(); ncells];
            let mut default_route = None;
            let mut len = 0usize;
            for e in &entries[range.clone()] {
                if e.prefix.is_empty() {
                    default_route = Some(e.next_hop);
                    len += 1;
                    continue;
                }
                let ci = plan
                    .cell_for(e.prefix.len())
                    .ok_or(ChiselError::UnsupportedLength {
                        len: e.prefix.len(),
                    })?;
                let base = plan.cells()[ci].base;
                let collapsed = e.prefix.truncate(base).bits();
                let depth = e.prefix.len() - base;
                let suffix = e.prefix.suffix_below(base);
                groups[ci]
                    .entry(collapsed)
                    .or_default()
                    .insert(depth, suffix, e.next_hop);
                len += 1;
            }
            Ok((groups, default_route, len))
        });
        let mut groups: CellGroups = vec![BTreeMap::new(); ncells];
        let mut default_route = None;
        let mut len = 0usize;
        for partial in partials {
            let (part_groups, part_default, part_len) = partial?;
            for (ci, cell) in part_groups.into_iter().enumerate() {
                for (bits, shadow) in cell {
                    groups[ci].entry(bits).or_default().absorb(shadow);
                }
            }
            // The table holds at most one length-0 prefix, so at most one
            // chunk reports a default route.
            default_route = default_route.or(part_default);
            len += part_len;
        }

        // Phases B and C run inside each sub-cell build: the per-group
        // leaf fills and the d Bloomier partition setups fan out over the
        // same worker budget (see `SubCell::install_groups`).
        let mut cells = Vec::with_capacity(ncells);
        for (ci, cell_groups) in groups.into_iter().enumerate() {
            // Deterministic sizing (Section 4.3.2): provision the Filter /
            // Bit-vector tables for the cell's *original prefix* count
            // (with headroom), not its collapsed-group count — this keeps
            // Index Table load low so singleton inserts nearly always
            // succeed.
            let prefixes: usize = cell_groups.values().map(GroupShadow::len).sum();
            let capacity = ((prefixes as f64 * config.slack).ceil() as usize).max(64);
            cells.push(Arc::new(SubCell::build(
                plan.cells()[ci],
                width,
                params,
                cell_groups.into_iter().collect(),
                capacity,
            )?));
        }
        let flap_window = config.flap_window;
        Ok(ChiselLpm {
            config,
            plan,
            cells,
            default_route,
            stats: UpdateStats::default(),
            batch: BatchStats::default(),
            recent: RecentWithdrawals::new(flap_window),
            len,
            version: 0,
        })
    }

    /// The engine's update version: bumped by every announce/withdraw. Two
    /// reads of the same version are guaranteed to see identical lookup
    /// results, which is the coherence contract [`crate::FlowCache`]
    /// builds on.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ChiselConfig {
        &self.config
    }

    /// The stride plan in use.
    pub fn plan(&self) -> &StridePlan {
        &self.plan
    }

    /// The address family served.
    pub fn family(&self) -> AddressFamily {
        self.config.family
    }

    /// Number of original prefixes currently routable (including the
    /// default route).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the engine holds no routes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Longest-prefix-match lookup.
    ///
    /// Hardware searches all sub-cells in parallel and priority-encodes;
    /// here the cells are probed from the longest base down and the first
    /// match wins — the results are identical because cell length ranges
    /// are disjoint.
    pub fn lookup(&self, key: Key) -> Option<NextHop> {
        self.walk(key, &mut ())
    }

    /// [`ChiselLpm::lookup`], accumulating the lookup's table accesses
    /// into `trace` (for the latency experiments).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the key family differs from the engine's.
    pub fn lookup_traced(&self, key: Key, trace: &mut LookupTrace) -> Option<NextHop> {
        self.walk(key, trace)
    }

    /// The kernel's stage methods for one key, without the lane arrays a
    /// scalar lookup would pay for on every cell.
    #[inline]
    fn walk<C: ProbeCounter>(&self, key: Key, counter: &mut C) -> Option<NextHop> {
        debug_assert_eq!(key.family(), self.config.family);
        for cell in self.cells.iter().rev() {
            // Only live groups can match: branch past drained cells
            // without touching their tables.
            if cell.is_empty() {
                continue;
            }
            let prepared = cell.prepare(key.value());
            let slot = cell.probe_slot(&prepared);
            let hop = cell.lookup_at(slot, &prepared);
            counter.probe(cell, &prepared, slot, hop);
            if hop.is_some() {
                return hop;
            }
        }
        self.default_route
    }

    /// Longest-prefix-match over a batch of keys, software-pipelined.
    ///
    /// Produces exactly what per-key [`ChiselLpm::lookup`] would (the
    /// property suite asserts this), but restructures the memory accesses
    /// for throughput: keys are processed in lanes of 64, and within each
    /// lane every dependent table read (Index → Filter/Bit-vector →
    /// Result) is prefetched for all keys before any of them is consumed.
    /// This hides DRAM latency behind the independent probes of the other
    /// lane members — the software analogue of the hardware pipeline of
    /// paper Section 5, where successive packets occupy successive
    /// pipeline stages.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length, or (debug builds) on
    /// a key-family mismatch.
    pub fn lookup_batch(&self, keys: &[Key], out: &mut [Option<NextHop>]) {
        self.lookup_lanes(keys, out, &mut ());
    }

    /// [`ChiselLpm::lookup_batch`], accumulating every key's table
    /// accesses into `trace`: the same kernel, counting as it goes, so the
    /// trace equals the sum of per-key [`ChiselLpm::lookup_traced`] traces.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and `out` differ in length, or (debug builds) on
    /// a key-family mismatch.
    pub fn lookup_batch_traced(
        &self,
        keys: &[Key],
        out: &mut [Option<NextHop>],
        trace: &mut LookupTrace,
    ) {
        self.lookup_lanes(keys, out, trace);
    }

    /// The batch kernel, generic over whether it counts.
    pub(crate) fn lookup_lanes<C: ProbeCounter>(
        &self,
        keys: &[Key],
        out: &mut [Option<NextHop>],
        counter: &mut C,
    ) {
        // ASSERT-OK: documented `# Panics` contract, checked once per
        // batch, amortized over every key.
        assert_eq!(
            keys.len(),
            out.len(),
            "lookup_batch requires matching key/output slices"
        );
        for (kc, oc) in keys.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let mut done = [false; LANES];
            // Cells are probed longest-base first, exactly like the
            // scalar path; a key leaves the lane at its first match.
            for cell in self.cells.iter().rev() {
                if cell.is_empty() {
                    continue; // no live group can match — skip the cell
                }
                // Stage 1: collapse + hash each still-live lane key once
                // for this cell, then kick off the Index Table (Bloomier)
                // probes. Live lanes are compacted to the front so the
                // batched slot resolver sees a dense digest array; the
                // prepared digest is reused by every later stage.
                let mut prep = [PreparedKey::default(); LANES];
                let mut lane_of = [0usize; LANES];
                let mut live = 0usize;
                for (i, key) in kc.iter().enumerate() {
                    if !done[i] {
                        debug_assert_eq!(key.family(), self.config.family);
                        prep[live] = cell.prepare(key.value());
                        cell.prefetch_index(&prep[live]);
                        lane_of[live] = i;
                        live += 1;
                    }
                }
                // Stage 2: resolve every live slot in one call (AVX2
                // gather lanes when available, scalar otherwise); prefetch
                // the Filter/Bit-vector rows they name.
                let mut slots = [0u32; LANES];
                cell.probe_slots(&prep[..live], &mut slots[..live]);
                for &slot in &slots[..live] {
                    cell.prefetch_row(slot);
                }
                // Stage 3: validate and read out the next hops.
                for j in 0..live {
                    let hop = cell.lookup_at(slots[j], &prep[j]);
                    counter.probe(cell, &prep[j], slots[j], hop);
                    if hop.is_some() {
                        oc[lane_of[j]] = hop;
                        done[lane_of[j]] = true;
                    }
                }
                if done[..kc.len()].iter().all(|&d| d) {
                    break;
                }
            }
            for (i, o) in oc.iter_mut().enumerate() {
                if !done[i] {
                    *o = self.default_route;
                }
            }
        }
    }

    /// Applies a BGP `announce(p, len, h)`: inserts the prefix or updates
    /// its next hop, classifying how the update was absorbed (Figure 14).
    ///
    /// The update runs through the batch engine as a window of one (see
    /// [`ChiselLpm::apply_batch`]): a new collapsed key that finds no
    /// singleton re-sets up its own partition only (Section 4.4.2), and is
    /// parked in the spillover TCAM when no encoding fits.
    ///
    /// # Errors
    ///
    /// Fails on family mismatch or an unsupported prefix length, and with
    /// [`ChiselError::SpilloverOverflow`] when the new key could be
    /// neither encoded nor parked (the announce is then rolled back).
    pub fn announce(
        &mut self,
        prefix: Prefix,
        next_hop: NextHop,
    ) -> Result<UpdateKind, ChiselError> {
        self.apply_one(RouteUpdate::Announce(prefix, next_hop))
    }

    /// Applies a BGP `withdraw(p, len)`: removes the prefix if present.
    /// Like [`ChiselLpm::announce`], a window of one.
    ///
    /// # Errors
    ///
    /// Fails on family mismatch or an unsupported prefix length.
    pub fn withdraw(&mut self, prefix: Prefix) -> Result<UpdateKind, ChiselError> {
        self.apply_one(RouteUpdate::Withdraw(prefix))
    }

    /// One update as a window of one. What a window only reports — an
    /// invalid event, or an insert rolled back for lack of TCAM room — is
    /// an error here.
    fn apply_one(&mut self, update: RouteUpdate) -> Result<UpdateKind, ChiselError> {
        let cell = self.cell_of(update.prefix())?;
        let (_, kinds) = self.apply_window(&[update])?;
        if let Some(kind) = kinds[0] {
            return Ok(kind);
        }
        let ci = cell.expect("only a new collapsed key of a sub-cell rolls back");
        Err(ChiselError::SpilloverOverflow {
            needed: self.cells[ci].spill_len() + 1,
            capacity: self.config.spill_capacity,
        })
    }

    /// The sub-cell serving `prefix`, or `None` for the default route.
    fn cell_of(&self, prefix: Prefix) -> Result<Option<usize>, ChiselError> {
        if prefix.family() != self.config.family {
            return Err(ChiselError::FamilyMismatch);
        }
        if prefix.is_empty() {
            return Ok(None);
        }
        match self.plan.cell_for(prefix.len()) {
            Some(ci) => Ok(Some(ci)),
            None => Err(ChiselError::UnsupportedLength { len: prefix.len() }),
        }
    }

    /// Applies a whole window of updates as one logical change.
    ///
    /// The window is coalesced to its per-prefix net effect first (an
    /// announce/withdraw/announce flap collapses to one change, next-hop
    /// churn to the last write — see [`BatchPlan`]), the residue is
    /// applied incrementally, and every insert that would force a
    /// partition re-setup is *deferred*: the key is parked transiently in
    /// the spillover TCAM (so the cell stays fully consistent and
    /// serveable), then all required re-setups run **in parallel** over
    /// the build-thread pool as build-then-commit rebuild units — one
    /// unit per touched (cell, partition), committed in a fixed order.
    /// Inserts sharing a unit cost one rebuild instead of one each.
    ///
    /// One `version` bump covers the window, so a [`crate::FlowCache`]
    /// invalidates wholesale once per batch; through
    /// [`crate::SharedChisel::apply_batch`] the window publishes as a
    /// single snapshot generation while readers keep serving the previous
    /// one.
    ///
    /// Invalid events (wrong family / unsupported length) and events of
    /// residual ops rolled back by a failed re-setup with no TCAM room
    /// are reported in [`BatchReport::rejected_events`] instead of
    /// failing the window: the resulting state is exactly the sequential
    /// application of the window minus those events.
    ///
    /// Only these windows count in [`ChiselLpm::batch_stats`]: the
    /// one-at-a-time [`ChiselLpm::announce`] and [`ChiselLpm::withdraw`]
    /// never touch those counters.
    ///
    /// # Errors
    ///
    /// Structural Bloomier failures and injected faults propagate, and
    /// the bare engine may then be partially updated (exactly like a
    /// failed [`ChiselLpm::announce`]); the snapshot path discards the
    /// torn clone, so published generations are always whole windows.
    pub fn apply_batch(&mut self, events: &[RouteUpdate]) -> Result<BatchReport, ChiselError> {
        if events.is_empty() {
            return Ok(BatchReport::default());
        }
        let (report, _) = self.apply_window(events)?;
        self.batch.batches_published += 1;
        self.batch.events_ingested += report.ingested as u64;
        self.batch.events_coalesced += report.coalesced as u64;
        self.batch.events_rejected += report.rejected_events.len() as u64;
        self.batch.resetups_saved += report.resetups_saved;
        self.batch.parallel_resetups += report.parallel_resetups as u64;
        Ok(report)
    }

    /// The window engine behind [`ChiselLpm::apply_batch`] and the
    /// one-at-a-time updates. Returns the window's report and, per
    /// residual op of its coalesced plan, the op's classification (`None`
    /// when it was rolled back for lack of TCAM room). `events` must not
    /// be empty.
    fn apply_window(
        &mut self,
        events: &[RouteUpdate],
    ) -> Result<(BatchReport, Vec<Option<UpdateKind>>), ChiselError> {
        let mut report = BatchReport {
            ingested: events.len(),
            ..BatchReport::default()
        };
        // One conservative flow-cache invalidation for the whole window.
        self.version += 1;

        // Validate per event up front so one bad event cannot poison the
        // window — the sequential path would reject it and carry on.
        let mut valid: Vec<(usize, RouteUpdate)> = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            if self.cell_of(ev.prefix()).is_ok() {
                valid.push((i, *ev));
            } else {
                report.rejected_events.push(i);
            }
        }

        // Coalesce to the per-prefix net effect, keeping the raw window
        // positions each residual op stands for.
        let residual: Vec<RouteUpdate> = valid.iter().map(|&(_, ev)| ev).collect();
        let bplan = BatchPlan::of(&residual);
        report.coalesced = bplan.coalesced();
        let absorbed_raw: Vec<Vec<usize>> = bplan
            .ops
            .iter()
            .map(|op| op.absorbed.iter().map(|&pos| valid[pos].0).collect())
            .collect();

        // Incremental pass: apply residual ops in order. Each prefix has
        // at most one op, so a deferred (TCAM-parked) insert can never be
        // emptied or withdrawn later in the same window.
        struct PendingInsert {
            /// Residual-op index (into `bplan.ops`).
            op: usize,
            ci: usize,
            collapsed: u128,
            slot: u32,
        }
        let mut pending: Vec<PendingInsert> = Vec::new();
        let mut kinds: Vec<Option<UpdateKind>> = vec![None; bplan.ops.len()];
        for (oi, planned) in bplan.ops.iter().enumerate() {
            match planned.op {
                RouteUpdate::Announce(prefix, next_hop) => {
                    let flap = self.recent.take(&prefix);
                    if prefix.is_empty() {
                        // `len` tracks whether the slot was empty, not the
                        // flap tag: a withdraw/re-announce flap of the
                        // default route removed a route and restores it.
                        let restored = self.default_route.is_none();
                        let kind = if flap {
                            UpdateKind::RouteFlap
                        } else if restored {
                            UpdateKind::AddCollapsed
                        } else {
                            UpdateKind::NextHopChange
                        };
                        if restored {
                            self.len += 1;
                        }
                        self.default_route = Some(next_hop);
                        kinds[oi] = Some(kind);
                        continue;
                    }
                    let ci = self.plan.cell_for(prefix.len()).expect("validated above");
                    let base = self.plan.cells()[ci].base;
                    let collapsed = prefix.truncate(base).bits();
                    let depth = prefix.len() - base;
                    let suffix = prefix.suffix_below(base);
                    let res = Arc::make_mut(&mut self.cells[ci])
                        .announce(collapsed, depth, suffix, next_hop)?;
                    if res.grew {
                        // The capacity-doubling rebuild re-encoded every
                        // live group of the cell: earlier deferred inserts
                        // of this cell are resolved re-setups now (and
                        // their recorded slots are stale — drop them).
                        pending.retain(|p| {
                            if p.ci == ci {
                                kinds[p.op] = Some(UpdateKind::Resetup);
                                report.resetups_saved += 1;
                                false
                            } else {
                                true
                            }
                        });
                    }
                    match res.step {
                        BatchStep::Applied(outcome) => {
                            let kind = match outcome {
                                AnnounceOutcome::DirtyRestore => UpdateKind::RouteFlap,
                                AnnounceOutcome::NextHopOnly | AnnounceOutcome::Collapsed
                                    if flap =>
                                {
                                    UpdateKind::RouteFlap
                                }
                                AnnounceOutcome::NextHopOnly => UpdateKind::NextHopChange,
                                AnnounceOutcome::Collapsed => UpdateKind::AddCollapsed,
                                AnnounceOutcome::Singleton => UpdateKind::AddSingleton,
                                AnnounceOutcome::Resetup => UpdateKind::Resetup,
                            };
                            if !matches!(outcome, AnnounceOutcome::NextHopOnly) {
                                self.len += 1;
                            }
                            kinds[oi] = Some(kind);
                        }
                        BatchStep::Pending(slot) => {
                            // Counted now; rolled back below if the unit
                            // degrades and the TCAM has no room.
                            self.len += 1;
                            pending.push(PendingInsert {
                                op: oi,
                                ci,
                                collapsed,
                                slot,
                            });
                        }
                    }
                }
                RouteUpdate::Withdraw(prefix) => {
                    let existed = if prefix.is_empty() {
                        self.default_route.take().is_some()
                    } else {
                        let ci = self.plan.cell_for(prefix.len()).expect("validated above");
                        let base = self.plan.cells()[ci].base;
                        Arc::make_mut(&mut self.cells[ci]).withdraw(
                            prefix.truncate(base).bits(),
                            prefix.len() - base,
                            prefix.suffix_below(base),
                        )
                    };
                    if existed {
                        self.len -= 1;
                        self.recent.record(prefix);
                    }
                    kinds[oi] = Some(UpdateKind::Withdraw);
                }
            }
        }

        // Rebuild phase: group the surviving deferred inserts into
        // (cell, partition) units — partition membership is selector-
        // stable, so the grouping is commit-order independent — and run
        // every unit's gather + candidate build concurrently against the
        // shared pre-commit state. Commits are sequential in unit order
        // (build-then-commit: a failed unit leaves its partition exactly
        // as it was).
        if !pending.is_empty() {
            let mut grouped: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
            for (pi, p) in pending.iter().enumerate() {
                let part = self.cells[p.ci].partition_of(p.collapsed);
                grouped.entry((p.ci, part)).or_default().push(pi);
            }
            report.parallel_resetups = grouped.len();
            report.resetups_saved += (pending.len() - grouped.len()) as u64;
            // Fault decisions are occurrence-counted in call order, so
            // the SETUP_FAIL draws happen sequentially (unit order) up
            // front; the parallel builders consume fixed decisions.
            type Unit = ((usize, usize), Vec<usize>, bool);
            let units: Vec<Unit> = grouped
                .into_iter()
                .map(|(key, pis)| (key, pis, faultpoint::fire(faultpoint::SETUP_FAIL)))
                .collect();
            let threads = resolve_threads(self.config.build_threads);
            let cells = &self.cells;
            type Built = Result<(PartitionResetupPlan, Option<RebuildCandidate>), ChiselError>;
            let built: Vec<Built> = parallel_map(threads, &units, |_, &((ci, part), _, failed)| {
                let rplan = cells[ci].plan_partition_resetup(part);
                let candidate = if failed {
                    None
                } else {
                    Some(cells[ci].build_resetup_candidate(&rplan)?)
                };
                Ok((rplan, candidate))
            });
            for (((ci, _), pis, _), built) in units.iter().zip(built) {
                let (rplan, candidate) = built?;
                let unit_pending: Vec<(u128, u32)> = pis
                    .iter()
                    .map(|&pi| (pending[pi].collapsed, pending[pi].slot))
                    .collect();
                let (committed, parked) = Arc::make_mut(&mut self.cells[*ci])
                    .commit_partition_resetup(&rplan, candidate, &unit_pending);
                for (j, &pi) in pis.iter().enumerate() {
                    if committed {
                        kinds[pending[pi].op] = Some(UpdateKind::Resetup);
                    } else if j < parked {
                        kinds[pending[pi].op] = Some(UpdateKind::DegradedSpill);
                    } else {
                        // Rolled back: undo the provisional add and report
                        // the op's raw events as rejected. The collapsed
                        // group was new this window, so any absorbed
                        // same-prefix withdraws were no-ops — excluding
                        // the whole absorbed set keeps the accepted
                        // sequence equivalent to what was applied.
                        self.len -= 1;
                        report
                            .rejected_events
                            .extend(absorbed_raw[pending[pi].op].iter().copied());
                    }
                }
            }
        }

        // Models the control plane dying mid-window: the bare engine is
        // torn, the snapshot path discards the clone — so a published
        // generation always reflects a whole window (atomicity).
        if faultpoint::fire(faultpoint::PARTIAL_UPDATE) {
            return Err(ChiselError::FaultInjected {
                site: faultpoint::PARTIAL_UPDATE,
            });
        }

        for kind in kinds.iter().flatten() {
            self.stats.record(*kind);
            report.kinds.record(*kind);
        }
        report.applied_ops = report.kinds.total();
        report.rejected_events.sort_unstable();
        Ok((report, kinds))
    }

    /// Cumulative batched-update counters ([`ChiselLpm::apply_batch`]).
    pub fn batch_stats(&self) -> BatchStats {
        self.batch
    }

    /// Update-classification tallies since build.
    pub fn update_stats(&self) -> UpdateStats {
        self.stats
    }

    /// Resets update tallies (e.g. between trace replays).
    pub fn reset_update_stats(&mut self) {
        self.stats = UpdateStats::default();
    }

    /// Total spillover TCAM occupancy across sub-cells.
    pub fn spill_len(&self) -> usize {
        self.cells.iter().map(|c| c.spill_len()).sum()
    }

    /// Total partition re-setups performed across sub-cells.
    pub fn resetups(&self) -> u64 {
        self.cells.iter().map(|c| c.resetups()).sum()
    }

    /// A consolidated health snapshot: update tallies, re-setup recovery
    /// counters, degraded-mode status and spillover occupancy, merged
    /// across all sub-cells.
    pub fn engine_stats(&self) -> EngineStats {
        let mut recovery = RecoveryStats::default();
        let mut parked = 0usize;
        for cell in self.cells.iter() {
            recovery.merge(&cell.recovery());
            parked += cell.degraded_len();
        }
        EngineStats {
            updates: self.stats,
            batch: self.batch,
            recovery,
            degraded: if parked > 0 {
                DegradedMode::Degraded {
                    parked_keys: parked,
                }
            } else {
                DegradedMode::Normal
            },
            routes: self.len,
            groups: self.groups(),
            spill_len: self.spill_len(),
            spill_capacity: self.config.spill_capacity * self.cells.len(),
            resetups: self.resetups(),
        }
    }

    /// Actual on-chip storage of this engine instance, summed over
    /// sub-cells with their real geometries.
    pub fn storage(&self) -> StorageBreakdown {
        use chisel_prefix::bits::addr_bits;
        let mut s = StorageBreakdown::default();
        for cell in &self.cells {
            let cap = cell.capacity();
            // Measured off the packed arena: `total_m` entries of
            // `w = ceil(log2(capacity))` bits each.
            s.index_bits += cell.index_logical_bits();
            // Filter stores the collapsed key (base bits) + dirty bit; the
            // hardware provisions full key width, which we follow.
            s.filter_bits += cap as u64 * (self.config.family.width() as u64 + 1);
            let result_ptr = addr_bits(2 * cell.result_high_water().max(1)) as u64;
            s.bitvec_bits += cap as u64 * (cell.range().leaves() as u64 + result_ptr);
        }
        s
    }

    /// Number of live collapsed groups across sub-cells.
    pub fn groups(&self) -> usize {
        self.cells.iter().map(|c| c.groups()).sum()
    }

    /// Per-sub-cell packed Index Table geometry: `(locations, entry width
    /// w, Filter/Bit-vector capacity)` — the quantities of the Section 5
    /// storage model, where `w = ceil(log2(capacity))`.
    pub fn index_geometry(&self) -> Vec<(usize, u32, usize)> {
        self.cells
            .iter()
            .map(|c| (c.index_locations(), c.index_value_bits(), c.capacity()))
            .collect()
    }

    /// Physical bit-packed Index Table storage across sub-cells: whole
    /// 64-bit backing words (cache-line aligned), as opposed to the
    /// logical `m * w` figure reported by [`ChiselLpm::storage`].
    pub fn index_arena_bits(&self) -> u64 {
        self.cells.iter().map(|c| c.index_arena_bits()).sum()
    }

    /// Exports every table's raw memory words as a [`crate::HardwareImage`]
    /// — the payload the software shadow loads into the hardware engine
    /// (Section 4.4).
    pub fn export_image(&self) -> crate::HardwareImage {
        crate::HardwareImage {
            family: self.config.family,
            cells: self.cells.iter().map(|c| c.export_image()).collect(),
            default_route: self.default_route,
        }
    }

    /// Re-walks every inserted prefix through all four tables and checks
    /// the structural invariants the paper's correctness rests on — see
    /// [`crate::verify`] for the catalogue. Returns a report instead of
    /// panicking so callers (`chisel-router check`, the test suite) can
    /// show every violation at once.
    pub fn verify(&self) -> crate::verify::VerifyReport {
        let mut report = crate::verify::VerifyReport {
            cells: self.cells.len(),
            ..Default::default()
        };
        for (ci, cell) in self.cells.iter().enumerate() {
            cell.verify(ci, &mut report);
        }
        if self.default_route.is_some() {
            report.routes += 1;
        }
        // Engine-level reconciliation: the route enumeration used by
        // serialization must agree with the maintained length counter.
        let counted = self.iter_routes().count();
        if counted != self.len {
            report.push(
                None,
                None,
                "route-count",
                format!("enumerated {counted} routes but len() is {}", self.len),
            );
        }
        report
    }

    /// Enumerates every routable prefix with its next hop (including the
    /// default route), in no particular order. Used for verification.
    pub fn iter_routes(&self) -> impl Iterator<Item = RouteEntry> + '_ {
        let family = self.config.family;
        let default = self
            .default_route
            .map(|nh| RouteEntry::new(Prefix::default_route(family), nh));
        self.cells
            .iter()
            .flat_map(move |cell| {
                let base = cell.range().base;
                cell.iter_routes()
                    .map(move |(collapsed, depth, suffix, nh)| {
                        let p = Prefix::new(family, collapsed, base)
                            .expect("stored collapsed key is valid")
                            .extend(suffix, depth);
                        RouteEntry::new(p, nh)
                    })
            })
            .chain(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chisel_prefix::oracle::OracleLpm;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn k(s: &str) -> Key {
        s.parse().unwrap()
    }

    fn nh(i: u32) -> NextHop {
        NextHop::new(i)
    }

    fn small_table() -> RoutingTable {
        let mut t = RoutingTable::new_v4();
        t.insert(p("0.0.0.0/0"), nh(99));
        t.insert(p("10.0.0.0/8"), nh(1));
        t.insert(p("10.1.0.0/16"), nh(2));
        t.insert(p("10.1.2.0/24"), nh(3));
        t.insert(p("10.1.2.3/32"), nh(4));
        t.insert(p("192.168.0.0/16"), nh(5));
        t.insert(p("192.168.1.0/24"), nh(6));
        t
    }

    #[test]
    fn lookup_matches_oracle_on_small_table() {
        let t = small_table();
        let engine = ChiselLpm::build(&t, ChiselConfig::ipv4()).unwrap();
        let oracle = OracleLpm::from_table(&t);
        for key in [
            "10.1.2.3",
            "10.1.2.4",
            "10.1.3.1",
            "10.200.0.1",
            "192.168.1.77",
            "192.168.2.77",
            "8.8.8.8",
        ] {
            assert_eq!(engine.lookup(k(key)), oracle.lookup(k(key)), "key {key}");
        }
        assert_eq!(engine.len(), 7);
    }

    #[test]
    fn empty_table_builds() {
        let engine = ChiselLpm::build(&RoutingTable::new_v4(), ChiselConfig::ipv4()).unwrap();
        assert!(engine.is_empty());
        assert_eq!(engine.lookup(k("1.2.3.4")), None);
    }

    #[test]
    fn announce_then_lookup() {
        let mut engine = ChiselLpm::build(&RoutingTable::new_v4(), ChiselConfig::ipv4()).unwrap();
        engine.announce(p("10.0.0.0/8"), nh(1)).unwrap();
        engine.announce(p("10.1.0.0/16"), nh(2)).unwrap();
        assert_eq!(engine.lookup(k("10.1.0.1")), Some(nh(2)));
        assert_eq!(engine.lookup(k("10.2.0.1")), Some(nh(1)));
        assert_eq!(engine.len(), 2);
    }

    #[test]
    fn withdraw_then_lookup() {
        let mut engine = ChiselLpm::build(&small_table(), ChiselConfig::ipv4()).unwrap();
        engine.withdraw(p("10.1.2.0/24")).unwrap();
        assert_eq!(engine.lookup(k("10.1.2.200")), Some(nh(2)));
        engine.withdraw(p("10.1.0.0/16")).unwrap();
        assert_eq!(engine.lookup(k("10.1.2.200")), Some(nh(1)));
        assert_eq!(engine.len(), 5);
    }

    #[test]
    fn withdraw_absent_is_noop() {
        let mut engine = ChiselLpm::build(&small_table(), ChiselConfig::ipv4()).unwrap();
        let before = engine.len();
        engine.withdraw(p("99.0.0.0/8")).unwrap();
        assert_eq!(engine.len(), before);
    }

    #[test]
    fn update_classification() {
        let mut engine = ChiselLpm::build(&small_table(), ChiselConfig::ipv4()).unwrap();
        // Next-hop change on an existing prefix.
        assert_eq!(
            engine.announce(p("10.1.0.0/16"), nh(42)).unwrap(),
            UpdateKind::NextHopChange
        );
        assert_eq!(engine.lookup(k("10.1.9.9")), Some(nh(42)));
        // Add a prefix that collapses into the existing 10.1.2.0/24 group.
        assert_eq!(
            engine.announce(p("10.1.2.128/25"), nh(43)).unwrap(),
            UpdateKind::AddCollapsed
        );
        assert_eq!(engine.lookup(k("10.1.2.200")), Some(nh(43)));
        assert_eq!(engine.lookup(k("10.1.2.100")), Some(nh(3)));
        // Withdraw then re-announce: classified as a route flap.
        engine.withdraw(p("10.1.2.128/25")).unwrap();
        assert_eq!(
            engine.announce(p("10.1.2.128/25"), nh(44)).unwrap(),
            UpdateKind::RouteFlap
        );
        assert_eq!(engine.lookup(k("10.1.2.200")), Some(nh(44)));
    }

    #[test]
    fn dirty_bit_flap_restore() {
        let mut engine = ChiselLpm::build(&small_table(), ChiselConfig::ipv4()).unwrap();
        // 192.168.1.0/24 is alone in its group; withdrawing it empties the
        // group (dirty), and the re-announce must restore via the dirty bit.
        engine.withdraw(p("192.168.1.0/24")).unwrap();
        assert_eq!(engine.lookup(k("192.168.1.1")), Some(nh(5)));
        assert_eq!(
            engine.announce(p("192.168.1.0/24"), nh(7)).unwrap(),
            UpdateKind::RouteFlap
        );
        assert_eq!(engine.lookup(k("192.168.1.1")), Some(nh(7)));
    }

    #[test]
    fn default_route_updates() {
        let mut engine = ChiselLpm::build(&RoutingTable::new_v4(), ChiselConfig::ipv4()).unwrap();
        assert_eq!(engine.lookup(k("5.5.5.5")), None);
        assert_eq!(
            engine.announce(p("0.0.0.0/0"), nh(9)).unwrap(),
            UpdateKind::AddCollapsed
        );
        assert_eq!(engine.lookup(k("5.5.5.5")), Some(nh(9)));
        engine.withdraw(p("0.0.0.0/0")).unwrap();
        assert_eq!(engine.lookup(k("5.5.5.5")), None);
    }

    #[test]
    fn default_route_flap_keeps_len_consistent() {
        // A withdraw/re-announce flap of the default route must restore
        // the route count: the flap *classification* (RouteFlap) must not
        // suppress the `len` increment the restore implies.
        let mut engine = ChiselLpm::build(&RoutingTable::new_v4(), ChiselConfig::ipv4()).unwrap();
        engine.announce(p("0.0.0.0/0"), nh(9)).unwrap();
        assert_eq!(engine.len(), 1);
        engine.withdraw(p("0.0.0.0/0")).unwrap();
        assert_eq!(engine.len(), 0);
        assert_eq!(
            engine.announce(p("0.0.0.0/0"), nh(7)).unwrap(),
            UpdateKind::RouteFlap
        );
        assert_eq!(engine.len(), 1);
        assert!(engine.verify().is_ok());

        // Same flap split across two batch windows (so coalescing cannot
        // cancel it) through the batched path.
        let mut batched = ChiselLpm::build(&RoutingTable::new_v4(), ChiselConfig::ipv4()).unwrap();
        batched
            .apply_batch(&[RouteUpdate::Announce(p("0.0.0.0/0"), nh(9))])
            .unwrap();
        batched
            .apply_batch(&[RouteUpdate::Withdraw(p("0.0.0.0/0"))])
            .unwrap();
        batched
            .apply_batch(&[RouteUpdate::Announce(p("0.0.0.0/0"), nh(7))])
            .unwrap();
        assert_eq!(batched.len(), 1);
        assert!(batched.verify().is_ok());
    }

    #[test]
    fn iter_routes_roundtrip() {
        let t = small_table();
        let engine = ChiselLpm::build(&t, ChiselConfig::ipv4()).unwrap();
        let mut recovered = RoutingTable::new_v4();
        recovered.extend(engine.iter_routes());
        assert_eq!(recovered, t);
    }

    #[test]
    fn ipv6_basic() {
        let mut t = RoutingTable::new_v6();
        t.insert(p("2001:db8::/32"), nh(1));
        t.insert(p("2001:db8:1::/48"), nh(2));
        t.insert(p("2001:db8:1:2::/64"), nh(3));
        let engine = ChiselLpm::build(&t, ChiselConfig::ipv6()).unwrap();
        assert_eq!(engine.lookup(k("2001:db8:1:2::99")), Some(nh(3)));
        assert_eq!(engine.lookup(k("2001:db8:1:3::99")), Some(nh(2)));
        assert_eq!(engine.lookup(k("2001:db8:ff::1")), Some(nh(1)));
        assert_eq!(engine.lookup(k("2002::1")), None);
    }

    #[test]
    fn family_mismatch_rejected() {
        let engine = ChiselLpm::build(&RoutingTable::new_v4(), ChiselConfig::ipv4()).unwrap();
        let mut e2 = engine.clone();
        assert_eq!(
            e2.announce(p("2001:db8::/32"), nh(1)).unwrap_err(),
            ChiselError::FamilyMismatch
        );
        assert!(matches!(
            ChiselLpm::build(&RoutingTable::new_v6(), ChiselConfig::ipv4()),
            Err(ChiselError::FamilyMismatch)
        ));
    }

    #[test]
    fn lookup_trace_depth() {
        let engine = ChiselLpm::build(&small_table(), ChiselConfig::ipv4()).unwrap();
        let mut trace = LookupTrace::default();
        let _ = engine.lookup_traced(k("10.1.2.3"), &mut trace);
        assert!(trace.result_reads == 1, "exactly one off-chip access");
        assert!(trace.index_reads >= 1);
    }

    #[test]
    fn storage_is_nonzero_and_scales() {
        let engine = ChiselLpm::build(&small_table(), ChiselConfig::ipv4()).unwrap();
        let s = engine.storage();
        assert!(s.index_bits > 0 && s.filter_bits > 0 && s.bitvec_bits > 0);
    }

    #[test]
    fn storage_matches_section5_packed_model() {
        use chisel_prefix::bits::addr_bits;
        // The flat layout is the exact Section 5 model; the blocked
        // default adds per-line padding, covered by the test below.
        let engine =
            ChiselLpm::build(&small_table(), ChiselConfig::ipv4().blocked_index(false)).unwrap();
        let geometry = engine.index_geometry();
        // Section 5 storage model: every Index Table entry is a packed
        // w = ceil(log2(table depth)) bit pointer, and the reported
        // storage is exactly m * w per sub-cell.
        let mut model_bits = 0u64;
        for &(m, w, capacity) in &geometry {
            assert_eq!(w, addr_bits(capacity), "w must be ceil(log2(depth))");
            model_bits += m as u64 * w as u64;
        }
        assert_eq!(engine.storage().index_bits, model_bits);
        // Packing must beat the full-width Vec<u32> layout it replaced.
        let unpacked: u64 = geometry.iter().map(|&(m, _, _)| m as u64 * 32).sum();
        assert!(model_bits < unpacked, "{model_bits} !< {unpacked}");
        // The physical arena rounds up to whole 64-bit words per
        // partition — bounded overhead, never more.
        let partitions: u64 = geometry.len() as u64 * engine.config().partitions as u64;
        let arena = engine.index_arena_bits();
        assert!(arena >= model_bits);
        assert!(arena - model_bits < 64 * partitions);
    }

    #[test]
    fn blocked_arena_rounds_to_whole_lines() {
        use chisel_prefix::bits::addr_bits;
        let engine = ChiselLpm::build(&small_table(), ChiselConfig::ipv4()).unwrap();
        let geometry = engine.index_geometry();
        // Blocking rounds m itself up to whole cache-line blocks, so the
        // logical m * w model still prices every entry exactly...
        let mut model_bits = 0u64;
        let mut line_bits = 0u64;
        for &(m, w, capacity) in &geometry {
            assert_eq!(w, addr_bits(capacity), "w must be ceil(log2(depth))");
            let epl = 512 / w as usize;
            assert_eq!(m % epl, 0, "blocked m must be whole 64-byte lines");
            model_bits += m as u64 * w as u64;
            line_bits += (m / epl) as u64 * 512;
        }
        assert_eq!(engine.storage().index_bits, model_bits);
        // ...and the physical arena is exactly whole 64-byte lines: the
        // per-line pad of 512 - epl * w (< w) bits is the storage price
        // of the one-cache-line-per-lookup guarantee.
        assert_eq!(engine.index_arena_bits(), line_bits);
    }

    #[test]
    fn build_threads_do_not_change_the_engine_image() {
        let t = small_table();
        let baseline = ChiselLpm::build(&t, ChiselConfig::ipv4().build_threads(1))
            .unwrap()
            .export_image()
            .to_bytes();
        for threads in [2usize, 8] {
            let image = ChiselLpm::build(&t, ChiselConfig::ipv4().build_threads(threads))
                .unwrap()
                .export_image()
                .to_bytes();
            assert_eq!(image, baseline, "image diverged at {threads} threads");
        }
    }
}
