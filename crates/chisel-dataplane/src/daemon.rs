//! The sharded run-to-completion daemon.
//!
//! Topology (the capsule-style per-core pipeline, in software):
//!
//! ```text
//!                       ┌─▶ shard 0: CachedReader(snapshot pin + FlowCache) ─▶ ShardStats
//! keystream ─▶ dispatch ┼─▶ shard 1: ...                                    ─▶ ShardStats
//!  (batches)  (RSS hash)└─▶ shard N-1: ...                                  ─▶ ShardStats
//!                                       ▲ snapshots
//!              control plane ───────────┘ (announce/withdraw ─▶ publish)
//! ```
//!
//! - The **dispatcher** (caller's thread) walks the key stream in batches
//!   ([`BatchSource`](chisel_workloads::keystream::BatchSource)), buckets
//!   keys by [`FlowDispatcher`] flow hash, and feeds each shard through a
//!   bounded queue (backpressure, no unbounded buffering).
//! - Each **worker shard** is run-to-completion: pull a batch, pin one
//!   snapshot, answer every key (flow-cache hits first, pipelined engine
//!   batch for the misses), fold into shard-owned counters. No locks, no
//!   shared mutable state on the forwarding path.
//! - The **control plane** is one thread applying an update trace through
//!   [`SharedChisel`]; each accepted update publishes a fresh snapshot
//!   that every shard picks up on its next batch — and implicitly
//!   invalidates all per-shard flow caches via the engine version stamp.
//! - **Shutdown/drain**: the dispatcher flushes partial buckets, drops
//!   the queue senders (the drain signal), and raises a stop flag for the
//!   control plane. Shards drain their queues to empty, finalize their
//!   counters, and exit; nothing in flight is dropped, so the post-drain
//!   roll-up balances exactly (`cache_hits + cache_misses == lookups`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chisel_core::faultpoint;
use chisel_core::journal::{DurableControl, DurableError, DurableOptions, DurableStats};
use chisel_core::{CachedReader, FlowCache, LookupTrace, SharedChisel};
use chisel_prefix::{Key, NextHop};
use chisel_workloads::keystream::BatchSource;
use chisel_workloads::UpdateEvent;

use crate::dispatch::FlowDispatcher;
use crate::stats::{DataplaneStats, ShardStats};

/// Static shape of the daemon: how many shards, how they are fed.
#[derive(Debug, Clone)]
pub struct DataplaneConfig {
    /// Worker shard count (≥ 1).
    pub shards: usize,
    /// Keys per batch handed to a shard.
    pub batch: usize,
    /// Flow-cache slots per shard.
    pub cache_slots: usize,
    /// Bounded queue depth per shard, in batches (dispatcher
    /// backpressure).
    pub queue_depth: usize,
    /// Keys in flight per software-pipeline wave inside a shard's miss
    /// sweep (see `ChiselLpm::lookup_batch_lanes`); deeper lanes hide
    /// more memory latency and feed the vectorized Index Table probe
    /// more work per gather.
    pub lane_depth: usize,
    /// Control-plane update batching window, in events. `1` (the
    /// default) replays the trace one event / one snapshot generation at
    /// a time; `> 1` feeds windows of that size through
    /// [`SharedChisel::apply_batch`], so each window coalesces, runs its
    /// re-setups in parallel, and publishes exactly one generation.
    pub update_batch: usize,
    /// Supervise worker shards (the default): a panicking shard is
    /// caught, respawned on a fresh reader over the current snapshot,
    /// and its batch retried once; the failure is reported as a
    /// [`ShardFailure`] with `respawned: true` instead of aborting the
    /// run. With supervision off a shard panic kills its thread and
    /// surfaces as a non-respawned `ShardFailure` at join.
    pub supervise: bool,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            shards: 1,
            batch: 64,
            cache_slots: FlowCache::DEFAULT_CAPACITY,
            queue_depth: 64,
            lane_depth: 64,
            update_batch: 1,
            supervise: true,
        }
    }
}

/// Per-run knobs: how long to feed, what the control plane replays.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// `None`: one pass over the key stream. `Some(d)`: loop the stream
    /// until the deadline (checked at batch granularity).
    pub duration: Option<Duration>,
    /// Update trace the control-plane thread applies concurrently (in
    /// order, once).
    pub updates: Vec<UpdateEvent>,
    /// Count typed update rejections instead of halting the control
    /// plane (the adversarial-storm mode).
    pub tolerate_rejections: bool,
    /// Record every batch's `(generation, keys, answers)` per shard —
    /// the shard-equivalence differential tests replay these against an
    /// oracle. Test-sized runs only.
    pub record: bool,
    /// Accumulate a per-shard [`LookupTrace`] (table reads,
    /// `degraded_hits`). Misses walk the scalar traced path, so leave
    /// this off when measuring throughput.
    pub traced: bool,
    /// Journal + checkpoint the control plane's updates through a
    /// [`DurableControl`] (see `chisel_core::journal`): an initial
    /// checkpoint at spawn, one journal record per accepted update (or
    /// window), periodic checkpoints, and a final checkpoint at drain.
    pub durable: Option<DurableOptions>,
    /// External shutdown flag (e.g. the SIGINT/SIGTERM latch from
    /// [`crate::signal::shutdown_flag`]). When set, the dispatcher runs
    /// the normal drain at the next batch boundary. With a `stop` flag
    /// and no `duration`, the stream loops until the flag is raised.
    pub stop: Option<Arc<AtomicBool>>,
}

/// One recorded shard batch: the snapshot generation it was answered at,
/// the keys, and the answers — enough to differentially re-check the
/// answer against any reference at the exact same generation.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Generation of the snapshot the whole batch was answered against.
    pub generation: u64,
    /// The batch's keys, in dispatch order.
    pub keys: Vec<Key>,
    /// The shard's answers, parallel to `keys`.
    pub answers: Vec<Option<NextHop>>,
}

/// What the control-plane thread did.
#[derive(Debug, Clone, Default)]
pub struct ControlReport {
    /// Updates accepted (each published one snapshot generation).
    pub applied: usize,
    /// Typed rejections tolerated (adversarial mode only).
    pub rejected: usize,
    /// First non-tolerated error, if the control plane halted on one.
    pub failed: Option<String>,
    /// Whether the stop flag cut the trace short at shutdown.
    pub halted: bool,
    /// Generation published when the control plane finished.
    pub final_generation: u64,
    /// The accepted events in application order (recorded runs only).
    /// With `update_batch == 1`, generation `g` is the state after
    /// `accepted[..g]`; with a wider window, use
    /// [`accepted_upto`](Self::accepted_upto) instead — one generation
    /// covers a whole window.
    pub accepted: Vec<UpdateEvent>,
    /// Generation the engine was at before the control plane applied
    /// anything (recorded runs only).
    pub start_generation: u64,
    /// Cumulative accepted-event count after each control-plane
    /// publication (recorded runs only): entry `i` belongs to generation
    /// `start_generation + 1 + i`. With batching, one entry covers a
    /// whole window — the intermediate counts were never observable.
    pub generation_events: Vec<usize>,
    /// Journal/checkpoint counters (durable runs only).
    pub durable: Option<DurableStats>,
}

impl ControlReport {
    /// How many accepted trace events are included in the state published
    /// as `generation` (recorded runs only). Zero at or before
    /// `start_generation`; saturates at the final count past the last
    /// control-plane publication.
    pub fn accepted_upto(&self, generation: u64) -> usize {
        if generation <= self.start_generation {
            return 0;
        }
        let idx = (generation - self.start_generation - 1) as usize;
        match self.generation_events.get(idx) {
            Some(&n) => n,
            None => match self.generation_events.last() {
                Some(&n) => n,
                None => 0,
            },
        }
    }
}

/// One worker-shard failure, typed instead of a propagated panic.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The shard that failed.
    pub shard: usize,
    /// The panic payload, stringified.
    pub panic: String,
    /// Whether supervision respawned the shard (the run continued on a
    /// fresh reader). `false` means the shard thread died and its queue
    /// went unserved from that point on.
    pub respawned: bool,
    /// Keys abandoned because of this failure (0 when the respawned
    /// shard's batch retry succeeded).
    pub lost_keys: u64,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct DataplaneReport {
    /// Final counters of every shard, indexed by shard id.
    pub per_shard: Vec<ShardStats>,
    /// The order-independent roll-up of `per_shard`.
    pub aggregate: DataplaneStats,
    /// Control-plane outcome.
    pub control: ControlReport,
    /// Wall time from first dispatch to full drain.
    pub elapsed: Duration,
    /// Recorded batches per shard (empty unless [`RunOptions::record`]).
    pub records: Vec<Vec<BatchRecord>>,
    /// Every worker failure, whether supervision recovered it or not.
    /// Empty after a clean run.
    pub failures: Vec<ShardFailure>,
}

impl DataplaneReport {
    /// Aggregate throughput in million searches per second.
    pub fn aggregate_msps(&self) -> f64 {
        self.aggregate.aggregate_msps(self.elapsed.as_secs_f64())
    }

    /// Whether the run ended with no unrecovered damage: every failure
    /// (if any) was respawned with its batch retried successfully, and
    /// the control plane did not halt on an error.
    pub fn healthy(&self) -> bool {
        self.control.failed.is_none()
            && self
                .failures
                .iter()
                .all(|f| f.respawned && f.lost_keys == 0)
    }
}

/// The sharded forwarding daemon over one shared engine.
#[derive(Debug, Clone)]
pub struct Dataplane {
    shared: SharedChisel,
    config: DataplaneConfig,
}

impl Dataplane {
    /// A daemon over `shared` with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `batch` or `queue_depth` is zero.
    pub fn new(shared: SharedChisel, config: DataplaneConfig) -> Self {
        assert!(config.shards > 0, "Dataplane needs at least one shard");
        assert!(config.batch > 0, "Dataplane batch size must be nonzero");
        assert!(
            config.queue_depth > 0,
            "Dataplane queue depth must be nonzero"
        );
        assert!(
            config.update_batch > 0,
            "Dataplane update batch window must be nonzero"
        );
        Dataplane { shared, config }
    }

    /// The shared engine handle (the control plane's write side).
    pub fn shared(&self) -> &SharedChisel {
        &self.shared
    }

    /// The daemon's shape.
    pub fn config(&self) -> &DataplaneConfig {
        &self.config
    }

    /// Runs the daemon over `keys`: spawns the shards (and the control
    /// plane if `opts.updates` is nonempty or the run is durable),
    /// dispatches from the calling thread, then drains and joins
    /// everything before returning.
    ///
    /// A worker panic never propagates out of `run`: supervised shards
    /// are respawned in place, and an unsupervised shard death is
    /// reported as a non-respawned [`ShardFailure`] in the report.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty.
    pub fn run(&self, keys: &[Key], opts: &RunOptions) -> DataplaneReport {
        assert!(
            !keys.is_empty(),
            "Dataplane::run needs a nonempty key stream"
        );
        let n = self.config.shards;
        let stop = Arc::new(AtomicBool::new(false));
        let dispatcher = FlowDispatcher::new(n);

        std::thread::scope(|scope| {
            let mut txs = Vec::with_capacity(n);
            let mut shard_handles = Vec::with_capacity(n);
            for shard in 0..n {
                let (tx, rx) = sync_channel::<Vec<Key>>(self.config.queue_depth);
                txs.push(tx);
                let reader = self.shared.reader_with_capacity(self.config.cache_slots);
                let record = opts.record;
                let traced = opts.traced;
                let lanes = self.config.lane_depth;
                let supervise = self.config.supervise;
                let cache_slots = self.config.cache_slots;
                shard_handles.push(scope.spawn(move || {
                    shard_main(
                        shard,
                        reader,
                        rx,
                        record,
                        traced,
                        lanes,
                        supervise,
                        cache_slots,
                    )
                }));
            }
            let control_handle = (!opts.updates.is_empty() || opts.durable.is_some()).then(|| {
                let shared = self.shared.clone();
                let stop = Arc::clone(&stop);
                let updates = &opts.updates[..];
                let tolerate = opts.tolerate_rejections;
                let record = opts.record;
                let window = self.config.update_batch;
                let durable = opts.durable.clone();
                scope.spawn(move || {
                    control_main(&shared, updates, &stop, tolerate, record, window, durable)
                })
            });

            // Dispatch until the pass (or the clock, or an external
            // shutdown signal) runs out.
            let start = Instant::now();
            let deadline = opts.duration.map(|d| start + d);
            let external = opts.stop.as_deref();
            let mut source = BatchSource::new(keys);
            let mut buckets: Vec<Vec<Key>> = (0..n)
                .map(|_| Vec::with_capacity(self.config.batch))
                .collect();
            'feed: loop {
                if external.is_some_and(|f| f.load(Ordering::Acquire)) {
                    break;
                }
                let chunk = source.next_batch(self.config.batch);
                for &key in chunk {
                    let s = dispatcher.shard_of(key);
                    buckets[s].push(key);
                    if buckets[s].len() >= self.config.batch {
                        let full = std::mem::replace(
                            &mut buckets[s],
                            Vec::with_capacity(self.config.batch),
                        );
                        if txs[s].send(full).is_err() {
                            break 'feed; // a shard died; drain what's left
                        }
                    }
                }
                match deadline {
                    // A run holding an external stop flag (serve mode)
                    // loops the stream until the flag is raised.
                    None if external.is_none() && source.laps() > 0 => break,
                    Some(d) if Instant::now() >= d => break,
                    _ => {}
                }
            }
            // Drain protocol: flush partial buckets, close the queues,
            // wind down the control plane, then join in any order.
            for (s, bucket) in buckets.into_iter().enumerate() {
                if !bucket.is_empty() {
                    let _ = txs[s].send(bucket);
                }
            }
            drop(txs);
            stop.store(true, Ordering::Release);

            let mut per_shard = Vec::with_capacity(n);
            let mut records = Vec::with_capacity(n);
            let mut failures = Vec::new();
            for (shard, h) in shard_handles.into_iter().enumerate() {
                match h.join() {
                    Ok((stats, recs, fails)) => {
                        per_shard.push(stats);
                        records.push(recs);
                        failures.extend(fails);
                    }
                    // An unsupervised worker died: report the typed
                    // failure instead of aborting the whole run. Its
                    // counters up to the panic are lost with the thread.
                    Err(payload) => {
                        failures.push(ShardFailure {
                            shard,
                            panic: panic_message(payload.as_ref()),
                            respawned: false,
                            lost_keys: 0,
                        });
                        per_shard.push(ShardStats::new(shard));
                        records.push(Vec::new());
                    }
                }
            }
            let elapsed = start.elapsed();
            per_shard.sort_by_key(|s| s.shard);
            let control = match control_handle {
                Some(h) => match h.join() {
                    Ok(report) => report,
                    Err(payload) => ControlReport {
                        failed: Some(format!(
                            "control plane panicked: {}",
                            panic_message(payload.as_ref())
                        )),
                        final_generation: self.shared.generation(),
                        ..ControlReport::default()
                    },
                },
                None => ControlReport {
                    final_generation: self.shared.generation(),
                    ..ControlReport::default()
                },
            };
            let aggregate = DataplaneStats::roll_up(per_shard.iter());
            DataplaneReport {
                per_shard,
                aggregate,
                control,
                elapsed,
                records,
                failures,
            }
        })
    }
}

/// Stringifies a caught panic payload (the two shapes `panic!` emits).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Answers one batch against a single pinned snapshot, returning the
/// generation it was answered at. The `shard-panic` faultpoint cuts the
/// worker here under `--cfg faultpoint`, before any counter moves — the
/// supervision story the crash harness exercises.
fn answer_batch(
    reader: &mut CachedReader,
    batch: &[Key],
    out: &mut Vec<Option<NextHop>>,
    trace: &mut LookupTrace,
    traced: bool,
    lanes: usize,
) -> u64 {
    if faultpoint::fire(faultpoint::SHARD_PANIC) {
        // PANIC-OK: this is the injected worker crash itself (test
        // builds only) — the panic *is* the fault being simulated.
        panic!("injected fault at {}", faultpoint::SHARD_PANIC);
    }
    out.clear();
    out.resize(batch.len(), None);
    if traced {
        reader.lookup_batch_traced(batch, out, trace)
    } else {
        reader.lookup_batch_pinned_lanes(batch, out, lanes)
    }
}

/// One run-to-completion worker: pull batches until the queue closes and
/// drains, answering each batch against a single pinned snapshot.
///
/// Supervised, the worker is self-healing: a panic while answering is
/// caught, the (possibly poisoned) reader is retired — its committed
/// cache counters folded into the shard totals — a fresh reader is
/// pinned over the current snapshot, and the batch is retried once. A
/// second panic on the same batch abandons it with explicit
/// `dropped_batches`/`dropped_keys` accounting; the shard then keeps
/// serving its queue. Unsupervised, the panic propagates and kills the
/// thread (reported as a non-respawned [`ShardFailure`] at join).
#[allow(clippy::too_many_arguments)]
fn shard_main(
    shard: usize,
    mut reader: CachedReader,
    rx: Receiver<Vec<Key>>,
    record: bool,
    traced: bool,
    lanes: usize,
    supervise: bool,
    cache_slots: usize,
) -> (ShardStats, Vec<BatchRecord>, Vec<ShardFailure>) {
    let mut stats = ShardStats::new(shard);
    let mut records = Vec::new();
    let mut failures = Vec::new();
    let mut trace = LookupTrace::default();
    let mut out: Vec<Option<NextHop>> = Vec::new();
    // Cache counters of readers retired by supervision, already folded.
    let mut retired = (0u64, 0u64);
    while let Ok(batch) = rx.recv() {
        let mut generation = None;
        for attempt in 0..2 {
            if !supervise {
                generation = Some(answer_batch(
                    &mut reader,
                    &batch,
                    &mut out,
                    &mut trace,
                    traced,
                    lanes,
                ));
                break;
            }
            // Marks taken before the attempt: a panicking attempt's
            // partial counter movement is rolled back so the shard's
            // books only ever contain committed batches.
            let trace_mark = trace;
            let cache_mark = (reader.cache().hits(), reader.cache().misses());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                answer_batch(&mut reader, &batch, &mut out, &mut trace, traced, lanes)
            }));
            match outcome {
                Ok(g) => {
                    generation = Some(g);
                    break;
                }
                Err(payload) => {
                    trace = trace_mark;
                    // Retire the reader mid-panic state and all: only
                    // its pre-attempt counters are committed.
                    retired.0 += cache_mark.0;
                    retired.1 += cache_mark.1;
                    reader = reader.shared().reader_with_capacity(cache_slots);
                    stats.respawns += 1;
                    let dropping = attempt == 1;
                    failures.push(ShardFailure {
                        shard,
                        panic: panic_message(payload.as_ref()),
                        respawned: true,
                        lost_keys: if dropping { batch.len() as u64 } else { 0 },
                    });
                    if dropping {
                        stats.dropped_batches += 1;
                        stats.dropped_keys += batch.len() as u64;
                    }
                }
            }
        }
        let Some(generation) = generation else {
            continue; // batch abandoned after the retry also panicked
        };
        stats.batches += 1;
        stats.lookups += batch.len() as u64;
        let matched = out.iter().filter(|o| o.is_some()).count() as u64;
        stats.matched += matched;
        stats.no_route += batch.len() as u64 - matched;
        stats.observe_generation(generation);
        if record {
            records.push(BatchRecord {
                generation,
                keys: batch,
                answers: out.clone(),
            });
        }
    }
    // The queue is closed and empty: finalize. Cache counters are read
    // once here so nothing is lost between last batch and shutdown;
    // retired readers' committed counters are folded back in.
    stats.cache_hits = retired.0 + reader.cache().hits();
    stats.cache_misses = retired.1 + reader.cache().misses();
    stats.trace = trace;
    (stats, records, failures)
}

/// How a control-plane step failed: a tolerable per-event rejection
/// (the engine refused the update, nothing published) or a fatal
/// durability failure (the update may be live but is not journaled —
/// continuing would let a crash silently lose it).
enum CtrlFail {
    Reject(String),
    Fatal(String),
}

fn durable_fail(e: DurableError) -> CtrlFail {
    match e {
        DurableError::Engine(e) => CtrlFail::Reject(e.to_string()),
        DurableError::Journal(e) => CtrlFail::Fatal(e.to_string()),
    }
}

/// The control plane: replay the trace through the shared handle until
/// done or told to stop. With `window == 1` every accepted event
/// publishes its own snapshot generation; with a wider window the trace
/// is fed through [`SharedChisel::apply_batch`] in chunks, each chunk
/// coalescing internally and publishing exactly one generation.
///
/// A durable run wraps the handle in a [`DurableControl`]: initial
/// checkpoint at spawn, one journal record per publication, and — if
/// the trace finished without a durability failure — a final checkpoint
/// at drain so a clean shutdown leaves an empty journal tail.
fn control_main(
    shared: &SharedChisel,
    updates: &[UpdateEvent],
    stop: &AtomicBool,
    tolerate_rejections: bool,
    record: bool,
    window: usize,
    durable_opts: Option<DurableOptions>,
) -> ControlReport {
    let mut report = ControlReport {
        start_generation: shared.generation(),
        ..ControlReport::default()
    };
    let mut durable = match durable_opts {
        Some(opts) => match DurableControl::create(shared.clone(), opts) {
            Ok(dc) => Some(dc),
            Err(e) => {
                report.failed = Some(format!("durable control init: {e}"));
                report.final_generation = shared.generation();
                return report;
            }
        },
        None => None,
    };
    if window <= 1 {
        for ev in updates {
            if stop.load(Ordering::Acquire) {
                report.halted = true;
                break;
            }
            let outcome: Result<(), CtrlFail> = match (&mut durable, *ev) {
                (None, UpdateEvent::Announce(p, nh)) => shared
                    .announce(p, nh)
                    .map(|_| ())
                    .map_err(|e| CtrlFail::Reject(e.to_string())),
                (None, UpdateEvent::Withdraw(p)) => shared
                    .withdraw(p)
                    .map(|_| ())
                    .map_err(|e| CtrlFail::Reject(e.to_string())),
                (Some(dc), UpdateEvent::Announce(p, nh)) => {
                    dc.announce(p, nh).map(|_| ()).map_err(durable_fail)
                }
                (Some(dc), UpdateEvent::Withdraw(p)) => {
                    dc.withdraw(p).map(|_| ()).map_err(durable_fail)
                }
            };
            match outcome {
                Ok(()) => {
                    report.applied += 1;
                    if record {
                        report.accepted.push(*ev);
                        report.generation_events.push(report.applied);
                    }
                }
                Err(CtrlFail::Reject(_)) if tolerate_rejections => report.rejected += 1,
                Err(CtrlFail::Reject(msg)) | Err(CtrlFail::Fatal(msg)) => {
                    report.failed = Some(msg);
                    break;
                }
            }
        }
        return finish_control(report, shared, durable.as_mut());
    }
    'windows: for chunk in updates.chunks(window) {
        if stop.load(Ordering::Acquire) {
            report.halted = true;
            break;
        }
        let outcome = match &mut durable {
            None => shared
                .apply_batch(chunk)
                .map_err(|e| CtrlFail::Reject(e.to_string())),
            Some(dc) => dc.apply_batch(chunk).map_err(durable_fail),
        };
        match outcome {
            Ok(batch) => {
                let rejected = batch.rejected_events.len();
                if rejected > 0 && !tolerate_rejections {
                    report.failed = Some(format!(
                        "{rejected} event(s) rejected inside an update window"
                    ));
                    // The window still published: its accepted residue is
                    // live state and must be accounted before halting.
                }
                report.applied += chunk.len() - rejected;
                report.rejected += rejected;
                if record {
                    let mut next_rejected = batch.rejected_events.iter().copied().peekable();
                    for (i, ev) in chunk.iter().enumerate() {
                        if next_rejected.peek() == Some(&i) {
                            next_rejected.next();
                        } else {
                            report.accepted.push(*ev);
                        }
                    }
                    report.generation_events.push(report.applied);
                }
                if report.failed.is_some() {
                    break 'windows;
                }
            }
            // A failed window never published (build-then-commit): the
            // engine is still at the previous generation.
            Err(CtrlFail::Reject(_)) if tolerate_rejections => report.rejected += chunk.len(),
            Err(CtrlFail::Reject(msg)) | Err(CtrlFail::Fatal(msg)) => {
                report.failed = Some(msg);
                break;
            }
        }
    }
    finish_control(report, shared, durable.as_mut())
}

/// The durable drain: a final checkpoint (unless the run already hit a
/// durability failure — durability must never *regress* on the way
/// out), then the stats fold.
fn finish_control(
    mut report: ControlReport,
    shared: &SharedChisel,
    durable: Option<&mut DurableControl>,
) -> ControlReport {
    if let Some(dc) = durable {
        if report.failed.is_none() {
            if let Err(e) = dc.checkpoint() {
                report.failed = Some(format!("final checkpoint: {e}"));
            }
        }
        report.durable = Some(*dc.stats());
    }
    report.final_generation = shared.generation();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use chisel_core::ChiselConfig;
    use chisel_prefix::{AddressFamily, NextHop, Prefix, RoutingTable};

    fn shared() -> SharedChisel {
        let mut t = RoutingTable::new_v4();
        t.insert("10.0.0.0/8".parse().unwrap(), NextHop::new(1));
        for i in 0..32u128 {
            t.insert(
                Prefix::new(AddressFamily::V4, 0x0A00 | i, 16).unwrap(),
                NextHop::new(10 + i as u32),
            );
        }
        SharedChisel::build(&t, ChiselConfig::ipv4()).unwrap()
    }

    fn keys(n: usize) -> Vec<Key> {
        (0..n as u128)
            .map(|i| {
                Key::from_raw(
                    AddressFamily::V4,
                    0x0A00_0000 | (i * 2654435761 % 0x0020_0000),
                )
            })
            .collect()
    }

    #[test]
    fn single_pass_answers_every_key_once() {
        let s = shared();
        for shards in [1usize, 3, 4] {
            let dp = Dataplane::new(
                s.clone(),
                DataplaneConfig {
                    shards,
                    batch: 16,
                    ..DataplaneConfig::default()
                },
            );
            let stream = keys(4_000);
            let report = dp.run(&stream, &RunOptions::default());
            assert_eq!(report.aggregate.lookups, stream.len() as u64);
            assert_eq!(report.aggregate.matched, stream.len() as u64);
            assert_eq!(report.aggregate.shards, shards);
            assert!(report.aggregate.is_balanced(), "{:?}", report.aggregate);
            for sh in &report.per_shard {
                assert!(sh.is_balanced(), "shard {} unbalanced: {sh:?}", sh.shard);
            }
        }
    }

    #[test]
    fn counters_survive_shutdown_without_loss() {
        // Aggregate == sum over per-shard after drain: nothing dropped in
        // shutdown, and a traced run carries trace counters through too.
        let s = shared();
        let dp = Dataplane::new(
            s.clone(),
            DataplaneConfig {
                shards: 4,
                batch: 8,
                ..DataplaneConfig::default()
            },
        );
        let stream = keys(2_048);
        let report = dp.run(
            &stream,
            &RunOptions {
                traced: true,
                ..RunOptions::default()
            },
        );
        let agg = &report.aggregate;
        assert_eq!(
            agg.cache_hits,
            report.per_shard.iter().map(|s| s.cache_hits).sum::<u64>()
        );
        assert_eq!(
            agg.trace.cache_hits + agg.trace.cache_misses,
            agg.lookups as usize,
            "traced counters lost in shutdown"
        );
        assert_eq!(
            agg.trace.degraded_hits,
            report
                .per_shard
                .iter()
                .map(|s| s.trace.degraded_hits)
                .sum::<usize>()
        );
        assert!(agg.is_balanced());
    }

    #[test]
    fn duration_mode_loops_the_stream() {
        let s = shared();
        let dp = Dataplane::new(s, DataplaneConfig::default());
        let stream = keys(256);
        let report = dp.run(
            &stream,
            &RunOptions {
                duration: Some(Duration::from_millis(50)),
                ..RunOptions::default()
            },
        );
        assert!(
            report.aggregate.lookups > stream.len() as u64,
            "duration mode should loop: only {} lookups",
            report.aggregate.lookups
        );
        assert!(report.aggregate.is_balanced());
        assert!(report.aggregate_msps() > 0.0);
    }

    #[test]
    fn control_plane_publishes_while_shards_serve() {
        let s = shared();
        let dp = Dataplane::new(
            s.clone(),
            DataplaneConfig {
                shards: 2,
                ..DataplaneConfig::default()
            },
        );
        let updates: Vec<UpdateEvent> = (0..64u32)
            .map(|i| {
                UpdateEvent::Announce(
                    Prefix::new(AddressFamily::V4, 0x0B00 | u128::from(i), 16).unwrap(),
                    NextHop::new(100 + i),
                )
            })
            .collect();
        let report = dp.run(
            &keys(20_000),
            &RunOptions {
                updates: updates.clone(),
                record: true,
                ..RunOptions::default()
            },
        );
        assert!(report.control.failed.is_none());
        assert!(report.control.applied <= updates.len());
        if !report.control.halted {
            assert_eq!(report.control.applied, updates.len());
        }
        assert_eq!(report.control.rejected, 0);
        assert_eq!(report.control.accepted.len(), report.control.applied);
        assert_eq!(
            report.control.final_generation,
            report.control.applied as u64
        );
        assert_eq!(s.generation(), report.control.final_generation);
        // Every shard's observed generation window sits inside what the
        // control plane published.
        for sh in &report.per_shard {
            if sh.batches > 0 {
                assert!(sh.max_generation <= report.control.final_generation);
            }
        }
    }

    #[test]
    fn batched_control_plane_publishes_one_generation_per_window() {
        let s = shared();
        let window = 16usize;
        let dp = Dataplane::new(
            s.clone(),
            DataplaneConfig {
                shards: 2,
                update_batch: window,
                ..DataplaneConfig::default()
            },
        );
        let updates: Vec<UpdateEvent> = (0..64u32)
            .map(|i| {
                UpdateEvent::Announce(
                    Prefix::new(AddressFamily::V4, 0x0B00 | u128::from(i), 16).unwrap(),
                    NextHop::new(100 + i),
                )
            })
            .collect();
        let report = dp.run(
            &keys(20_000),
            &RunOptions {
                updates: updates.clone(),
                record: true,
                ..RunOptions::default()
            },
        );
        assert!(report.control.failed.is_none());
        assert_eq!(report.control.rejected, 0);
        let c = &report.control;
        assert_eq!(c.start_generation, 0);
        assert_eq!(c.accepted.len(), c.applied);
        // Whole windows publish one generation each, so the generation
        // count is the number of windows the control plane got through,
        // not the event count.
        assert_eq!(
            c.final_generation,
            c.generation_events.len() as u64,
            "one generation per window"
        );
        assert!(c.final_generation <= (updates.len() / window) as u64);
        if !c.halted {
            assert_eq!(c.applied, updates.len());
            assert_eq!(c.final_generation, (updates.len() / window) as u64);
        }
        // accepted_upto walks the per-generation cumulative counts.
        assert_eq!(c.accepted_upto(0), 0);
        for (i, &n) in c.generation_events.iter().enumerate() {
            assert_eq!(c.accepted_upto(i as u64 + 1), n);
            assert_eq!(n % window, 0, "full windows accept in window multiples");
        }
        assert_eq!(c.accepted_upto(u64::MAX), c.applied);
        // The batch path feeds the same engine state as per-event replay
        // would: every announced prefix answers once the run settles.
        if !c.halted {
            let snap = s.snapshot();
            for i in 0..64u32 {
                let k = Key::from_raw(AddressFamily::V4, (0x0B00 | u128::from(i)) << 16 | 0x0101);
                assert_eq!(snap.lookup(k), Some(NextHop::new(100 + i)));
            }
            assert!(snap.verify().is_ok());
        }
        for sh in &report.per_shard {
            if sh.batches > 0 {
                assert!(sh.max_generation <= c.final_generation);
            }
        }
    }

    #[test]
    fn recorded_batches_cover_the_whole_stream() {
        let s = shared();
        let dp = Dataplane::new(
            s,
            DataplaneConfig {
                shards: 2,
                batch: 32,
                ..DataplaneConfig::default()
            },
        );
        let stream = keys(1_000);
        let report = dp.run(
            &stream,
            &RunOptions {
                record: true,
                ..RunOptions::default()
            },
        );
        let recorded: u64 = report
            .records
            .iter()
            .flatten()
            .map(|r| r.keys.len() as u64)
            .sum();
        assert_eq!(recorded, stream.len() as u64);
        // Recorded answers are exactly what the shard reported.
        for (sh, recs) in report.per_shard.iter().zip(&report.records) {
            let matched: u64 = recs
                .iter()
                .flat_map(|r| &r.answers)
                .filter(|a| a.is_some())
                .count() as u64;
            assert_eq!(matched, sh.matched);
        }
    }

    #[test]
    fn lane_depth_does_not_change_answers() {
        // One shard keeps dispatch order deterministic, so recorded
        // batches are directly comparable across lane depths — any
        // divergence in the lanes/SIMD path shows up as a mismatch here.
        let s = shared();
        let stream = keys(2_000);
        let baseline = Dataplane::new(
            s.clone(),
            DataplaneConfig {
                lane_depth: 1,
                ..DataplaneConfig::default()
            },
        )
        .run(
            &stream,
            &RunOptions {
                record: true,
                ..RunOptions::default()
            },
        );
        for lane_depth in [4usize, 16, 64] {
            let report = Dataplane::new(
                s.clone(),
                DataplaneConfig {
                    lane_depth,
                    ..DataplaneConfig::default()
                },
            )
            .run(
                &stream,
                &RunOptions {
                    record: true,
                    ..RunOptions::default()
                },
            );
            for (b, r) in baseline.records[0].iter().zip(&report.records[0]) {
                assert_eq!(b.keys, r.keys);
                assert_eq!(b.answers, r.answers, "lane depth {lane_depth} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonempty key stream")]
    fn empty_stream_is_rejected() {
        let s = shared();
        Dataplane::new(s, DataplaneConfig::default()).run(&[], &RunOptions::default());
    }

    #[test]
    fn clean_runs_report_no_failures() {
        let s = shared();
        for supervise in [true, false] {
            let dp = Dataplane::new(
                s.clone(),
                DataplaneConfig {
                    shards: 2,
                    supervise,
                    ..DataplaneConfig::default()
                },
            );
            let report = dp.run(&keys(2_000), &RunOptions::default());
            assert!(report.failures.is_empty(), "supervise={supervise}");
            assert_eq!(report.aggregate.respawns, 0);
            assert_eq!(report.aggregate.dropped_batches, 0);
            assert!(report.healthy());
        }
    }

    #[test]
    fn external_stop_flag_drains_the_run() {
        let s = shared();
        let dp = Dataplane::new(s, DataplaneConfig::default());
        let stop = Arc::new(AtomicBool::new(false));
        // Pre-raised flag: the feed loop must exit at its first check
        // and still drain cleanly (a run-until-signal serve that got
        // SIGINT immediately).
        stop.store(true, Ordering::Release);
        let report = dp.run(
            &keys(512),
            &RunOptions {
                stop: Some(Arc::clone(&stop)),
                ..RunOptions::default()
            },
        );
        assert!(report.aggregate.is_balanced());
        assert!(report.healthy());
    }

    #[test]
    fn durable_run_journals_and_checkpoints() {
        let dir = std::env::temp_dir().join(format!("chisel-daemon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("durable-run.journal");
        let s = shared();
        let dp = Dataplane::new(
            s.clone(),
            DataplaneConfig {
                shards: 2,
                ..DataplaneConfig::default()
            },
        );
        let updates: Vec<UpdateEvent> = (0..24u32)
            .map(|i| {
                UpdateEvent::Announce(
                    Prefix::new(AddressFamily::V4, 0x0C00 | u128::from(i), 16).unwrap(),
                    NextHop::new(300 + i),
                )
            })
            .collect();
        let opts = DurableOptions {
            fsync: false,
            ..DurableOptions::at(&journal, 0)
        };
        let report = dp.run(
            &keys(40_000),
            &RunOptions {
                updates,
                durable: Some(opts.clone()),
                ..RunOptions::default()
            },
        );
        assert!(
            report.control.failed.is_none(),
            "{:?}",
            report.control.failed
        );
        let stats = report.control.durable.expect("durable stats");
        assert_eq!(stats.appended_records as usize, report.control.applied);
        // Initial + final checkpoint at minimum (checkpoint_every = 0).
        assert!(stats.checkpoints >= 2);
        // The final checkpoint rotated the journal: clean shutdown
        // leaves an empty tail, and recovery lands exactly where the
        // control plane stopped.
        let scan = chisel_core::journal::read_journal(&journal, AddressFamily::V4).unwrap();
        assert!(scan.records.is_empty(), "journal not rotated at drain");
        let rec = chisel_core::journal::recover(&opts.checkpoint, &journal).unwrap();
        assert_eq!(rec.report.final_generation, report.control.final_generation);
        assert_eq!(rec.shared.generation(), s.generation());
    }
}
