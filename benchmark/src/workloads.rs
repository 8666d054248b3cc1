//! The five workloads, the metric tables, and input assembly.
//!
//! These tables are the single source of `BENCHMARK.json`: `manifest`
//! prints the file from them and `smoke.sh` fails when the committed
//! copy differs.
//!
//! Every run is one router lifecycle — build and journal, serve, update,
//! die, recover — so every end-to-end metric is a real measurement on
//! every workload. A workload sets the conditions: how big the table is,
//! how much locality the traffic has, whether a writer storms beside the
//! readers, and how the run's time divides between the two planes.

use std::time::Instant;

use chisel_core::{ChiselConfig, RouteUpdate};
use chisel_prefix::oracle::OracleLpm;
use chisel_prefix::{Key, RoutingTable};

use crate::inputs::{self, Fingerprint, SplitMix64};

/// Events per update window everywhere a window is used.
pub const WINDOW: usize = 64;
/// Keys of the recorded correctness pass before any timing.
pub const GATE_KEYS: usize = 1 << 16;
/// Random addresses probed (beside the pool flows) after every phase
/// that changed the table.
pub const PROBE_KEYS: usize = 1 << 14;
/// Pool flows re-checked against the replayed oracle (all of a small
/// pool, the head of a large one: the oracle costs ~1 µs a key).
pub const VERIFY_FLOWS: usize = 1 << 16;
/// The seed whose fingerprints are pinned in [`SPECS`].
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: u64 = 10;
/// `--smoke` without `--seconds`: one-second serve laps.
pub const SMOKE_SECONDS: u64 = 4;

/// The engine configuration of every workload. The one deviation from
/// the paper's design point is forced: with the default 32-entry
/// spillover TCAM a `bgp_ipv4` table fails to build (`SpilloverOverflow`)
/// from ~150k prefixes up, and at 100k on some seeds;
/// `engine.spill_entries` keeps that pressure visible.
pub fn engine_config() -> ChiselConfig {
    ChiselConfig::ipv4().spill_capacity(4096)
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub routes: usize,
    /// Concurrent flows, and how many such flow sets follow one another
    /// in the key stream.
    pub flows: usize,
    pub epochs: usize,
    pub zipf: bool,
    pub stream_len: usize,
    /// Whether the paced writer runs beside the serve phase.
    pub storm: bool,
    /// Events per second of the paced writer (the serve phase's on a
    /// storm workload, the traced pass's storm attribution on all): a
    /// load the table's write path sustains at about a third of one core.
    pub writer_rate: f64,
    /// Share of `--seconds` each of the three timed serve laps gets (the
    /// warm-up lap gets 0.4 of a lap on top).
    pub lap_share: f64,
    /// Phase A: events applied one at a time through `SharedChisel`.
    pub events_a: usize,
    /// Phase B: events applied in journaled windows of [`WINDOW`].
    pub events_b: usize,
    /// `DurableOptions::checkpoint_every` (0: only at create).
    pub checkpoint_every: u64,
    /// Builds per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Events per write-side rung of the traced pass.
    pub ladder_events: usize,
    /// Trace events covered by the inputs fingerprint; a longer
    /// `--seconds` extends the trace past them, never changes them.
    pub frozen_events: usize,
    /// `inputs_fingerprint` at [`DEFAULT_SEED`], full size and smoke size.
    /// A mismatch means the generators changed: a hard error, because
    /// numbers from different inputs are not comparable.
    pub pinned: u64,
    pub pinned_smoke: u64,
}

const HOT_WHY: &str = "100k routes, 8 epochs of 4096 Zipf flows, no writer: the working set fits the flow cache, so cache and dispatch hop do the work";
const COLD_WHY: &str = "100k routes, 2^20 uniform flows: the flow cache is useless and the L2-resident sub-cell walk is compute-bound";
const LARGE_WHY: &str = "1M routes (24 MB on-chip), uniform flows: the same walk memory-bound, where the blocked Index Table should pay off";
const STORM_WHY: &str = "fwd_hot traffic beside an open-loop journaled writer at 8000 events/s: publication and cache flushes hit serving";
const REPLAY_WHY: &str = "100k routes, short serve, long closed-loop replay with a periodic checkpoint: publication, journal and recovery cost";

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "fwd_hot",
        why: HOT_WHY,
        routes: 100_000,
        flows: 4096,
        epochs: 8,
        zipf: true,
        stream_len: 1 << 21,
        storm: false,
        lap_share: 0.25,
        events_a: 8192,
        events_b: 32_768,
        checkpoint_every: 0,
        setup_reps: 3,
        ladder_events: 32_768,
        writer_rate: 8000.0,
        frozen_events: 1 << 17,
        pinned: 0x3487_97cf_6f02_30ed,
        pinned_smoke: 0x84a9_992a_2388_5838,
    },
    Spec {
        name: "fwd_cold",
        why: COLD_WHY,
        routes: 100_000,
        flows: 1 << 20,
        epochs: 1,
        zipf: false,
        stream_len: 1 << 21,
        storm: false,
        lap_share: 0.25,
        events_a: 8192,
        events_b: 32_768,
        checkpoint_every: 0,
        setup_reps: 3,
        ladder_events: 32_768,
        writer_rate: 8000.0,
        frozen_events: 1 << 17,
        pinned: 0x20f0_0afd_6db4_800f,
        pinned_smoke: 0x31a1_a770_47d2_da2e,
    },
    Spec {
        name: "fwd_large",
        why: LARGE_WHY,
        routes: 1_000_000,
        flows: 1 << 20,
        epochs: 1,
        zipf: false,
        stream_len: 1 << 21,
        storm: false,
        lap_share: 0.25,
        // Publication cost grows with the table (5k events/s here), so
        // the fixed-work phases shrink to keep the run inside its cap.
        events_a: 2048,
        events_b: 16_384,
        checkpoint_every: 0,
        setup_reps: 1,
        ladder_events: 8192,
        writer_rate: 1000.0,
        frozen_events: 1 << 17,
        pinned: 0x2a78_5280_6554_0aed,
        pinned_smoke: 0x31a1_a770_47d2_da2e,
    },
    Spec {
        name: "fwd_storm",
        why: STORM_WHY,
        routes: 100_000,
        flows: 4096,
        epochs: 8,
        zipf: true,
        stream_len: 1 << 21,
        storm: true,
        lap_share: 0.25,
        events_a: 8192,
        events_b: 32_768,
        checkpoint_every: 0,
        setup_reps: 3,
        ladder_events: 32_768,
        writer_rate: 8000.0,
        frozen_events: 1 << 17,
        // Same table, flows and trace as fwd_hot: only the conditions differ.
        pinned: 0x3487_97cf_6f02_30ed,
        pinned_smoke: 0x84a9_992a_2388_5838,
    },
    Spec {
        name: "ctl_replay",
        why: REPLAY_WHY,
        routes: 100_000,
        flows: 4096,
        epochs: 8,
        zipf: true,
        stream_len: 1 << 21,
        storm: false,
        lap_share: 0.1,
        events_a: 32_768,
        events_b: 131_072,
        checkpoint_every: 100_000,
        setup_reps: 3,
        ladder_events: 32_768,
        writer_rate: 8000.0,
        frozen_events: 1 << 17,
        // Same table, flows and trace as fwd_hot: only the conditions differ.
        pinned: 0x3487_97cf_6f02_30ed,
        pinned_smoke: 0x84a9_992a_2388_5838,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The CI-sized variant: every code path and the whole correctness
    /// gate, none of the statistical weight.
    pub fn smoke(mut self) -> Spec {
        self.routes = 10_000;
        self.flows = self.flows.min(1 << 14);
        self.stream_len = 1 << 17;
        self.events_a = 512;
        self.events_b = 4096;
        self.checkpoint_every = self.checkpoint_every.min(2048);
        self.setup_reps = 1;
        self.ladder_events = 2048;
        self.frozen_events = 1 << 14;
        self.pinned = self.pinned_smoke;
        self
    }

    pub fn lap_seconds(&self, seconds: u64) -> f64 {
        seconds as f64 * self.lap_share
    }

    /// Trace length: the frozen part, or what a long storm consumes.
    fn trace_len(&self, seconds: u64) -> usize {
        let storm = (self.writer_rate * (self.lap_seconds(seconds) * 4.0 + 6.0)) as usize;
        let fixed = self.events_a.max(self.events_b);
        self.frozen_events
            .max(storm + fixed + self.ladder_events * 2)
    }
}

/// Everything the program is handed, plus the oracle it is checked with.
pub struct Inputs {
    pub table: RoutingTable,
    pub oracle: OracleLpm,
    pub pool: Vec<Key>,
    pub keys: Vec<Key>,
    pub probes: Vec<Key>,
    pub events: Vec<RouteUpdate>,
    pub fingerprint: u64,
    pub generate_s: f64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, seconds: u64) -> Inputs {
        let start = Instant::now();
        let table = inputs::table(spec.routes, &mut SplitMix64::new(seed, 1));
        let pool = inputs::flow_pool(
            &table,
            spec.flows * spec.epochs,
            &mut SplitMix64::new(seed, 2),
        );
        let keys = inputs::stream(
            &pool,
            spec.flows,
            spec.zipf,
            spec.stream_len,
            &mut SplitMix64::new(seed, 3),
        );
        let probes = inputs::random_keys(PROBE_KEYS, &mut SplitMix64::new(seed, 4));
        let events = inputs::trace(
            &table,
            spec.trace_len(seconds),
            &mut SplitMix64::new(seed, 5),
        );
        let mut fp = Fingerprint::new();
        fp.table(&table);
        fp.keys(&keys);
        fp.keys(&probes);
        fp.events(&events[..spec.frozen_events]);
        let oracle = OracleLpm::from_table(&table);
        Inputs {
            table,
            oracle,
            pool,
            keys,
            probes,
            events,
            fingerprint: fp.value(),
            generate_s: start.elapsed().as_secs_f64(),
        }
    }

    /// The flows and random probes re-checked after a table change.
    pub fn verify_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.pool
            .iter()
            .take(VERIFY_FLOWS)
            .chain(&self.probes)
            .copied()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// What a user of the router sees. Measured with tracing off, on every
/// workload; see README.md for the exact definition of each.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("lookup_msps", "M/s", true, 0.25),
    e2e("update_p50_ms", "ms", false, 0.25),
    e2e("update_p99_ms", "ms", false, 0.20),
    e2e("updates_per_s", "1/s", true, 0.20),
    e2e("durable_updates_per_s", "1/s", true, 0.25),
    e2e("recover_s", "s", false, 0.25),
    e2e("journal_bytes_per_update", "bytes", false, 0.005),
    e2e("bits_per_prefix", "bits", false, 0.005),
    e2e("rss_mb", "MiB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// Per-layer metrics carry no bound.
const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    e2e(name, unit, higher, 0.0)
}

/// The outside-in cost ledger of the traced pass: one public entry point
/// per row, timed from this package's own files on the workload's inputs.
pub const PER_LAYER: [MetricDef; 92] = [
    layer("hash.digest_ns", "ns", false),
    layer("dispatch.shard_of_ns", "ns", false),
    layer("engine.lookup_ns", "ns", false),
    layer("engine.lookup_batch_ns", "ns", false),
    layer("engine.cells_probed", "count", false),
    layer("engine.lines_per_lookup", "count", false),
    layer("engine.filter_reads", "count", false),
    layer("engine.result_reads", "count", false),
    layer("engine.spill_hits", "count", false),
    layer("engine.spill_entries", "count", false),
    layer("engine.flat_lookup_batch_ns", "ns", false),
    layer("engine.flat_lines_per_lookup", "count", false),
    layer("image.lookup_ns", "ns", false),
    layer("image.export_s", "s", false),
    layer("image.to_bytes_s", "s", false),
    layer("image.from_bytes_s", "s", false),
    layer("image.bytes", "bytes", false),
    layer("shared.lookup_batch_ns", "ns", false),
    layer("shared.pin_self_ns", "ns", false),
    layer("reader.lookup_batch_ns", "ns", false),
    layer("reader.hit_rate", "ratio", true),
    layer("reader.hit_ns", "ns", false),
    layer("reader.batch_p50_us", "us", false),
    layer("reader.batch_p99_us", "us", false),
    layer("reader.model_ns", "ns", false),
    layer("dataplane.ns_per_key", "ns", false),
    layer("dataplane.self_ns", "ns", false),
    layer("dataplane.hit_rate", "ratio", true),
    layer("dataplane.keys_per_batch", "count", true),
    layer("dataplane.msps_shards2", "M/s", true),
    layer("dataplane.control_sat_msps", "M/s", true),
    layer("dataplane.control_sat_updates_per_s", "1/s", true),
    layer("engine.scalar_updates_per_s", "1/s", true),
    layer("engine.apply_w1_per_s", "1/s", true),
    layer("engine.apply_w64_per_s", "1/s", true),
    layer("engine.resetups", "count", false),
    layer("engine.rebuild_units", "count", false),
    layer("engine.coalesced", "count", true),
    layer("engine.add_singleton", "count", false),
    layer("engine.route_flaps", "count", true),
    layer("engine.degraded_parks", "count", false),
    layer("shared.apply_w1_per_s", "1/s", true),
    layer("shared.apply_w64_per_s", "1/s", true),
    layer("shared.publish_self_us_w1", "us", false),
    layer("shared.publish_self_us_w64", "us", false),
    layer("shared.window_p50_us_w1", "us", false),
    layer("shared.window_p99_us_w1", "us", false),
    layer("shared.window_p50_us_w64", "us", false),
    layer("shared.window_p99_us_w64", "us", false),
    layer("journal.create_s", "s", false),
    layer("journal.durable_w1_per_s", "1/s", true),
    layer("journal.durable_w64_per_s", "1/s", true),
    layer("journal.append_self_us_w1", "us", false),
    layer("journal.append_self_us_w64", "us", false),
    layer("journal.append_direct_us_w1", "us", false),
    layer("journal.append_direct_us_w64", "us", false),
    layer("journal.bytes_per_event_w1", "bytes", false),
    layer("journal.bytes_per_event_w64", "bytes", false),
    layer("journal.checkpoint_s", "s", false),
    layer("journal.checkpoint_bytes", "bytes", false),
    layer("journal.recover_base_s", "s", false),
    layer("journal.recover_w64_s", "s", false),
    layer("storm.msps_quiet", "M/s", true),
    layer("storm.msps_decoy", "M/s", true),
    layer("storm.msps_real", "M/s", true),
    layer("storm.cpu_cost_pct", "%", false),
    layer("storm.flush_cost_pct", "%", false),
    layer("storm.hit_rate", "ratio", true),
    layer("storm.generations", "count", false),
    layer("storm.windows", "count", true),
    layer("storm.writer_busy_frac", "ratio", false),
    layer("storm.update_p50_ms", "ms", false),
    layer("storm.late_max_ms", "ms", false),
    layer("storm.gen_lag_max", "count", false),
    layer("build.threads1_s", "s", false),
    layer("build.threads2_s", "s", false),
    layer("build.prefixes_per_s", "1/s", true),
    layer("storage.index_bits_per_prefix", "bits", false),
    layer("storage.filter_bits_per_prefix", "bits", false),
    layer("storage.bitvec_bits_per_prefix", "bits", false),
    layer("ledger.read_residual_pct", "%", false),
    layer("ledger.write_residual_pct", "%", false),
    layer("host.calib_alu_ns", "ns", false),
    layer("host.calib_chase_ns", "ns", false),
    layer("host.cores", "count", true),
    layer("host.simd_active", "count", true),
    layer("bench.inputs_s", "s", false),
    layer("bench.span_overhead_pct", "%", false),
    layer("bench.spans", "count", false),
    layer("bench.traced_pass_s", "s", false),
    layer("host.l2_kib", "KiB", true),
    layer("host.l3_kib", "KiB", true),
];
