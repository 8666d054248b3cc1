//! Batched-update-engine benchmark behind `BENCH_update.json`: sustained
//! updates/sec of the five synthetic RIS collector profiles replayed
//! through `SharedChisel` at batching windows {1, 16, 64, 256}, with a
//! concurrent reader thread sampling lookup latency (p99 ns per 64-key
//! batch) the whole time. Every window goes through
//! `SharedChisel::apply_batch` (one clone, coalescing and parallel
//! re-setups, and one published generation if the window accepted any
//! event); window 1 is the per-event production path.
//!
//! A separate re-setup storm scenario (add-new-heavy trace against a
//! low-partition config) exercises the parallel re-setup sharing path
//! and reports `resetups_saved`. Plain harness (not criterion): prints a
//! JSON document to stdout. Set `CHISEL_BENCH_QUICK=1` for the CI smoke
//! configuration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use chisel_core::{ChiselConfig, ChiselLpm, SharedChisel};
use chisel_prefix::Key;
use chisel_workloads::{
    flow_pool, generate_trace, resetup_storm_profile, rrc_profiles, synthesize,
    PrefixLenDistribution, TraceProfile, UpdateEvent,
};

fn quick() -> bool {
    std::env::var_os("CHISEL_BENCH_QUICK").is_some()
}

fn table_size() -> usize {
    if quick() {
        3_000
    } else {
        50_000
    }
}

fn trace_len() -> usize {
    if quick() {
        1_000
    } else {
        40_000
    }
}

const WINDOWS: [usize; 4] = [1, 16, 64, 256];
const READER_BATCH: usize = 64;

struct RunResult {
    updates_per_sec: f64,
    accepted: usize,
    rejected: usize,
    generations: u64,
    lookup_p99_ns: u64,
    lookup_batches: usize,
    events_coalesced: u64,
    resetups_saved: u64,
    parallel_resetups: u64,
}

/// Replays `trace` through `shared` in windows of `window` events while a
/// reader thread hammers 64-key lookup batches against live snapshots;
/// returns writer throughput and the reader's p99.
fn replay(shared: &SharedChisel, trace: &[UpdateEvent], window: usize, keys: &[Key]) -> RunResult {
    let gen0 = shared.generation();
    let stop = AtomicBool::new(false);
    let (elapsed, rejected, samples) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut samples: Vec<u64> = Vec::new();
            let mut at = 0usize;
            while !stop.load(Ordering::Acquire) {
                let snap = shared.snapshot();
                let t0 = Instant::now();
                for _ in 0..READER_BATCH {
                    std::hint::black_box(snap.lookup(keys[at]));
                    at = (at + 1) % keys.len();
                }
                samples.push(t0.elapsed().as_nanos() as u64);
            }
            samples
        });
        let start = Instant::now();
        let mut rejected = 0usize;
        for chunk in trace.chunks(window) {
            match shared.apply_batch(chunk) {
                Ok(report) => rejected += report.rejected_events.len(),
                Err(_) => rejected += chunk.len(),
            }
        }
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Release);
        let samples = reader.join().expect("reader thread");
        (elapsed, rejected, samples)
    });
    let accepted = trace.len() - rejected;
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    let p99 = if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1).min(sorted.len() * 99 / 100)]
    };
    let b = shared.engine_stats().batch;
    RunResult {
        updates_per_sec: trace.len() as f64 / elapsed.as_secs_f64(),
        accepted,
        rejected,
        generations: shared.generation() - gen0,
        lookup_p99_ns: p99,
        lookup_batches: samples.len(),
        events_coalesced: b.events_coalesced,
        resetups_saved: b.resetups_saved,
        parallel_resetups: b.parallel_resetups,
    }
}

fn profile_runs(profile: &TraceProfile) -> serde_json::Value {
    let table = synthesize(
        table_size(),
        &PrefixLenDistribution::bgp_ipv4(),
        profile.seed ^ 0xBA5E,
    );
    let trace = generate_trace(&table, trace_len(), profile);
    let pool = flow_pool(&table, 4_096, 0xF10A);
    let engine = ChiselLpm::build(&table, ChiselConfig::ipv4()).expect("engine builds");
    let mut windows: Vec<(String, serde_json::Value)> = Vec::new();
    let mut base_rate = 0.0f64;
    for window in WINDOWS {
        let shared = SharedChisel::from_engine(engine.clone());
        let r = replay(&shared, &trace, window, &pool);
        shared
            .with_engine(|e| e.verify().is_ok().then_some(()))
            .expect("engine verifies after replay");
        if window == 1 {
            base_rate = r.updates_per_sec;
        }
        let speedup = if base_rate > 0.0 {
            r.updates_per_sec / base_rate
        } else {
            0.0
        };
        windows.push((
            window.to_string(),
            serde_json::json!({
                "updates_per_sec": r.updates_per_sec.round(),
                "speedup_vs_window_1": (speedup * 100.0).round() / 100.0,
                "accepted": r.accepted,
                "rejected": r.rejected,
                "generations_published": r.generations,
                "events_coalesced": r.events_coalesced,
                "resetups_saved": r.resetups_saved,
                "parallel_resetups": r.parallel_resetups,
                "concurrent_lookup_p99_ns_per_64key_batch": r.lookup_p99_ns,
                "lookup_batches_sampled": r.lookup_batches,
            }),
        ));
    }
    serde_json::json!({
        "profile": profile.name,
        "flap_weight": profile.flaps,
        "windows": serde_json::Value::Object(windows),
    })
}

/// The re-setup storm: an add-new-heavy trace against a two-partition
/// config, so batched windows pool many new-key inserts into shared
/// partition re-setups (`resetups_saved > 0`).
fn storm_runs() -> serde_json::Value {
    let profile = resetup_storm_profile();
    let size = if quick() { 1_000 } else { 5_000 };
    let events = if quick() { 500 } else { 8_000 };
    let table = synthesize(size, &PrefixLenDistribution::bgp_ipv4(), 0x5702);
    let trace = generate_trace(&table, events, &profile);
    let pool = flow_pool(&table, 1_024, 0xF10A);
    let config = ChiselConfig::ipv4().partitions(2).slack(4.0);
    let engine = ChiselLpm::build(&table, config).expect("engine builds");
    let mut windows: Vec<(String, serde_json::Value)> = Vec::new();
    for window in WINDOWS {
        let shared = SharedChisel::from_engine(engine.clone());
        let r = replay(&shared, &trace, window, &pool);
        windows.push((
            window.to_string(),
            serde_json::json!({
                "updates_per_sec": r.updates_per_sec.round(),
                "accepted": r.accepted,
                "rejected": r.rejected,
                "generations_published": r.generations,
                "events_coalesced": r.events_coalesced,
                "resetups_saved": r.resetups_saved,
                "parallel_resetups": r.parallel_resetups,
                "concurrent_lookup_p99_ns_per_64key_batch": r.lookup_p99_ns,
            }),
        ));
    }
    serde_json::json!({
        "profile": profile.name,
        "table_prefixes": size,
        "trace_events": events,
        "config": "partitions=2 slack=4.0",
        "windows": serde_json::Value::Object(windows),
    })
}

fn main() {
    let profiles = rrc_profiles();
    let results: Vec<serde_json::Value> = profiles.iter().map(profile_runs).collect();
    let storm = storm_runs();
    let doc = serde_json::json!({
        "quick": quick(),
        "table_prefixes": table_size(),
        "trace_events": trace_len(),
        "windows": WINDOWS.to_vec(),
        "available_parallelism": std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        "profiles": results,
        "resetup_storm": storm,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("serialize results")
    );
    // Smoke-check the acceptance bar in-run so CI catches regressions:
    // at least one flap-heavy collector must clear 3x at window 64.
    if !quick() {
        let cleared = results.iter().any(|p| {
            p["windows"]["64"]["speedup_vs_window_1"]
                .as_f64()
                .is_some_and(|s| s >= 3.0)
        });
        assert!(cleared, "no profile reached 3x updates/sec at window 64");
        let saved = storm["windows"]["64"]["resetups_saved"]
            .as_u64()
            .unwrap_or(0);
        assert!(saved > 0, "storm scenario shared no re-setups");
    }
}
