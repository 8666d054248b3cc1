//! The traced pass: the workload's inputs re-run one rung at a time, each
//! rung a public entry point timed from this file.
//!
//! ```text
//! read:  hash → engine scalar → engine batch → image → shared → reader → Dataplane::run
//! write: raw engine → SharedChisel → DurableControl → recover
//! ```
//!
//! A layer's self time is its rung minus the rung beneath it on identical
//! inputs — the only honest decomposition available without hooks inside
//! the program. Each rung is the median of [`REPS`] repetitions after one
//! warm-up repetition; seconds-scale one-shot calls (build, export,
//! checkpoint, recover) are timed once. End-to-end metrics are never
//! taken from this pass.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use chisel_core::journal::read_checkpoint;
use chisel_core::{
    recover_with_config, ChiselLpm, DurableControl, DurableOptions, HardwareImage, JournalWriter,
    LookupTrace, RouteUpdate, SharedChisel,
};
use chisel_dataplane::{Dataplane, DataplaneConfig, DataplaneReport, FlowDispatcher, RunOptions};
use chisel_hash::HashFamily;
use chisel_prefix::{AddressFamily, Key, NextHop};
use chisel_workloads::UpdateEvent;

use crate::harness::{
    apply_to_oracle, durable_options, median, paced_writer, percentile, BoxError, Metrics,
    StormLog, Tally,
};
use crate::spans::Spans;
use crate::workloads::{engine_config, Inputs, Spec, GATE_KEYS, WINDOW};

const REPS: usize = 3;
/// Keys per `lookup_batch` call, the dataplane's default batch.
const BATCH: usize = 64;

/// Runs `rep` once to warm up and [`REPS`] times more, one rung span
/// each; `rep` returns the seconds it timed itself (so per-rep setup
/// stays outside). Returns the median and the span mark after the
/// warm-up, for percentile queries over the timed reps' call spans.
fn rung(
    spans: &mut Spans,
    name: &'static str,
    items: usize,
    mut rep: impl FnMut(&mut Spans) -> Result<f64, BoxError>,
) -> Result<(f64, usize), BoxError> {
    let mut timed = Vec::with_capacity(REPS);
    let mut mark = 0;
    for i in 0..=REPS {
        spans.enter(name);
        let seconds = rep(spans);
        spans.exit(items as u64);
        let seconds = seconds?;
        if i == 0 {
            mark = spans.len();
        } else {
            timed.push(seconds);
        }
    }
    Ok((median(&timed), mark))
}

/// A seconds-scale call timed once, under its own rung span.
fn once<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    spans.enter(name);
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    spans.exit(1);
    (out, seconds)
}

/// Per-key rung: `call(i, key)` over `keys`; ns per key.
fn key_rung(
    spans: &mut Spans,
    name: &'static str,
    keys: &[Key],
    mut call: impl FnMut(usize, Key),
) -> Result<f64, BoxError> {
    let (seconds, _) = rung(spans, name, keys.len(), |_| {
        let start = Instant::now();
        for (i, k) in keys.iter().enumerate() {
            call(i, *k);
        }
        Ok(start.elapsed().as_secs_f64())
    })?;
    Ok(seconds * 1e9 / keys.len() as f64)
}

/// `lookup_batch`-shaped rung: [`BATCH`]-key calls over `keys` into `out`.
fn batch_rung(
    spans: &mut Spans,
    name: &'static str,
    keys: &[Key],
    out: &mut [Option<NextHop>],
    mut call: impl FnMut(&[Key], &mut [Option<NextHop>]),
) -> Result<f64, BoxError> {
    let (seconds, _) = rung(spans, name, keys.len(), |_| {
        let start = Instant::now();
        for (k, o) in keys.chunks(BATCH).zip(out.chunks_mut(BATCH)) {
            call(k, o);
        }
        Ok(start.elapsed().as_secs_f64())
    })?;
    Ok(seconds * 1e9 / keys.len() as f64)
}

type Durable = (DurableControl, DurableOptions);

// The timed call of each write-side rung; the result is the number of
// events it rejected.
fn engine_scalar(e: &mut ChiselLpm, w: &[RouteUpdate]) -> Result<usize, BoxError> {
    let ok = match w[0] {
        RouteUpdate::Announce(p, nh) => e.announce(p, nh).is_ok(),
        RouteUpdate::Withdraw(p) => e.withdraw(p).is_ok(),
    };
    Ok(usize::from(!ok))
}

fn engine_batch(e: &mut ChiselLpm, w: &[RouteUpdate]) -> Result<usize, BoxError> {
    Ok(e.apply_batch(w)?.rejected_events.len())
}

fn shared_batch(s: &mut SharedChisel, w: &[RouteUpdate]) -> Result<usize, BoxError> {
    Ok(s.apply_batch(w)?.rejected_events.len())
}

fn durable_batch(d: &mut Durable, w: &[RouteUpdate]) -> Result<usize, BoxError> {
    Ok(d.0.apply_batch(w)?.rejected_events.len())
}

fn msps(report: &DataplaneReport) -> f64 {
    report.aggregate.lookups as f64 / report.elapsed.as_secs_f64() / 1e6
}

/// Write-side rung over `events` in windows of `window`: `fresh` builds
/// the untimed per-rep state, `apply` is the timed call (returning the
/// events it rejected), recorded as one call span per window.
fn window_rung<S>(
    spans: &mut Spans,
    name: &'static str,
    events: &[RouteUpdate],
    window: usize,
    tally: &mut Tally,
    mut fresh: impl FnMut() -> Result<S, BoxError>,
    mut apply: impl FnMut(&mut S, &[RouteUpdate]) -> Result<usize, BoxError>,
) -> Result<(f64, usize, S), BoxError> {
    let mut last = None;
    let (mut attempted, mut rejected) = (0, 0);
    let (seconds, mark) = rung(spans, name, events.len(), |spans| {
        let mut state = fresh()?;
        let start = Instant::now();
        for w in events.chunks(window) {
            let t0 = Instant::now();
            rejected += apply(&mut state, w)? as u64;
            spans.call(name, t0, Instant::now(), w.len() as u64);
            attempted += w.len() as u64;
        }
        let seconds = start.elapsed().as_secs_f64();
        last = Some(state);
        Ok(seconds)
    })?;
    tally.record(name, attempted, rejected);
    Ok((seconds, mark, last.expect("REPS >= 1")))
}

/// One `Dataplane::run` lap, with the paced writer beside it when given
/// its control plane, the events still to feed and the rate.
fn storm_lap(
    spans: &mut Spans,
    name: &'static str,
    dataplane: &Dataplane,
    keys: &[Key],
    options: &RunOptions,
    writer: Option<(&mut DurableControl, &[RouteUpdate], f64)>,
) -> Result<(DataplaneReport, StormLog), BoxError> {
    let stop = AtomicBool::new(false);
    spans.enter(name);
    let (report, log) = std::thread::scope(|scope| {
        let writer = writer.map(|(durable, events, rate)| {
            let stop = &stop;
            scope.spawn(move || paced_writer(durable, events, rate, Duration::ZERO, stop))
        });
        let report = dataplane.run(keys, options);
        stop.store(true, Ordering::Release);
        let log = writer.map(|w| w.join().expect("paced writer panicked"));
        (report, log.unwrap_or_default())
    });
    spans.exit(report.aggregate.lookups);
    match log.error {
        Some(e) => Err(format!("{name}: paced writer: {e}").into()),
        None => Ok((report, log)),
    }
}

pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    seconds: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Result<(Metrics, Spans), BoxError> {
    let pass_start = Instant::now();
    let mut m = Metrics::default();
    let mut spans = Spans::new();
    spans.enter(spec.name);

    let keys = &inputs.keys[..inputs.keys.len().min(1 << 20)];
    let scalar_keys = &keys[..keys.len().min(1 << 18)];
    let events = &inputs.events[..spec.ladder_events];
    let w1_events = &events[..events.len() / 16];
    let gate = GATE_KEYS.min(keys.len());
    let expected: Vec<Option<NextHop>> = keys[..gate]
        .iter()
        .map(|k| inputs.oracle.lookup(*k))
        .collect();
    let mut out = vec![None; keys.len()];
    let check = |tally: &mut Tally, what: &str, got: &[Option<NextHop>]| {
        let n = got.len().min(gate);
        let wrong = expected[..n]
            .iter()
            .zip(got)
            .filter(|(e, g)| e != g)
            .count();
        tally.record(what, n as u64, wrong as u64);
    };
    let lap = Duration::from_secs_f64(spec.lap_seconds(seconds));
    let timed_lap = RunOptions {
        duration: Some(lap),
        ..Default::default()
    };

    // ── build ───────────────────────────────────────────────────────
    let (engine, threads2_s) = once(&mut spans, "build.threads2", || {
        ChiselLpm::build(&inputs.table, engine_config().build_threads(2))
    });
    let engine = engine?;
    let (serial, threads1_s) = once(&mut spans, "build.threads1", || {
        ChiselLpm::build(&inputs.table, engine_config().build_threads(1))
    });
    drop(serial?);
    let routes = spec.routes as f64;
    let storage = engine.storage();
    m.set("build.threads1_s", threads1_s);
    m.set("build.threads2_s", threads2_s);
    m.set("build.prefixes_per_s", routes / threads2_s);
    m.set(
        "storage.index_bits_per_prefix",
        storage.index_bits as f64 / routes,
    );
    m.set(
        "storage.filter_bits_per_prefix",
        storage.filter_bits as f64 / routes,
    );
    m.set(
        "storage.bitvec_bits_per_prefix",
        storage.bitvec_bits as f64 / routes,
    );
    m.set("engine.spill_entries", engine.spill_len() as f64);

    // ── read side ───────────────────────────────────────────────────
    let family = HashFamily::new(3, engine_config().seed);
    let ns = key_rung(&mut spans, "hash.digest", keys, |_, k| {
        black_box(family.digest(k.value()));
    })?;
    m.set("hash.digest_ns", ns);

    // Two shards: with one, `shard_of` returns before hashing.
    let dispatcher = FlowDispatcher::new(2);
    let ns = key_rung(&mut spans, "dispatch.shard_of", keys, |_, k| {
        black_box(dispatcher.shard_of(k));
    })?;
    m.set("dispatch.shard_of_ns", ns);

    let ns = key_rung(&mut spans, "engine.lookup", scalar_keys, |i, k| {
        out[i] = engine.lookup(k);
    })?;
    m.set("engine.lookup_ns", ns);
    check(tally, "engine.lookup", &out[..scalar_keys.len()]);

    let engine_batch_ns = batch_rung(&mut spans, "engine.lookup_batch", keys, &mut out, |k, o| {
        engine.lookup_batch(k, o)
    })?;
    m.set("engine.lookup_batch_ns", engine_batch_ns);
    check(tally, "engine.lookup_batch", &out);

    let traced = |engine: &ChiselLpm| {
        let mut trace = LookupTrace::default();
        for k in scalar_keys {
            black_box(engine.lookup_traced(*k, &mut trace));
        }
        trace
    };
    let per_lookup = |count: usize| count as f64 / scalar_keys.len() as f64;
    let trace = traced(&engine);
    m.set("engine.cells_probed", per_lookup(trace.index_reads));
    m.set(
        "engine.lines_per_lookup",
        per_lookup(trace.cache_lines_touched as usize),
    );
    m.set("engine.filter_reads", per_lookup(trace.filter_reads));
    m.set("engine.result_reads", per_lookup(trace.result_reads));
    m.set("engine.spill_hits", per_lookup(trace.spill_hits));

    // The layout ablation: the same table, flat Index Tables.
    let flat = ChiselLpm::build(&inputs.table, engine_config().blocked_index(false))?;
    let flat_ns = batch_rung(
        &mut spans,
        "engine.flat_lookup_batch",
        keys,
        &mut out,
        |k, o| flat.lookup_batch(k, o),
    )?;
    m.set("engine.flat_lookup_batch_ns", flat_ns);
    check(tally, "engine.flat_lookup_batch", &out);
    m.set(
        "engine.flat_lines_per_lookup",
        per_lookup(traced(&flat).cache_lines_touched as usize),
    );
    drop(flat);

    let (image, export_s) = once(&mut spans, "image.export", || engine.export_image());
    let (bytes, to_bytes_s) = once(&mut spans, "image.to_bytes", || image.to_bytes());
    let (loaded, from_bytes_s) = once(&mut spans, "image.from_bytes", || {
        HardwareImage::from_bytes(&bytes)
    });
    let loaded = loaded?;
    m.set("image.export_s", export_s);
    m.set("image.to_bytes_s", to_bytes_s);
    m.set("image.from_bytes_s", from_bytes_s);
    m.set("image.bytes", bytes.len() as f64);
    drop((image, bytes));
    let image_keys = &keys[..gate];
    let ns = key_rung(&mut spans, "image.lookup", image_keys, |i, k| {
        out[i] = loaded.lookup(k);
    })?;
    m.set("image.lookup_ns", ns);
    check(tally, "image.lookup", &out[..image_keys.len()]);
    drop(loaded);

    let shared = SharedChisel::from_engine(engine.clone());
    let shared_batch_ns = batch_rung(&mut spans, "shared.lookup_batch", keys, &mut out, |k, o| {
        shared.lookup_batch(k, o)
    })?;
    m.set("shared.lookup_batch_ns", shared_batch_ns);
    m.set("shared.pin_self_ns", shared_batch_ns - engine_batch_ns);
    check(tally, "shared.lookup_batch", &out);

    // The reader rung twice, a cold reader per rep as a shard starts a
    // lap: one call span per batch (the percentiles), then bare (the
    // number, and the cost of the spans themselves).
    let mut hit_rate = 0.0;
    let mut reader_rung = |spans: &mut Spans, name: &'static str, spanned: bool| {
        rung(spans, name, keys.len(), |spans| {
            let mut reader = shared.reader();
            let start = Instant::now();
            for (k, o) in keys.chunks(BATCH).zip(out.chunks_mut(BATCH)) {
                if spanned {
                    let t0 = Instant::now();
                    reader.lookup_batch(k, o);
                    spans.call(name, t0, Instant::now(), k.len() as u64);
                } else {
                    reader.lookup_batch(k, o);
                }
            }
            let seconds = start.elapsed().as_secs_f64();
            let (hits, misses) = (reader.cache().hits(), reader.cache().misses());
            hit_rate = hits as f64 / (hits + misses) as f64;
            Ok(seconds)
        })
    };
    let (spanned_s, mark) = reader_rung(&mut spans, "reader.lookup_batch", true)?;
    let (bare_s, _) = reader_rung(&mut spans, "reader.lookup_batch.bare", false)?;
    let reader_ns = bare_s * 1e9 / keys.len() as f64;
    check(tally, "reader.lookup_batch", &out);
    let batch_us = spans.call_us_since(mark, "reader.lookup_batch");
    // What a hit costs in this traffic: the arrivals of the 1024 head
    // flows in their own order (so Zipf keeps its skew), on a warm cache.
    let head = &inputs.pool[..inputs.pool.len().min(1024)];
    let head_set: HashSet<Key> = head.iter().copied().collect();
    let hot: Vec<Key> = keys
        .iter()
        .filter(|k| head_set.contains(k))
        .chain(head)
        .copied()
        .cycle()
        .take(scalar_keys.len())
        .collect();
    let mut reader = shared.reader();
    let hit_ns = batch_rung(
        &mut spans,
        "reader.hit",
        &hot,
        &mut out[..hot.len()],
        |k, o| reader.lookup_batch(k, o),
    )?;
    let model_ns = hit_rate * hit_ns + (1.0 - hit_rate) * (hit_ns + engine_batch_ns);
    m.set("reader.lookup_batch_ns", reader_ns);
    m.set("reader.hit_rate", hit_rate);
    m.set("reader.hit_ns", hit_ns);
    m.set("reader.batch_p50_us", percentile(&batch_us, 0.50));
    m.set("reader.batch_p99_us", percentile(&batch_us, 0.99));
    m.set("reader.model_ns", model_ns);
    m.set(
        "ledger.read_residual_pct",
        (reader_ns - model_ns).abs() / reader_ns * 100.0,
    );
    let spanned_ns = spanned_s * 1e9 / keys.len() as f64;
    m.set(
        "bench.span_overhead_pct",
        (spanned_ns - reader_ns) / reader_ns * 100.0,
    );

    let dataplane = Dataplane::new(shared.clone(), DataplaneConfig::default());
    spans.enter("dataplane.run");
    let quiet = dataplane.run(keys, &timed_lap);
    spans.exit(quiet.aggregate.lookups);
    tally.dataplane("dataplane.run", &quiet);
    let ns_per_key = 1e3 / msps(&quiet);
    m.set("dataplane.ns_per_key", ns_per_key);
    m.set("dataplane.self_ns", ns_per_key - reader_ns);
    m.set("dataplane.hit_rate", quiet.aggregate.cache_hit_rate());
    m.set(
        "dataplane.keys_per_batch",
        quiet.aggregate.lookups as f64 / quiet.aggregate.batches as f64,
    );

    let two_shards = DataplaneConfig {
        shards: 2,
        ..Default::default()
    };
    spans.enter("dataplane.run.shards2");
    let wide = Dataplane::new(shared.clone(), two_shards).run(keys, &timed_lap);
    spans.exit(wide.aggregate.lookups);
    tally.dataplane("dataplane.run.shards2", &wide);
    m.set("dataplane.msps_shards2", msps(&wide));

    // The daemon's own saturating control plane (`control_main`):
    // journaled windows as fast as they go, beside the readers.
    let saturated = SharedChisel::from_engine(engine.clone());
    let sat_config = DataplaneConfig {
        update_batch: WINDOW,
        ..Default::default()
    };
    let sat_options = RunOptions {
        duration: Some(lap),
        updates: inputs
            .events
            .iter()
            .map(|ev| match *ev {
                RouteUpdate::Announce(p, nh) => UpdateEvent::Announce(p, nh),
                RouteUpdate::Withdraw(p) => UpdateEvent::Withdraw(p),
            })
            .collect(),
        durable: Some(durable_options(dir, "sat", spec)),
        ..Default::default()
    };
    spans.enter("dataplane.run.control_sat");
    let sat = Dataplane::new(saturated.clone(), sat_config).run(keys, &sat_options);
    spans.exit(sat.aggregate.lookups);
    tally.dataplane("dataplane.run.control_sat", &sat);
    tally.record(
        "control_sat updates",
        (sat.control.applied + sat.control.rejected) as u64,
        sat.control.rejected as u64,
    );
    let mut oracle = inputs.oracle.clone();
    apply_to_oracle(&mut oracle, &inputs.events[..sat.control.applied]);
    let answers = inputs.verify_keys().map(|k| (k, saturated.lookup(k)));
    tally.answers("answers after control_sat", &oracle, answers);
    m.set("dataplane.control_sat_msps", msps(&sat));
    // A lower bound if the trace ran out before the lap did.
    m.set(
        "dataplane.control_sat_updates_per_s",
        sat.control.applied as f64 / sat.elapsed.as_secs_f64(),
    );
    drop((sat, saturated, oracle));

    // ── write side ──────────────────────────────────────────────────
    let fresh_engine = || Ok(engine.clone());
    let (s, _, _) = window_rung(
        &mut spans,
        "engine.scalar_update",
        w1_events,
        1,
        tally,
        fresh_engine,
        engine_scalar,
    )?;
    m.set("engine.scalar_updates_per_s", w1_events.len() as f64 / s);
    let (engine_w1_s, _, _) = window_rung(
        &mut spans,
        "engine.apply_batch.w1",
        w1_events,
        1,
        tally,
        fresh_engine,
        engine_batch,
    )?;
    m.set(
        "engine.apply_w1_per_s",
        w1_events.len() as f64 / engine_w1_s,
    );
    let (engine_w64_s, _, updated) = window_rung(
        &mut spans,
        "engine.apply_batch.w64",
        events,
        WINDOW,
        tally,
        fresh_engine,
        engine_batch,
    )?;
    m.set("engine.apply_w64_per_s", events.len() as f64 / engine_w64_s);
    let stats = updated.engine_stats();
    m.set("engine.resetups", stats.resetups as f64);
    m.set("engine.rebuild_units", stats.batch.parallel_resetups as f64);
    m.set("engine.coalesced", stats.batch.events_coalesced as f64);
    m.set("engine.add_singleton", stats.updates.add_singleton as f64);
    m.set("engine.route_flaps", stats.updates.route_flaps as f64);
    m.set(
        "engine.degraded_parks",
        stats.recovery.degraded_parks as f64,
    );
    let mut oracle = inputs.oracle.clone();
    apply_to_oracle(&mut oracle, events);
    let answers = inputs.verify_keys().map(|k| (k, updated.lookup(k)));
    tally.answers("answers after engine.apply_batch", &oracle, answers);
    drop(updated);

    let fresh_shared = || Ok(SharedChisel::from_engine(engine.clone()));
    let (shared_w1_s, mark, _) = window_rung(
        &mut spans,
        "shared.apply_batch.w1",
        w1_events,
        1,
        tally,
        fresh_shared,
        shared_batch,
    )?;
    let w1_us = spans.call_us_since(mark, "shared.apply_batch.w1");
    let (shared_w64_s, mark, _) = window_rung(
        &mut spans,
        "shared.apply_batch.w64",
        events,
        WINDOW,
        tally,
        fresh_shared,
        shared_batch,
    )?;
    let w64_us = spans.call_us_since(mark, "shared.apply_batch.w64");
    let per_window_us = |total_s: f64, events: &[RouteUpdate], window: usize| {
        total_s * 1e6 / events.len().div_ceil(window) as f64
    };
    m.set(
        "shared.apply_w1_per_s",
        w1_events.len() as f64 / shared_w1_s,
    );
    m.set("shared.apply_w64_per_s", events.len() as f64 / shared_w64_s);
    m.set(
        "shared.publish_self_us_w1",
        per_window_us(shared_w1_s - engine_w1_s, w1_events, 1),
    );
    m.set(
        "shared.publish_self_us_w64",
        per_window_us(shared_w64_s - engine_w64_s, events, WINDOW),
    );
    m.set("shared.window_p50_us_w1", percentile(&w1_us, 0.50));
    m.set("shared.window_p99_us_w1", percentile(&w1_us, 0.99));
    m.set("shared.window_p50_us_w64", percentile(&w64_us, 0.50));
    m.set("shared.window_p99_us_w64", percentile(&w64_us, 0.99));

    // Journaled: every rep starts a fresh control plane, whose `create`
    // writes the initial checkpoint (their median is `journal.create_s`).
    let mut create_s = Vec::new();
    let mut tag = 0;
    let mut fresh_durable = || {
        tag += 1;
        let opts = durable_options(dir, &format!("ladder{tag}"), spec);
        let target = SharedChisel::from_engine(engine.clone());
        let start = Instant::now();
        let durable = DurableControl::create(target, opts.clone())?;
        create_s.push(start.elapsed().as_secs_f64());
        Ok((durable, opts))
    };
    let (durable_w1_s, _, (_, w1_opts)) = window_rung(
        &mut spans,
        "durable.apply_batch.w1",
        w1_events,
        1,
        tally,
        &mut fresh_durable,
        durable_batch,
    )?;
    let (durable_w64_s, _, (mut durable, opts)) = window_rung(
        &mut spans,
        "durable.apply_batch.w64",
        events,
        WINDOW,
        tally,
        &mut fresh_durable,
        durable_batch,
    )?;
    let bytes_per_event = |o: &DurableOptions, events: &[RouteUpdate]| {
        std::fs::metadata(&o.journal).map(|md| md.len() as f64 / events.len() as f64)
    };
    m.set("journal.create_s", median(&create_s));
    m.set(
        "journal.durable_w1_per_s",
        w1_events.len() as f64 / durable_w1_s,
    );
    m.set(
        "journal.durable_w64_per_s",
        events.len() as f64 / durable_w64_s,
    );
    m.set(
        "journal.bytes_per_event_w1",
        bytes_per_event(&w1_opts, w1_events)?,
    );
    m.set(
        "journal.bytes_per_event_w64",
        bytes_per_event(&opts, events)?,
    );
    let append_self_w64_us = per_window_us(durable_w64_s - shared_w64_s, events, WINDOW);
    m.set(
        "journal.append_self_us_w1",
        per_window_us(durable_w1_s - shared_w1_s, w1_events, 1),
    );
    m.set("journal.append_self_us_w64", append_self_w64_us);

    // `JournalWriter::append` alone on the same windows, fsync on.
    let direct = dir.join(format!("{}.direct.journal", spec.name));
    let fresh_writer = || Ok(JournalWriter::create(&direct, AddressFamily::V4, true)?);
    let mut generation = 0;
    let mut append = |w: &mut JournalWriter, events: &[RouteUpdate]| {
        generation += 1;
        w.append(generation, events)?;
        Ok(0)
    };
    let (direct_w1_s, _, _) = window_rung(
        &mut spans,
        "journal.append.w1",
        w1_events,
        1,
        tally,
        fresh_writer,
        &mut append,
    )?;
    let (direct_w64_s, _, _) = window_rung(
        &mut spans,
        "journal.append.w64",
        events,
        WINDOW,
        tally,
        fresh_writer,
        &mut append,
    )?;
    let direct_w64_us = per_window_us(direct_w64_s, events, WINDOW);
    m.set(
        "journal.append_direct_us_w1",
        per_window_us(direct_w1_s, w1_events, 1),
    );
    m.set("journal.append_direct_us_w64", direct_w64_us);
    // Per w64 window: do engine + publish + append add up to durable?
    m.set(
        "ledger.write_residual_pct",
        (append_self_w64_us - direct_w64_us).abs() / per_window_us(durable_w64_s, events, WINDOW)
            * 100.0,
    );

    // Recovery from the last w64 rep's files (initial checkpoint + every
    // window in the journal tail), then from a fresh checkpoint alone:
    // the difference is the replay.
    let durable_generation = durable.durable_generation();
    let recover = |spans: &mut Spans, name: &'static str| {
        let (recovered, seconds) = once(spans, name, || {
            let checkpoint = read_checkpoint(&opts.checkpoint)?;
            recover_with_config(checkpoint, &opts.journal, engine_config())
        });
        recovered.map(|r| (r, seconds))
    };
    let (recovered, recover_w64_s) = recover(&mut spans, "recover.w64")?;
    tally.record(
        "recovered generation",
        1,
        u64::from(recovered.report.final_generation != durable_generation),
    );
    let answers = inputs
        .verify_keys()
        .map(|k| (k, recovered.shared.lookup(k)));
    tally.answers("answers after recover", &oracle, answers);
    drop((recovered, oracle));
    let (checkpointed, checkpoint_s) =
        once(&mut spans, "durable.checkpoint", || durable.checkpoint());
    checkpointed?;
    drop(durable);
    let (recovered, recover_base_s) = recover(&mut spans, "recover.base")?;
    drop(recovered);
    m.set("journal.checkpoint_s", checkpoint_s);
    m.set(
        "journal.checkpoint_bytes",
        std::fs::metadata(&opts.checkpoint)?.len() as f64,
    );
    m.set("journal.recover_base_s", recover_base_s);
    m.set("journal.recover_w64_s", recover_w64_s);

    // ── storm attribution ───────────────────────────────────────────
    // Three rounds of three half-laps — quiet; the paced writer aimed at
    // a second engine nobody serves (it steals the CPU and publishes
    // nothing to the readers); the writer aimed at the served engine (it
    // also flushes their flow caches every generation) — interleaved so
    // host drift hits all three alike, the median of each kind reported.
    let half_lap = RunOptions {
        duration: Some(lap / 2),
        ..Default::default()
    };
    let rate = spec.writer_rate;
    let decoy_target = SharedChisel::from_engine(engine.clone());
    let decoy_options = durable_options(dir, "decoy", spec);
    let mut decoy_writer = DurableControl::create(decoy_target, decoy_options)?;
    let mut real_writer =
        DurableControl::create(shared.clone(), durable_options(dir, "real", spec))?;
    let (mut quiet_msps, mut decoy_msps, mut real_msps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut decoy_at, mut real_at) = (0, 0);
    let mut hit_rates = Vec::new();
    let mut storm = StormLog::default();
    let mut gen_lag = 0;
    let before = shared.generation();
    for _ in 0..3 {
        let (quiet, _) = storm_lap(&mut spans, "storm.quiet", &dataplane, keys, &half_lap, None)?;
        let writer = (&mut decoy_writer, &inputs.events[decoy_at..], rate);
        let (decoy, decoy_log) = storm_lap(
            &mut spans,
            "storm.decoy",
            &dataplane,
            keys,
            &half_lap,
            Some(writer),
        )?;
        let writer = (&mut real_writer, &inputs.events[real_at..], rate);
        let (real, real_log) = storm_lap(
            &mut spans,
            "storm.real",
            &dataplane,
            keys,
            &half_lap,
            Some(writer),
        )?;
        for (kind, report) in [("quiet", &quiet), ("decoy", &decoy), ("real", &real)] {
            tally.dataplane(kind, report);
        }
        tally.record(
            "storm updates",
            (decoy_log.applied + real_log.applied) as u64 + decoy_log.missed + real_log.missed,
            decoy_log.rejected + real_log.rejected + decoy_log.missed + real_log.missed,
        );
        quiet_msps.push(msps(&quiet));
        decoy_msps.push(msps(&decoy));
        real_msps.push(msps(&real));
        hit_rates.push(real.aggregate.cache_hit_rate());
        let seen = real.per_shard.iter().map(|s| s.max_generation).min();
        gen_lag = gen_lag.max(shared.generation() - seen.unwrap_or(before));
        decoy_at += decoy_log.applied;
        real_at += real_log.applied;
        storm.latency_ms.extend(real_log.latency_ms);
        storm.late_max_ms = storm.late_max_ms.max(real_log.late_max_ms);
        storm.busy_s += real_log.busy_s;
        storm.elapsed_s += real_log.elapsed_s;
    }
    let mut oracle = inputs.oracle.clone();
    apply_to_oracle(&mut oracle, &inputs.events[..real_at]);
    let answers = inputs.verify_keys().map(|k| (k, shared.lookup(k)));
    tally.answers("answers after the storm", &oracle, answers);
    let (quiet, decoy, real) = (median(&quiet_msps), median(&decoy_msps), median(&real_msps));
    m.set("storm.msps_quiet", quiet);
    m.set("storm.msps_decoy", decoy);
    m.set("storm.msps_real", real);
    m.set("storm.cpu_cost_pct", (quiet - decoy) / quiet * 100.0);
    m.set("storm.flush_cost_pct", (decoy - real) / quiet * 100.0);
    m.set("storm.hit_rate", median(&hit_rates));
    m.set("storm.generations", (shared.generation() - before) as f64);
    m.set("storm.windows", storm.latency_ms.len() as f64);
    m.set("storm.writer_busy_frac", storm.busy_s / storm.elapsed_s);
    m.set("storm.update_p50_ms", percentile(&storm.latency_ms, 0.50));
    m.set("storm.late_max_ms", storm.late_max_ms);
    m.set("storm.gen_lag_max", gen_lag as f64);

    spans.exit(keys.len() as u64);
    m.set("bench.inputs_s", inputs.generate_s);
    m.set("bench.spans", spans.len() as f64);
    m.set("bench.traced_pass_s", pass_start.elapsed().as_secs_f64());
    Ok((m, spans))
}
