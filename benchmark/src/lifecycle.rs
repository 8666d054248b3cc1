//! The end-to-end pass (tracing off): one router lifecycle per run.
//!
//! ```text
//! setup ─▶ gate ─▶ serve laps ─▶ A: volatile replay ─▶ B: journaled replay ─▶ C: die, recover
//! (build +  (recorded  (Dataplane::run,   (SharedChisel,      (DurableControl,        (no final
//!  journal)  pass vs    paced writer       one event a         windows of 64,          checkpoint)
//!            oracle)    beside it on       time, on a twin)    fsync on)
//!                       fwd_storm)
//! ```
//!
//! The stack is driven through public functions only, and every table
//! state the run leaves behind is re-checked against an `OracleLpm`
//! replayed with exactly the accepted events.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use chisel_core::journal::read_checkpoint;
use chisel_core::{recover_with_config, ChiselLpm, DurableControl, SharedChisel};
use chisel_dataplane::{Dataplane, DataplaneConfig, RunOptions};

use crate::harness::{
    apply_one, apply_to_oracle, bulk_rate, durable_options, median, paced_writer, percentile,
    rss_mib, BoxError, Metrics, StormLog, Tally,
};
use crate::workloads::{engine_config, Inputs, Spec, GATE_KEYS, WINDOW};

pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    seconds: u64,
    dir: &Path,
    tally: &mut Tally,
    detail: &mut Metrics,
) -> Result<Metrics, BoxError> {
    let mut m = Metrics::default();
    let events = &inputs.events;

    // Setup: build, wrap, journal. The median over `setup_reps` fresh
    // stacks; input generation is excluded.
    let mut setup_s = Vec::new();
    let mut stack = None;
    for rep in 0..spec.setup_reps {
        drop(stack.take());
        let opts = durable_options(dir, &format!("run{rep}"), spec);
        let start = Instant::now();
        let engine = ChiselLpm::build(&inputs.table, engine_config())?;
        let built = start.elapsed();
        let twin = engine.clone();
        let start = Instant::now();
        let shared = SharedChisel::from_engine(engine);
        let durable = DurableControl::create(shared.clone(), opts.clone())?;
        setup_s.push((built + start.elapsed()).as_secs_f64());
        stack = Some((shared, durable, twin, opts));
    }
    let (shared, mut durable, twin, opts) = stack.expect("setup_reps >= 1");
    m.set("setup_s", median(&setup_s));
    m.set(
        "bits_per_prefix",
        twin.storage().total_bits() as f64 / spec.routes as f64,
    );
    detail.set("spill_entries", twin.spill_len() as f64);

    // Gate: before any timing, one recorded pass must equal the oracle
    // answer for answer.
    let dataplane = Dataplane::new(shared.clone(), DataplaneConfig::default());
    let gate_keys = &inputs.keys[..GATE_KEYS.min(inputs.keys.len())];
    let gate = dataplane.run(
        gate_keys,
        &RunOptions {
            record: true,
            ..Default::default()
        },
    );
    let answers = gate
        .records
        .iter()
        .flatten()
        .flat_map(|r| r.keys.iter().copied().zip(r.answers.iter().copied()));
    tally.answers("gate answers", &inputs.oracle, answers);
    let answered = gate.records.iter().flatten().map(|r| r.answers.len());
    let unanswered = answered.sum::<usize>() != gate_keys.len();
    tally.record("gate coverage", 1, u64::from(unanswered));
    tally.dataplane("gate run", &gate);

    // Serve: a warm-up lap, then three timed laps; on a storm workload
    // the paced writer runs beside all four.
    let lap = Duration::from_secs_f64(spec.lap_seconds(seconds));
    let warm_up = lap.mul_f64(0.4);
    let stop = AtomicBool::new(false);
    let mut laps = Vec::new();
    let mut hit_rates = Vec::new();
    let storm: Option<StormLog> = std::thread::scope(|scope| {
        let writer = spec.storm.then(|| {
            let (durable, stop) = (&mut durable, &stop);
            scope.spawn(move || paced_writer(durable, events, spec.writer_rate, warm_up, stop))
        });
        for i in 0..4 {
            let duration = if i == 0 { warm_up } else { lap };
            let report = dataplane.run(
                &inputs.keys,
                &RunOptions {
                    duration: Some(duration),
                    ..Default::default()
                },
            );
            tally.dataplane("serve lap", &report);
            if i > 0 {
                laps.push(report.aggregate.lookups as f64 / report.elapsed.as_secs_f64() / 1e6);
                hit_rates.push(report.aggregate.cache_hit_rate());
            }
        }
        stop.store(true, Ordering::Release);
        writer.map(|w| w.join().expect("paced writer panicked"))
    });
    m.set("lookup_msps", median(&laps));
    let lap_min = laps.iter().copied().fold(f64::INFINITY, f64::min);
    detail.set("lookup_msps_min", lap_min);
    detail.set("lookup_msps_max", percentile(&laps, 1.0));
    detail.set("serve_hit_rate", median(&hit_rates));

    let mut oracle = inputs.oracle.clone();
    let mut consumed = 0;
    if let Some(log) = &storm {
        if let Some(e) = &log.error {
            return Err(format!("paced writer: {e}").into());
        }
        let offered = log.applied as u64 + log.missed * WINDOW as u64;
        tally.record("storm updates", offered, log.rejected + log.missed);
        consumed = log.applied;
        apply_to_oracle(&mut oracle, &events[..consumed]);
        let answers = inputs.verify_keys().map(|k| (k, shared.lookup(k)));
        tally.answers("answers after the storm", &oracle, answers);
        detail.set("storm_windows", log.latency_ms.len() as f64);
        detail.set("storm_update_p99_ms", percentile(&log.latency_ms, 0.99));
        detail.set("storm_late_max_ms", log.late_max_ms);
        detail.set("storm_apply_max_ms", log.apply_max_ms);
        detail.set("storm_writer_busy_frac", log.busy_s / log.elapsed_s);
    }

    // Phase A: announce → visible, one event and one generation at a
    // time, on a twin of the freshly built engine so the journaled
    // generation sequence below stays gapless.
    let twin = SharedChisel::from_engine(twin);
    let phase_a = &events[..spec.events_a];
    let mut event_s = Vec::with_capacity(phase_a.len());
    let mut rejected = 0;
    let start = Instant::now();
    for ev in phase_a {
        let t = Instant::now();
        rejected += usize::from(!apply_one(&twin, ev));
        event_s.push(t.elapsed().as_secs_f64());
    }
    let mean_rate = phase_a.len() as f64 / start.elapsed().as_secs_f64();
    m.set("updates_per_s", bulk_rate(&event_s, 1));
    detail.set("updates_per_s_mean", mean_rate);
    tally.record("phase A updates", phase_a.len() as u64, rejected as u64);
    let mut oracle_a = inputs.oracle.clone();
    apply_to_oracle(&mut oracle_a, phase_a);
    let answers = inputs.verify_keys().map(|k| (k, twin.lookup(k)));
    tally.answers("answers after phase A", &oracle_a, answers);
    let gens = twin.generation();
    tally.record(
        "phase A generations",
        1,
        u64::from(gens != phase_a.len() as u64),
    );
    drop((twin, oracle_a));

    // Phase B: visible + durable, windows of 64, closed loop, including
    // whatever periodic checkpoint the window count triggers.
    let phase_b = &events[consumed..consumed + spec.events_b];
    let mut window_s = Vec::with_capacity(phase_b.len() / WINDOW);
    let mut rejected = 0;
    let mut journal_len = std::fs::metadata(&opts.journal)?.len();
    let mut written = 0u64;
    let start = Instant::now();
    for window in phase_b.chunks(WINDOW) {
        let t = Instant::now();
        rejected += durable.apply_batch(window)?.rejected_events.len();
        window_s.push(t.elapsed().as_secs_f64());
        let len = std::fs::metadata(&opts.journal)?.len();
        written += if len >= journal_len {
            len - journal_len
        } else {
            // The journal was rotated: this window paid for a checkpoint.
            len + std::fs::metadata(&opts.checkpoint)?.len()
        };
        journal_len = len;
    }
    let mean_rate = phase_b.len() as f64 / start.elapsed().as_secs_f64();
    m.set("durable_updates_per_s", bulk_rate(&window_s, WINDOW));
    detail.set("durable_updates_per_s_mean", mean_rate);
    m.set(
        "journal_bytes_per_update",
        written as f64 / phase_b.len() as f64,
    );
    tally.record("phase B updates", phase_b.len() as u64, rejected as u64);
    apply_to_oracle(&mut oracle, phase_b);
    let answers = inputs.verify_keys().map(|k| (k, shared.lookup(k)));
    tally.answers("answers after phase B", &oracle, answers);
    detail.set("checkpoints", durable.stats().checkpoints as f64);
    detail.set(
        "spill_entries_final",
        shared.engine_stats().spill_len as f64,
    );

    // Window latency. The median comes from the open-loop writer where
    // there is one (timed from due time, beside the readers), else from
    // phase B. The tail always comes from phase B: open loop it is
    // re-setup time stretched by CPU contention plus the queue behind
    // it, and swings by 12 – 30% between runs of one seed, so there it is
    // printed, not bounded.
    let window_ms: Vec<f64> = window_s.iter().map(|s| s * 1e3).collect();
    let typical = storm.as_ref().map_or(&window_ms, |log| &log.latency_ms);
    m.set("update_p50_ms", percentile(typical, 0.50));
    m.set("update_p99_ms", percentile(&window_ms, 0.99));
    detail.set("update_max_ms", percentile(&window_ms, 1.0));

    // Phase C: the process dies — every handle dropped, no final
    // checkpoint — and recovers from checkpoint + journal tail. A kill,
    // not a power cut: the page cache survives.
    let durable_generation = durable.durable_generation();
    drop((durable, dataplane, shared));
    let start = Instant::now();
    let checkpoint = read_checkpoint(&opts.checkpoint)?;
    let recovered = recover_with_config(checkpoint, &opts.journal, engine_config())?;
    m.set("recover_s", start.elapsed().as_secs_f64());
    tally.record(
        "recovered generation",
        1,
        u64::from(recovered.report.final_generation != durable_generation),
    );
    let answers = inputs
        .verify_keys()
        .map(|k| (k, recovered.shared.lookup(k)));
    tally.answers("answers after recovery", &oracle, answers);
    detail.set(
        "recover_replayed_events",
        recovered.report.replayed_events as f64,
    );

    m.set("rss_mb", rss_mib());
    Ok(m)
}
