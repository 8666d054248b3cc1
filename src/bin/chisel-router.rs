//! `chisel-router` — a command-line front end to the Chisel engine.
//!
//! ```text
//! chisel-router build  <table-file> [--threads N]        timed engine build
//! chisel-router lookup <table-file> <addr> [<addr>...] [--cache[=SLOTS]]
//!                                                        LPM lookups
//! chisel-router stats  <table-file>                      table + engine stats
//! chisel-router check  <table-file> [--threads N]        invariant verifier
//! chisel-router replay <table-file> [<trace.mrt>] [--threads N] [--adversarial[=N]]
//!                      [--batch N]                       apply an MRT update trace
//! chisel-router serve  <table-file> [--shards N] [--duration S] [--batch B]
//!                      [--update-batch N] [--cache[=SLOTS]] [--adversarial[=N]]
//!                      [--journal PATH] [--checkpoint-every N]
//!                      [--threads N]                     sharded dataplane daemon
//! chisel-router recover --journal PATH [--checkpoint PATH]
//!                                                        crash recovery + verify
//! chisel-router synth  <n> <out-file> [seed]             write a synthetic table
//! ```
//!
//! `check` builds an engine, re-walks every inserted prefix through all
//! four tables (engine-side and again from the exported hardware image —
//! see `chisel::core::verify`), and round-trips the route set against the
//! input table. Exit status is non-zero on any violation.
//!
//! `--threads N` sets the build-pipeline worker count (default: the
//! machine's available parallelism). The engine image is byte-identical
//! for every value — threads only change build wall-time.
//!
//! `--cache[=SLOTS]` puts a generation-stamped flow cache in front of the
//! lookups (default slot count: `FlowCache::DEFAULT_CAPACITY`) and
//! reports its hit/miss counters — repeated addresses are answered from
//! the cache without re-walking the data path.
//!
//! `replay --adversarial[=N]` appends a seeded hostile update stream
//! (duplicate announces, withdraw-before-announce, flap bursts, host
//! routes — see `chisel::workloads::adversarial_trace`; default 20000
//! events) after the optional MRT trace, tolerates typed rejections
//! instead of aborting, and reports the engine's recovery counters and
//! degraded-mode status afterwards. A `replay` with no trace at all is
//! a no-op that still prints the (zeroed) counter summary and exits 0.
//!
//! `replay --batch=N` applies the trace through the batched update
//! engine in windows of N events: each window coalesces per prefix,
//! runs its partition re-setups in parallel, and publishes exactly one
//! snapshot generation; the batch-engine counters (events coalesced,
//! re-setups saved) are printed after the run. `serve --update-batch=N`
//! does the same on the live control plane while the shards keep
//! serving.
//!
//! `serve` runs the saturation scenario of the sharded dataplane daemon
//! (`chisel::dataplane`): `--shards N` run-to-completion workers, each
//! with a private flow cache, fed by an RSS-style flow hash over a
//! Zipf-ordered key stream synthesized from the table, while the
//! control plane replays an adversarial update storm (`--adversarial=N`
//! events, default 20000) at full rate. Runs for `--duration S` seconds
//! (default 1.0; `--duration 0` runs until SIGINT/SIGTERM), then drains
//! and prints per-shard counters and the aggregate Msps. SIGINT or
//! SIGTERM at any point triggers the same graceful drain and a zero
//! exit with full counters.
//!
//! `serve --journal PATH` makes the control plane durable: an initial
//! checkpoint at `PATH.ckpt`, every accepted update window appended to
//! the write-ahead journal at `PATH` before it is acknowledged, a
//! periodic checkpoint every `--checkpoint-every N` accepted events
//! (0, the default, checkpoints only at start and drain), and a final
//! checkpoint + journal rotation at drain. After a crash,
//! `recover --journal PATH` loads the newest valid checkpoint, replays
//! the journal tail (truncating a torn final record), verifies the
//! recovered engine's invariants, and reports the exact recovered
//! generation — see `chisel::core::journal`.
//!
//! Table files are `prefix next-hop-id` lines (see `chisel_prefix::io`);
//! traces are MRT/BGP4MP as produced by `chisel::workloads::write_mrt`
//! or by RIS collectors (IPv4 UPDATE subset).

#![forbid(unsafe_code)]

use std::fs::File;
use std::process::ExitCode;
use std::time::Instant;

use chisel::core::journal::DurableOptions;
use chisel::core::{DegradedMode, FlowCache, SharedChisel};
use chisel::dataplane::{signal, Dataplane, DataplaneConfig, RunOptions};
use chisel::prefix::io::read_table;
use chisel::prefix::parallel::resolve_threads;
use chisel::workloads::{
    adversarial_trace, analyze, flow_pool, read_mrt, synthesize, zipf_stream,
    PrefixLenDistribution, UpdateEvent,
};
use chisel::{ChiselConfig, ChiselLpm, Key, RoutingTable};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = match take_threads_flag(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cache = match take_cache_flag(&mut args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let adversarial = match take_adversarial_flag(&mut args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--batch N` belongs to `replay` only (`serve` has its own --batch
    // for keystream batches), so it is peeled off arm-locally.
    let replay_batch = if args.first().map(String::as_str) == Some("replay") {
        match take_value_flag::<usize>(&mut args, "batch") {
            Ok(b) => {
                let b = b.unwrap_or(1);
                if b == 0 {
                    eprintln!("error: --batch must be at least 1");
                    return ExitCode::FAILURE;
                }
                b
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        1
    };
    let result = match args.first().map(String::as_str) {
        Some("build") if args.len() == 2 => cmd_build(&args[1], threads),
        Some("lookup") if args.len() >= 3 => cmd_lookup(&args[1], &args[2..], cache),
        Some("stats") if args.len() == 2 => cmd_stats(&args[1]),
        Some("check") if args.len() == 2 => cmd_check(&args[1], threads),
        Some("replay") if args.len() == 3 => {
            cmd_replay(&args[1], Some(&args[2]), threads, adversarial, replay_batch)
        }
        // An empty trace (no MRT file, no adversarial stream) is a valid
        // no-op replay: print the zeroed counter summary and exit 0.
        Some("replay") if args.len() == 2 => {
            cmd_replay(&args[1], None, threads, adversarial, replay_batch)
        }
        Some("serve") if args.len() >= 2 => {
            match ServeFlags::take(&mut args).and_then(|f| {
                if args.len() == 2 {
                    Ok(f)
                } else {
                    Err("serve takes one table file".to_string())
                }
            }) {
                Ok(flags) => cmd_serve(&args[1], threads, cache, adversarial, flags),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some("recover") => {
            let journal = match take_value_flag::<String>(&mut args, "journal") {
                Ok(Some(j)) => j,
                Ok(None) => {
                    eprintln!("error: recover requires --journal PATH");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let checkpoint = match take_value_flag::<String>(&mut args, "checkpoint") {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if args.len() != 1 {
                eprintln!("error: recover takes only --journal and --checkpoint");
                return ExitCode::FAILURE;
            }
            cmd_recover(&journal, checkpoint.as_deref())
        }
        Some("synth") if args.len() >= 3 => cmd_synth(&args[1], &args[2], args.get(3)),
        _ => {
            eprintln!(
                "usage: chisel-router build <table> [--threads N] | \
                 lookup <table> <addr>... [--cache[=SLOTS]] | stats <table> | \
                 check <table> [--threads N] | \
                 replay <table> [<trace.mrt>] [--threads N] [--adversarial[=N]] [--batch N] | \
                 serve <table> [--shards N] [--duration S] [--batch B] [--update-batch N] \
                 [--cache[=SLOTS]] [--adversarial[=N]] [--journal PATH] [--checkpoint-every N] \
                 [--threads N] | \
                 recover --journal PATH [--checkpoint PATH] | \
                 synth <n> <out> [seed]"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Extracts `--threads N` (or `--threads=N`) from anywhere in the argument
/// list. Returns `0` (auto: available parallelism) when absent.
fn take_threads_flag(args: &mut Vec<String>) -> Result<usize, String> {
    let Some(i) = args
        .iter()
        .position(|a| a == "--threads" || a.starts_with("--threads="))
    else {
        return Ok(0);
    };
    let flag = args.remove(i);
    let value = match flag.strip_prefix("--threads=") {
        Some(v) => v.to_string(),
        None => {
            if i >= args.len() {
                return Err("--threads requires a value".into());
            }
            args.remove(i)
        }
    };
    value
        .parse::<usize>()
        .map_err(|_| format!("invalid --threads value '{value}'"))
}

/// Extracts `--<name> V` (or `--<name>=V`) from anywhere in the argument
/// list. Returns `None` when absent.
fn take_value_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    let eq = format!("--{name}=");
    let bare = format!("--{name}");
    let Some(i) = args.iter().position(|a| *a == bare || a.starts_with(&eq)) else {
        return Ok(None);
    };
    let flag = args.remove(i);
    let value = match flag.strip_prefix(&eq) {
        Some(v) => v.to_string(),
        None => {
            if i >= args.len() {
                return Err(format!("--{name} requires a value"));
            }
            args.remove(i)
        }
    };
    value
        .parse::<T>()
        .map(Some)
        .map_err(|_| format!("invalid --{name} value '{value}'"))
}

/// The `serve` subcommand's own flags (shard count, run length, batch,
/// control-plane update window, durability).
struct ServeFlags {
    shards: usize,
    /// `0.0` means run until SIGINT/SIGTERM.
    duration_secs: f64,
    batch: usize,
    update_batch: usize,
    journal: Option<String>,
    checkpoint_every: u64,
}

impl ServeFlags {
    fn take(args: &mut Vec<String>) -> Result<ServeFlags, String> {
        let shards = take_value_flag::<usize>(args, "shards")?.unwrap_or(1);
        let duration_secs = take_value_flag::<f64>(args, "duration")?.unwrap_or(1.0);
        let update_batch = take_value_flag::<usize>(args, "update-batch")?.unwrap_or(1);
        let batch = take_value_flag::<usize>(args, "batch")?.unwrap_or(64);
        let journal = take_value_flag::<String>(args, "journal")?;
        let checkpoint_every = take_value_flag::<u64>(args, "checkpoint-every")?.unwrap_or(0);
        if shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        if batch == 0 {
            return Err("--batch must be at least 1".into());
        }
        if update_batch == 0 {
            return Err("--update-batch must be at least 1".into());
        }
        if !duration_secs.is_finite() || duration_secs < 0.0 {
            return Err(format!("invalid --duration value '{duration_secs}'"));
        }
        if checkpoint_every > 0 && journal.is_none() {
            return Err("--checkpoint-every needs --journal".into());
        }
        Ok(ServeFlags {
            shards,
            duration_secs,
            batch,
            update_batch,
            journal,
            checkpoint_every,
        })
    }
}

/// Extracts `--adversarial` (default event count) or `--adversarial=N`
/// from anywhere in the argument list. Returns `None` when absent.
fn take_adversarial_flag(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let Some(i) = args
        .iter()
        .position(|a| a == "--adversarial" || a.starts_with("--adversarial="))
    else {
        return Ok(None);
    };
    let flag = args.remove(i);
    match flag.strip_prefix("--adversarial=") {
        None => Ok(Some(20_000)),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("invalid --adversarial value '{v}'")),
    }
}

/// Extracts `--cache` (default slot count) or `--cache=SLOTS` from
/// anywhere in the argument list. Returns `None` when absent.
fn take_cache_flag(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let Some(i) = args
        .iter()
        .position(|a| a == "--cache" || a.starts_with("--cache="))
    else {
        return Ok(None);
    };
    let flag = args.remove(i);
    match flag.strip_prefix("--cache=") {
        None => Ok(Some(FlowCache::DEFAULT_CAPACITY)),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| format!("invalid --cache value '{v}'")),
    }
}

fn load(
    path: &str,
    threads: usize,
) -> Result<(RoutingTable, ChiselLpm), Box<dyn std::error::Error>> {
    let table = read_table(File::open(path)?)?;
    let config = match table.family() {
        chisel::AddressFamily::V4 => ChiselConfig::ipv4(),
        chisel::AddressFamily::V6 => ChiselConfig::ipv6(),
    }
    .build_threads(threads);
    let engine = ChiselLpm::build(&table, config)?;
    Ok((table, engine))
}

fn cmd_build(path: &str, threads: usize) -> Result<(), Box<dyn std::error::Error>> {
    let table = read_table(File::open(path)?)?;
    let config = match table.family() {
        chisel::AddressFamily::V4 => ChiselConfig::ipv4(),
        chisel::AddressFamily::V6 => ChiselConfig::ipv6(),
    }
    .build_threads(threads);
    let start = Instant::now();
    let engine = ChiselLpm::build(&table, config)?;
    let elapsed = start.elapsed().as_secs_f64();
    let s = engine.storage();
    let n = table.len().max(1);
    println!(
        "built {} prefixes in {:.3}s on {} threads ({:.0} prefixes/s)",
        table.len(),
        elapsed,
        resolve_threads(threads),
        table.len() as f64 / elapsed,
    );
    println!(
        "on-chip storage: {:.2} Mb, {:.1} bits/prefix \
         (index {:.1} / filter {:.1} / bit-vector {:.1} bits/prefix)",
        s.total_mbits(),
        s.total_bits() as f64 / n as f64,
        s.index_bits as f64 / n as f64,
        s.filter_bits as f64 / n as f64,
        s.bitvec_bits as f64 / n as f64,
    );
    let arena = engine.index_arena_bits();
    println!(
        "index table: packed entries, {} sub-cells, arena overhead {} bits",
        engine.index_geometry().len(),
        arena - s.index_bits,
    );
    Ok(())
}

fn cmd_lookup(
    path: &str,
    addrs: &[String],
    cache_slots: Option<usize>,
) -> Result<(), Box<dyn std::error::Error>> {
    let (_, engine) = load(path, 0)?;
    let keys = addrs
        .iter()
        .map(|a| a.parse())
        .collect::<Result<Vec<Key>, _>>()?;
    let mut out = vec![None; keys.len()];
    if let Some(slots) = cache_slots {
        // Scalar through the flow cache: repeated addresses hit and skip
        // the data path entirely.
        let mut cache = FlowCache::new(slots);
        for (key, slot) in keys.iter().zip(out.iter_mut()) {
            *slot = cache.lookup(&engine, *key);
        }
        eprintln!(
            "cache: {} hit(s) / {} miss(es) over {} slots",
            cache.hits(),
            cache.misses(),
            cache.capacity(),
        );
    } else {
        // One software-pipelined batch over all requested addresses: the
        // prefetch stages overlap the independent probes' memory latency.
        engine.lookup_batch(&keys, &mut out);
    }
    for (addr, nh) in addrs.iter().zip(out) {
        match nh {
            Some(nh) => println!("{addr} -> {nh}"),
            None => println!("{addr} -> no route"),
        }
    }
    Ok(())
}

fn cmd_stats(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let (table, engine) = load(path, 0)?;
    let hist = table.length_histogram();
    println!("table: {} ({} prefixes)", path, table.len());
    println!(
        "lengths: {:?} populated, min /{} max /{}",
        hist.populated_lengths().len(),
        hist.min_len().unwrap_or(0),
        hist.max_len().unwrap_or(0),
    );
    println!(
        "engine: built in {:.2}s, {} sub-cells, {} collapsed groups, {} spillover entries",
        start.elapsed().as_secs_f64(),
        engine.plan().num_cells(),
        engine.groups(),
        engine.spill_len(),
    );
    let s = engine.storage();
    println!(
        "on-chip storage: {:.2} Mb (index {:.2} / filter {:.2} / bit-vector {:.2})",
        s.total_mbits(),
        s.index_bits as f64 / 1e6,
        s.filter_bits as f64 / 1e6,
        s.bitvec_bits as f64 / 1e6,
    );
    println!(
        "estimated power at 200 Msps: {:.2} W (130nm eDRAM model)",
        chisel::hw::chisel_power_watts(s.total_bits(), 200.0)
    );
    Ok(())
}

fn cmd_check(path: &str, threads: usize) -> Result<(), Box<dyn std::error::Error>> {
    use std::collections::BTreeMap;

    let start = Instant::now();
    let (table, engine) = load(path, threads)?;
    println!(
        "built {} prefixes in {:.3}s; verifying...",
        table.len(),
        start.elapsed().as_secs_f64()
    );
    // Pass 1: the software shadow, with full semantic access (shadows,
    // block capacities).
    let engine_report = engine.verify();
    print!("engine:   {engine_report}");
    // Pass 2: the exported hardware image, from raw memory words alone.
    let image_report = chisel::core::verify_image(&engine.export_image());
    print!("image:    {image_report}");
    // Pass 3: route-set roundtrip — every input route must enumerate
    // back out with its next hop, and nothing else may.
    let key = |p: &chisel::Prefix| (p.len(), p.bits());
    let want: BTreeMap<(u8, u128), u32> = table
        .iter()
        .map(|e| (key(&e.prefix), e.next_hop.id()))
        .collect();
    let got: BTreeMap<(u8, u128), u32> = engine
        .iter_routes()
        .map(|e| (key(&e.prefix), e.next_hop.id()))
        .collect();
    let mut roundtrip_errors = 0usize;
    for (k, nh) in &want {
        if got.get(k) != Some(nh) {
            roundtrip_errors += 1;
            if roundtrip_errors <= 10 {
                eprintln!(
                    "  route {:#x}/{}: expected nh{nh}, engine has {:?}",
                    k.1,
                    k.0,
                    got.get(k)
                );
            }
        }
    }
    for k in got.keys() {
        if !want.contains_key(k) {
            roundtrip_errors += 1;
            if roundtrip_errors <= 10 {
                eprintln!("  route {:#x}/{}: not in the input table", k.1, k.0);
            }
        }
    }
    println!(
        "roundtrip: {} routes compared, {roundtrip_errors} mismatch(es)",
        want.len()
    );
    let total = engine_report.violations.len() + image_report.violations.len() + roundtrip_errors;
    if total > 0 {
        return Err(format!("{total} invariant violation(s)").into());
    }
    println!("check: all invariants hold");
    Ok(())
}

fn cmd_replay(
    table_path: &str,
    mrt_path: Option<&str>,
    threads: usize,
    adversarial: Option<usize>,
    batch: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let build_start = Instant::now();
    let (table, engine) = load(table_path, threads)?;
    let s = engine.storage();
    println!(
        "engine: built {} prefixes in {:.3}s on {} threads, {:.1} bits/prefix on-chip",
        table.len(),
        build_start.elapsed().as_secs_f64(),
        resolve_threads(threads),
        s.total_bits() as f64 / table.len().max(1) as f64,
    );
    let mut events = match mrt_path {
        Some(path) => {
            let bytes = std::fs::read(path)?;
            read_mrt(&bytes)?
        }
        None => Vec::new(),
    };
    if let Some(n) = adversarial {
        events.extend(adversarial_trace(&table, n, 0x00AD_5EED));
    }
    let stats = analyze(&events);
    println!(
        "trace: {} events ({} announces / {} withdraws, flap fraction {:.2})",
        stats.events,
        stats.announces,
        stats.withdraws,
        stats.flap_fraction(),
    );
    // Apply through the shared handle: every update is published as an
    // immutable snapshot, exactly as a live line card would consume it.
    // Under --adversarial, typed rejections (e.g. spillover exhaustion)
    // are the expected graceful-degradation outcome: count and continue.
    let shared = SharedChisel::from_engine(engine);
    let start = Instant::now();
    let mut rejected = 0usize;
    if batch <= 1 {
        for ev in &events {
            let outcome = match *ev {
                UpdateEvent::Announce(p, nh) => shared.announce(p, nh).map(|_| ()),
                UpdateEvent::Withdraw(p) => shared.withdraw(p).map(|_| ()),
            };
            match outcome {
                Ok(()) => {}
                Err(e) if adversarial.is_some() => {
                    rejected += 1;
                    if rejected <= 5 {
                        eprintln!("  rejected update: {e}");
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    } else {
        // Windowed replay: each chunk coalesces per prefix, runs its
        // re-setups in parallel and publishes a single generation.
        for chunk in events.chunks(batch) {
            match shared.apply_batch(chunk) {
                Ok(report) => {
                    let r = report.rejected_events.len();
                    if r > 0 && adversarial.is_none() {
                        return Err(format!("{r} event(s) rejected inside an update window").into());
                    }
                    rejected += r;
                }
                Err(_) if adversarial.is_some() => rejected += chunk.len(),
                Err(e) => return Err(e.into()),
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let u = shared.update_stats();
    // An empty trace divides 0 by ~0: report a clean zero rate instead.
    let rate = if events.is_empty() {
        0.0
    } else {
        events.len() as f64 / elapsed
    };
    println!("applied in {elapsed:.2}s ({rate:.0} updates/s): {u:?}");
    if adversarial.is_some() {
        println!("rejected updates: {rejected} (state unchanged by each)");
    }
    println!("published generation: {}", shared.generation());
    println!("incremental fraction: {:.5}", u.incremental_fraction());
    let es = shared.engine_stats();
    if batch > 1 {
        let b = es.batch;
        println!(
            "batch engine (window {batch}): {} batches published, {} events ingested, \
             {} coalesced, {} rejected, {} parallel re-setups, {} re-setups saved",
            b.batches_published,
            b.events_ingested,
            b.events_coalesced,
            b.events_rejected,
            b.parallel_resetups,
            b.resetups_saved,
        );
    }
    println!(
        "recovery: {} re-setup attempts ({} retries, {} failures), \
         {} degraded parks / {} reclaims, {} rollbacks",
        es.recovery.resetup_attempts,
        es.recovery.resetup_retries,
        es.recovery.resetup_failures,
        es.recovery.degraded_parks,
        es.recovery.degraded_reclaims,
        es.recovery.rollbacks,
    );
    match es.degraded {
        DegradedMode::Normal => println!(
            "degraded mode: normal ({} spillover entries of {} capacity)",
            es.spill_len, es.spill_capacity
        ),
        DegradedMode::Degraded { parked_keys } => println!(
            "degraded mode: DEGRADED — {parked_keys} key(s) parked in the spillover TCAM \
             ({} of {} entries used)",
            es.spill_len, es.spill_capacity
        ),
    }
    Ok(())
}

/// The saturation scenario: N shards serving a Zipf keystream at full
/// rate while the control plane storms the engine with adversarial
/// updates, then a graceful drain and the counter roll-up.
fn cmd_serve(
    table_path: &str,
    threads: usize,
    cache_slots: Option<usize>,
    adversarial: Option<usize>,
    flags: ServeFlags,
) -> Result<(), Box<dyn std::error::Error>> {
    const FLOWS: usize = 16_384;
    const STREAM: usize = 1 << 17;

    let build_start = Instant::now();
    let (table, engine) = load(table_path, threads)?;
    println!(
        "engine: built {} prefixes in {:.3}s on {} threads",
        table.len(),
        build_start.elapsed().as_secs_f64(),
        resolve_threads(threads),
    );
    let pool = flow_pool(&table, FLOWS, 0xF10A);
    let stream = zipf_stream(&pool, 1.0, STREAM, 0x21FF);
    let updates = adversarial_trace(&table, adversarial.unwrap_or(20_000), 0x00AD_5EED);
    let slots = cache_slots.unwrap_or(FlowCache::DEFAULT_CAPACITY);

    let shared = SharedChisel::from_engine(engine);
    let dataplane = Dataplane::new(
        shared.clone(),
        DataplaneConfig {
            shards: flags.shards,
            batch: flags.batch,
            cache_slots: slots,
            update_batch: flags.update_batch,
            ..DataplaneConfig::default()
        },
    );
    println!(
        "dataplane: {} shard(s), batch {}, update window {}, {} cache slots/shard, \
         {} flows (zipf s=1.0), {} adversarial updates",
        flags.shards,
        flags.batch,
        flags.update_batch,
        slots,
        FLOWS,
        updates.len(),
    );
    let durable = flags.journal.as_ref().map(|journal| {
        let opts = DurableOptions {
            checkpoint_every: flags.checkpoint_every,
            ..DurableOptions::at(journal, flags.checkpoint_every)
        };
        println!(
            "durable: journal {}, checkpoint {} (every {} accepted events)",
            opts.journal.display(),
            opts.checkpoint.display(),
            if opts.checkpoint_every == 0 {
                "start/drain only, 0".to_string()
            } else {
                opts.checkpoint_every.to_string()
            },
        );
        opts
    });
    // SIGINT/SIGTERM runs the same graceful drain as the deadline; with
    // --duration 0 the signal is the *only* way out.
    let stop = signal::shutdown_flag();
    if flags.duration_secs == 0.0 && stop.is_none() {
        return Err("--duration 0 needs signal support (unavailable on this platform)".into());
    }
    let report = dataplane.run(
        &stream,
        &RunOptions {
            duration: (flags.duration_secs > 0.0)
                .then(|| std::time::Duration::from_secs_f64(flags.duration_secs)),
            updates,
            tolerate_rejections: true,
            durable,
            stop,
            ..RunOptions::default()
        },
    );

    for s in &report.per_shard {
        println!(
            "shard {}: {} lookups in {} batches ({} matched / {} no-route), \
             cache {} hits / {} misses, generations [{}, {}]{}",
            s.shard,
            s.lookups,
            s.batches,
            s.matched,
            s.no_route,
            s.cache_hits,
            s.cache_misses,
            if s.min_generation == u64::MAX {
                0
            } else {
                s.min_generation
            },
            s.max_generation,
            if s.is_balanced() {
                ""
            } else {
                "  COUNTER IMBALANCE"
            },
        );
    }
    let c = &report.control;
    println!(
        "control: {} updates applied, {} rejected (tolerated), final generation {}{}",
        c.applied,
        c.rejected,
        c.final_generation,
        if c.halted { ", halted at drain" } else { "" },
    );
    if let Some(d) = &c.durable {
        println!(
            "durable: {} journal records ({} events) appended, {} checkpoints \
             (final checkpoint at drain)",
            d.appended_records, d.appended_events, d.checkpoints,
        );
    }
    for f in &report.failures {
        println!(
            "shard {} FAILURE: {} ({}{})",
            f.shard,
            f.panic,
            if f.respawned {
                "respawned"
            } else {
                "thread lost"
            },
            if f.lost_keys > 0 {
                format!(", {} keys dropped", f.lost_keys)
            } else {
                String::new()
            },
        );
    }
    if report.aggregate.respawns > 0 {
        println!(
            "supervision: {} respawn(s), {} batch(es) dropped ({} keys)",
            report.aggregate.respawns,
            report.aggregate.dropped_batches,
            report.aggregate.dropped_keys,
        );
    }
    let agg = &report.aggregate;
    println!(
        "aggregate: {} lookups in {:.3}s -> {:.3} Msps ({:.3} Msps/shard), \
         cache hit rate {:.3}, counters {}",
        agg.lookups,
        report.elapsed.as_secs_f64(),
        report.aggregate_msps(),
        report.aggregate_msps() / flags.shards as f64,
        agg.cache_hit_rate(),
        if agg.is_balanced() {
            "balanced (hits + misses == lookups)"
        } else {
            "IMBALANCED"
        },
    );
    let es = shared.engine_stats();
    println!(
        "recovery: {} re-setup attempts ({} retries, {} failures), \
         {} degraded parks / {} reclaims, {} rollbacks; degraded mode: {}",
        es.recovery.resetup_attempts,
        es.recovery.resetup_retries,
        es.recovery.resetup_failures,
        es.recovery.degraded_parks,
        es.recovery.degraded_reclaims,
        es.recovery.rollbacks,
        match es.degraded {
            DegradedMode::Normal => "normal".to_string(),
            DegradedMode::Degraded { parked_keys } => format!("DEGRADED ({parked_keys} parked)"),
        },
    );
    if flags.update_batch > 1 {
        let b = es.batch;
        println!(
            "batch engine (window {}): {} batches published, {} events ingested, \
             {} coalesced, {} parallel re-setups, {} re-setups saved",
            flags.update_batch,
            b.batches_published,
            b.events_ingested,
            b.events_coalesced,
            b.parallel_resetups,
            b.resetups_saved,
        );
    }
    if !agg.is_balanced() {
        return Err("dataplane counters failed to balance after drain".into());
    }
    if let Some(msg) = &report.control.failed {
        return Err(format!("control plane failed: {msg}").into());
    }
    if !report.healthy() {
        return Err("dataplane ended with unrecovered shard failures".into());
    }
    Ok(())
}

/// Crash recovery: load the checkpoint (default `<journal>.ckpt`),
/// replay the journal tail, verify the recovered engine, and report the
/// exact recovered generation. Exit status is non-zero on any rejected
/// structure or failed invariant.
fn cmd_recover(journal: &str, checkpoint: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    let opts = DurableOptions::at(journal, 0);
    let ckpt = match checkpoint {
        Some(c) => std::path::PathBuf::from(c),
        None => opts.checkpoint.clone(),
    };
    let start = Instant::now();
    let recovered = chisel::core::journal::recover(&ckpt, &opts.journal)?;
    let r = &recovered.report;
    println!(
        "recovered in {:.3}s: checkpoint generation {} ({} routes), \
         {} journal record(s) replayed ({} events), {} skipped, {} torn byte(s) truncated",
        start.elapsed().as_secs_f64(),
        r.checkpoint_generation,
        r.checkpoint_routes,
        r.replayed_records,
        r.replayed_events,
        r.skipped_records,
        r.truncated_bytes,
    );
    println!("final generation: {}", r.final_generation);
    let snap = recovered.shared.snapshot();
    let verify = snap.verify();
    print!("verify:  {verify}");
    if !verify.is_ok() {
        return Err(format!(
            "{} invariant violation(s) in the recovered engine",
            verify.violations.len()
        )
        .into());
    }
    println!(
        "recover: engine serves {} routes at generation {}",
        snap.engine().len(),
        r.final_generation,
    );
    Ok(())
}

fn cmd_synth(n: &str, out: &str, seed: Option<&String>) -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = n.parse()?;
    let seed: u64 = seed.map(|s| s.parse()).transpose()?.unwrap_or(1);
    let table = synthesize(n, &PrefixLenDistribution::bgp_ipv4(), seed);
    let mut file = File::create(out)?;
    chisel::prefix::io::write_table(&mut file, &table)?;
    println!("wrote {} prefixes to {out}", table.len());
    Ok(())
}
