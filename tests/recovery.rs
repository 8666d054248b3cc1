//! Crash-recovery differential suite for the durable control plane.
//!
//! The property under test is the redo-log contract of
//! `chisel::core::journal`: whatever instant the process dies — mid
//! journal append, mid checkpoint, mid shard batch — recovery from the
//! newest valid checkpoint plus the journal tail lands at **exactly**
//! the last durable generation, and the recovered engine answers
//! identically to a linear-scan [`OracleLpm`] driven to that same
//! generation over the full probe set.
//!
//! The suite has two halves:
//!
//! - Always-on tests (tier-1): clean round trips, torn-tail truncation,
//!   recovery chains, batched windows, and the daemon's durable serve
//!   path.
//! - A `--cfg faultpoint` kill matrix (run like `tests/faults.rs`, with
//!   `--test-threads 1`): for every seed × kill site × occurrence, the
//!   corresponding faultpoint cuts the write path mid-flight, the run
//!   "crashes", and recovery must land at the exact pre-crash durable
//!   generation with oracle-identical answers. `CHISEL_FAULT_SEEDS=N`
//!   widens the seed matrix (default 3).

use std::path::{Path, PathBuf};

use chisel::core::journal::{read_journal, recover, DurableControl, DurableError, DurableOptions};
use chisel::core::SharedChisel;
use chisel::dataplane::{Dataplane, DataplaneConfig, RunOptions};
use chisel::prefix::oracle::OracleLpm;
use chisel::workloads::UpdateEvent;
use chisel::{AddressFamily, ChiselConfig, Key, NextHop, Prefix, RoutingTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chisel-recovery-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Base table: a stable /8, a /16 fan, and /16 parents over the flap
/// /24s so withdraws always fall back to a cover.
fn base_table() -> RoutingTable {
    let mut t = RoutingTable::new_v4();
    t.insert(
        Prefix::new(AddressFamily::V4, 0x0A, 8).unwrap(),
        NextHop::new(1),
    );
    for i in 0..48u128 {
        t.insert(
            Prefix::new(AddressFamily::V4, 0x0A00 | i, 16).unwrap(),
            NextHop::new(10 + i as u32),
        );
    }
    for i in 0..16u128 {
        t.insert(
            Prefix::new(AddressFamily::V4, 0xF000 | i, 16).unwrap(),
            NextHop::new(500 + i as u32),
        );
    }
    t
}

fn build_shared() -> SharedChisel {
    SharedChisel::build(&base_table(), ChiselConfig::ipv4()).unwrap()
}

/// A deterministic announce/withdraw flap over /24s under the flap /16
/// parents. Withdraw-before-announce events are deliberately included:
/// the engine rejects them (typed), and the trackers below only count
/// what was accepted.
fn flap_trace(n: usize, seed: u64) -> Vec<UpdateEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let p = Prefix::new(
                AddressFamily::V4,
                0xF0_0000 | u128::from(rng.gen_range(0..48u32)),
                24,
            )
            .unwrap();
            if rng.gen_bool(0.6) {
                UpdateEvent::Announce(p, NextHop::new(1000 + rng.gen_range(0..64u32)))
            } else {
                UpdateEvent::Withdraw(p)
            }
        })
        .collect()
}

/// The full differential probe set: one key inside every table route,
/// every trace prefix (announced or not), and a random spray.
fn probe_keys(trace: &[UpdateEvent]) -> Vec<Key> {
    let mut keys: Vec<Key> = base_table().iter().map(|e| e.prefix.first_key()).collect();
    for ev in trace {
        let p = match ev {
            UpdateEvent::Announce(p, _) => p,
            UpdateEvent::Withdraw(p) => p,
        };
        keys.push(p.first_key());
        keys.push(Key::from_raw(
            AddressFamily::V4,
            p.bits() << (32 - p.len()) | 0x7F,
        ));
    }
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    keys.extend((0..512).map(|_| {
        Key::from_raw(
            AddressFamily::V4,
            u128::from(rng.gen_range(0x0A00_0000..0xF2FF_FFFFu32)),
        )
    }));
    keys
}

fn apply_to_oracle(oracle: &mut OracleLpm, ev: &UpdateEvent) {
    match *ev {
        UpdateEvent::Announce(p, nh) => oracle.insert(p, nh),
        UpdateEvent::Withdraw(p) => {
            oracle.remove(&p);
        }
    }
}

/// Asserts the recovered engine answers exactly as the oracle — driven
/// to `upto_generation` by the `(generation, event)` accept log — on
/// every probe.
fn assert_oracle_identity(
    recovered: &SharedChisel,
    accept_log: &[(u64, UpdateEvent)],
    upto_generation: u64,
    probes: &[Key],
) {
    let mut oracle = OracleLpm::from_table(&base_table());
    for (gen, ev) in accept_log {
        if *gen <= upto_generation {
            apply_to_oracle(&mut oracle, ev);
        }
    }
    let snap = recovered.snapshot();
    for &k in probes {
        assert_eq!(
            snap.lookup(k),
            oracle.lookup(k),
            "recovered engine diverges from oracle at {k} (generation {upto_generation})"
        );
    }
}

fn durable_opts(dir: &Path, name: &str, checkpoint_every: u64) -> DurableOptions {
    DurableOptions {
        fsync: false, // crash *semantics* are injected, not real power loss
        checkpoint_every,
        ..DurableOptions::at(dir.join(name), checkpoint_every)
    }
}

/// Replays `trace` one event at a time through a fresh `DurableControl`,
/// returning the handle and the accept log (generation → event).
fn drive(
    shared: &SharedChisel,
    opts: DurableOptions,
    trace: &[UpdateEvent],
) -> (DurableControl, Vec<(u64, UpdateEvent)>) {
    let mut dc = DurableControl::create(shared.clone(), opts).unwrap();
    let mut log = Vec::new();
    for ev in trace {
        let outcome = match *ev {
            UpdateEvent::Announce(p, nh) => dc.announce(p, nh).map(|_| ()),
            UpdateEvent::Withdraw(p) => dc.withdraw(p).map(|_| ()),
        };
        match outcome {
            Ok(()) => log.push((dc.shared().generation(), *ev)),
            Err(DurableError::Engine(_)) => {} // typed rejection: state unchanged
            Err(DurableError::Journal(e)) => panic!("unexpected durability failure: {e}"),
        }
    }
    (dc, log)
}

#[test]
fn crash_without_final_checkpoint_recovers_to_exact_generation() {
    let dir = tempdir("crash-no-final");
    let shared = build_shared();
    let trace = flap_trace(200, 11);
    let opts = durable_opts(&dir, "a.journal", 32);
    let (dc, log) = drive(&shared, opts.clone(), &trace);
    let expected = dc.durable_generation();
    assert_eq!(expected, shared.generation(), "every accept was journaled");
    // Crash: drop the control without a final checkpoint. The journal
    // tail since the last periodic rotation is the only record.
    drop(dc);
    let rec = recover(&opts.checkpoint, &opts.journal).unwrap();
    assert_eq!(rec.report.final_generation, expected);
    assert_eq!(rec.shared.generation(), expected);
    assert!(rec.shared.snapshot().verify().is_ok());
    assert_oracle_identity(&rec.shared, &log, expected, &probe_keys(&trace));
}

#[test]
fn torn_journal_tail_is_truncated_and_recovery_lands_one_record_back() {
    let dir = tempdir("torn-tail");
    let shared = build_shared();
    let trace = flap_trace(120, 23);
    let opts = durable_opts(&dir, "torn.journal", 0);
    let (dc, log) = drive(&shared, opts.clone(), &trace);
    let full_generation = dc.durable_generation();
    drop(dc);
    // Tear the tail by hand: chop bytes off the last record's frame.
    let bytes = std::fs::read(&opts.journal).unwrap();
    for cut in [1usize, 7, 13] {
        std::fs::write(&opts.journal, &bytes[..bytes.len() - cut]).unwrap();
        let rec = recover(&opts.checkpoint, &opts.journal).unwrap();
        assert_eq!(
            rec.report.final_generation,
            full_generation - 1,
            "a torn final record must roll back exactly one generation"
        );
        assert!(rec.report.truncated_bytes > 0);
        assert_oracle_identity(
            &rec.shared,
            &log,
            rec.report.final_generation,
            &probe_keys(&trace),
        );
    }
}

#[test]
fn recovery_chains_through_a_second_incarnation() {
    let dir = tempdir("chain");
    let shared = build_shared();
    let trace = flap_trace(160, 31);
    let (first_half, second_half) = trace.split_at(80);
    let opts = durable_opts(&dir, "chain.journal", 0);
    let (dc, mut log) = drive(&shared, opts.clone(), first_half);
    drop(dc); // crash #1
    let rec1 = recover(&opts.checkpoint, &opts.journal).unwrap();
    let gen1 = rec1.report.final_generation;

    // Second incarnation: a new DurableControl over the *recovered*
    // handle compacts the tail into a fresh checkpoint, then keeps
    // journaling where the crashed process left off.
    let (dc2, log2) = drive(&rec1.shared, opts.clone(), second_half);
    assert!(dc2.durable_generation() >= gen1);
    let expected = dc2.durable_generation();
    drop(dc2); // crash #2
    let rec2 = recover(&opts.checkpoint, &opts.journal).unwrap();
    assert_eq!(rec2.report.final_generation, expected);
    log.extend(log2);
    assert_oracle_identity(&rec2.shared, &log, expected, &probe_keys(&trace));
}

#[test]
fn batched_windows_journal_one_record_per_generation() {
    let dir = tempdir("windows");
    let shared = build_shared();
    let trace = flap_trace(192, 47);
    let opts = durable_opts(&dir, "windows.journal", 0);
    let mut dc = DurableControl::create(shared.clone(), opts.clone()).unwrap();
    let mut log: Vec<(u64, UpdateEvent)> = Vec::new();
    for chunk in trace.chunks(16) {
        let report = dc.apply_batch(chunk).unwrap();
        let generation = dc.shared().generation();
        let mut rejected = report.rejected_events.iter().copied().peekable();
        for (i, ev) in chunk.iter().enumerate() {
            if rejected.peek() == Some(&i) {
                rejected.next();
            } else {
                log.push((generation, *ev));
            }
        }
    }
    let expected = dc.durable_generation();
    assert_eq!(
        expected,
        (trace.len() / 16) as u64,
        "one generation per window"
    );
    drop(dc); // crash without final checkpoint
    let scan = read_journal(&opts.journal, AddressFamily::V4).unwrap();
    assert_eq!(
        scan.records.len(),
        trace.len() / 16,
        "one record per window"
    );
    let rec = recover(&opts.checkpoint, &opts.journal).unwrap();
    assert_eq!(rec.report.final_generation, expected);
    assert_oracle_identity(&rec.shared, &log, expected, &probe_keys(&trace));
}

#[test]
fn daemon_durable_serve_recovers_to_the_drain_generation() {
    let dir = tempdir("daemon");
    let shared = build_shared();
    let trace = flap_trace(96, 59);
    let opts = durable_opts(&dir, "daemon.journal", 24);
    let dp = Dataplane::new(
        shared.clone(),
        DataplaneConfig {
            shards: 2,
            ..DataplaneConfig::default()
        },
    );
    let stream: Vec<Key> = probe_keys(&trace);
    let report = dp.run(
        &stream,
        &RunOptions {
            updates: trace.clone(),
            tolerate_rejections: true,
            durable: Some(opts.clone()),
            ..RunOptions::default()
        },
    );
    assert!(
        report.control.failed.is_none(),
        "{:?}",
        report.control.failed
    );
    assert!(report.healthy());
    assert!(report.aggregate.is_balanced());
    let stats = report.control.durable.expect("durable stats");
    assert_eq!(
        stats.appended_records, report.control.applied as u64,
        "one journal record per accepted update"
    );
    // The drain checkpoint rotated the journal; recovery reproduces the
    // exact post-drain engine.
    let rec = recover(&opts.checkpoint, &opts.journal).unwrap();
    assert_eq!(rec.report.final_generation, report.control.final_generation);
    assert_eq!(rec.report.replayed_records, 0, "clean shutdown, empty tail");
    let live = shared.snapshot();
    let back = rec.shared.snapshot();
    for &k in &stream {
        assert_eq!(back.lookup(k), live.lookup(k), "recovered ≠ live at {k}");
    }
}

/// The seeded kill matrix: only compiled under `--cfg faultpoint`.
#[cfg(faultpoint)]
mod kill_matrix {
    use super::*;
    use chisel::core::faultpoint::{self, arm, FaultPlan};
    use chisel::core::journal::JournalError;

    fn seeds() -> Vec<u64> {
        let n = std::env::var("CHISEL_FAULT_SEEDS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(3)
            .max(1);
        (1..=n).collect()
    }

    /// Drives the trace until an injected durability fault "kills" the
    /// process; returns the accept log and the expected (last durable)
    /// generation, or `None` if the armed occurrence was never reached.
    /// The plan is armed only *after* `DurableControl::create`: the boot
    /// checkpoint and journal header are part of startup, not of the
    /// kill window.
    fn drive_until_kill(
        shared: &SharedChisel,
        opts: DurableOptions,
        trace: &[UpdateEvent],
        plan: FaultPlan,
    ) -> Option<(Vec<(u64, UpdateEvent)>, u64)> {
        let mut dc = DurableControl::create(shared.clone(), opts).unwrap();
        let _guard = arm(plan);
        let mut log = Vec::new();
        for ev in trace {
            let outcome = match *ev {
                UpdateEvent::Announce(p, nh) => dc.announce(p, nh).map(|_| ()),
                UpdateEvent::Withdraw(p) => dc.withdraw(p).map(|_| ()),
            };
            match outcome {
                Ok(()) => log.push((dc.shared().generation(), *ev)),
                Err(DurableError::Engine(_)) => {}
                Err(DurableError::Journal(JournalError::Fault { .. })) => {
                    // The injected crash. Everything at or below the
                    // durable generation survives; the torn tail (if
                    // any) must be truncated by recovery. A checkpoint
                    // fault fires *after* the triggering append landed,
                    // so that event is durable despite the error — the
                    // generations tell the two cases apart.
                    let durable = dc.durable_generation();
                    if durable == dc.shared().generation() {
                        log.push((durable, *ev));
                    }
                    return Some((log, durable));
                }
                Err(DurableError::Journal(e)) => panic!("unexpected journal error: {e}"),
            }
        }
        None
    }

    #[test]
    fn journal_short_write_kill_sites_recover_exactly() {
        let trace = flap_trace(96, 7);
        let probes = probe_keys(&trace);
        for seed in seeds() {
            let mut killed = 0usize;
            for occurrence in [0u64, 1, 5, 17, 40] {
                let dir = tempdir(&format!("kill-jsw-{seed}-{occurrence}"));
                let shared = build_shared();
                let opts = durable_opts(&dir, "kill.journal", 16);
                let plan =
                    FaultPlan::new(seed).once_at(faultpoint::JOURNAL_SHORT_WRITE, occurrence);
                let Some((log, expected)) = drive_until_kill(&shared, opts.clone(), &trace, plan)
                else {
                    continue; // occurrence beyond the trace's appends
                };
                killed += 1;
                let rec = recover(&opts.checkpoint, &opts.journal).unwrap();
                assert_eq!(
                    rec.report.final_generation, expected,
                    "seed {seed} occurrence {occurrence}: wrong recovered generation"
                );
                assert!(
                    rec.report.truncated_bytes > 0,
                    "a short write must leave a torn tail for recovery to truncate"
                );
                assert!(rec.shared.snapshot().verify().is_ok());
                assert_oracle_identity(&rec.shared, &log, expected, &probes);
            }
            assert!(killed >= 3, "seed {seed}: kill matrix barely exercised");
        }
    }

    #[test]
    fn checkpoint_fsync_fail_keeps_the_previous_checkpoint_authoritative() {
        let trace = flap_trace(96, 13);
        let probes = probe_keys(&trace);
        for seed in seeds() {
            let mut killed = 0usize;
            for occurrence in [0u64, 1, 2] {
                let dir = tempdir(&format!("kill-ckpt-{seed}-{occurrence}"));
                let shared = build_shared();
                let opts = durable_opts(&dir, "kill.journal", 16);
                let plan =
                    FaultPlan::new(seed).once_at(faultpoint::CHECKPOINT_FSYNC_FAIL, occurrence);
                let Some((log, expected)) = drive_until_kill(&shared, opts.clone(), &trace, plan)
                else {
                    continue; // fewer periodic checkpoints than `occurrence`
                };
                killed += 1;
                // The append that triggered the periodic checkpoint was
                // already durable, so recovery must include it.
                let rec = recover(&opts.checkpoint, &opts.journal).unwrap();
                assert_eq!(
                    rec.report.final_generation, expected,
                    "seed {seed} occurrence {occurrence}: wrong recovered generation"
                );
                assert!(rec.shared.snapshot().verify().is_ok());
                assert_oracle_identity(&rec.shared, &log, expected, &probes);
            }
            assert!(killed >= 1, "seed {seed}: no checkpoint kill landed");
        }
    }

    #[test]
    fn supervised_shard_survives_an_injected_panic_with_zero_lost_counters() {
        let trace = flap_trace(48, 17);
        let stream = probe_keys(&trace);
        for seed in seeds() {
            for occurrence in [0u64, 3] {
                let shared = build_shared();
                let dp = Dataplane::new(
                    shared.clone(),
                    DataplaneConfig {
                        shards: 2,
                        batch: 32,
                        ..DataplaneConfig::default()
                    },
                );
                let _guard = arm(FaultPlan::new(seed).once_at(faultpoint::SHARD_PANIC, occurrence));
                let report = dp.run(
                    &stream,
                    &RunOptions {
                        record: true,
                        ..RunOptions::default()
                    },
                );
                drop(_guard);
                // Survived, with the panic on the books and nothing lost.
                assert_eq!(report.aggregate.respawns, 1);
                assert_eq!(report.failures.len(), 1);
                assert!(report.failures[0].respawned);
                assert_eq!(report.failures[0].lost_keys, 0);
                assert_eq!(report.aggregate.dropped_batches, 0);
                assert_eq!(report.aggregate.lookups, stream.len() as u64);
                assert!(report.aggregate.is_balanced(), "counters lost in respawn");
                assert!(report.healthy());
                // The respawned shard's answers are still correct: no
                // updates ran, so every recorded answer must match the
                // base engine.
                let snap = shared.snapshot();
                for rec in report.records.iter().flatten() {
                    assert_eq!(rec.generation, 0);
                    for (k, a) in rec.keys.iter().zip(&rec.answers) {
                        assert_eq!(*a, snap.lookup(*k), "respawned shard lied at {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn unsupervised_shard_panic_is_reported_not_propagated() {
        let trace = flap_trace(16, 29);
        let stream = probe_keys(&trace);
        let shared = build_shared();
        let dp = Dataplane::new(
            shared,
            DataplaneConfig {
                shards: 2,
                supervise: false,
                ..DataplaneConfig::default()
            },
        );
        let _guard = arm(FaultPlan::new(1).with(faultpoint::SHARD_PANIC, 1.0));
        let report = dp.run(&stream, &RunOptions::default());
        drop(_guard);
        assert!(!report.failures.is_empty());
        assert!(report.failures.iter().all(|f| !f.respawned));
        assert!(!report.healthy());
        assert_eq!(report.aggregate.respawns, 0);
    }

    #[test]
    fn durable_serve_survives_shard_panic_and_recovers() {
        // Both robustness stories at once: a worker panics mid-serve
        // while the control plane is journaling; the run survives, and
        // post-drain recovery reproduces the exact drain generation.
        let trace = flap_trace(64, 37);
        let stream = probe_keys(&trace);
        for seed in seeds() {
            let dir = tempdir(&format!("serve-panic-{seed}"));
            let shared = build_shared();
            let opts = durable_opts(&dir, "serve.journal", 16);
            let dp = Dataplane::new(
                shared.clone(),
                DataplaneConfig {
                    shards: 2,
                    batch: 32,
                    ..DataplaneConfig::default()
                },
            );
            let _guard = arm(FaultPlan::new(seed).once_at(faultpoint::SHARD_PANIC, 2));
            let report = dp.run(
                &stream,
                &RunOptions {
                    updates: trace.clone(),
                    tolerate_rejections: true,
                    durable: Some(opts.clone()),
                    ..RunOptions::default()
                },
            );
            drop(_guard);
            assert!(
                report.control.failed.is_none(),
                "{:?}",
                report.control.failed
            );
            assert_eq!(report.aggregate.respawns, 1);
            assert!(report.healthy());
            assert!(report.aggregate.is_balanced());
            assert_eq!(report.aggregate.lookups, stream.len() as u64);
            let rec = recover(&opts.checkpoint, &opts.journal).unwrap();
            assert_eq!(rec.report.final_generation, report.control.final_generation);
            let live = shared.snapshot();
            let back = rec.shared.snapshot();
            for &k in &stream {
                assert_eq!(back.lookup(k), live.lookup(k));
            }
        }
    }
}
