//! What both passes share: the failure tally, oracle checks, the paced
//! open-loop writer, and small statistics.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use chisel_core::{DurableControl, DurableOptions, RouteUpdate, SharedChisel};
use chisel_dataplane::DataplaneReport;
use chisel_prefix::oracle::OracleLpm;
use chisel_prefix::{Key, NextHop};

use crate::inputs::SplitMix64;
use crate::workloads::{Spec, WINDOW};

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Operations attempted and failed across a run. Everything the
/// correctness gate looks at lands here: wrong answers, rejected updates,
/// dropped keys, unbalanced counters, a recovery that lands on the wrong
/// generation. `failed_share = failed / attempted` must be 0.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Every answer must be the oracle's.
    pub fn answers(
        &mut self,
        what: &str,
        oracle: &OracleLpm,
        answers: impl IntoIterator<Item = (Key, Option<NextHop>)>,
    ) {
        let (mut checked, mut wrong) = (0, 0);
        for (key, answer) in answers {
            checked += 1;
            wrong += u64::from(oracle.lookup(key) != answer);
        }
        self.record(what, checked, wrong);
    }

    /// A run's own invariants: healthy, balanced, nothing dropped.
    pub fn dataplane(&mut self, what: &str, report: &DataplaneReport) {
        let a = &report.aggregate;
        let broken = u64::from(!report.healthy()) + u64::from(!a.is_balanced());
        self.record(what, a.lookups + a.dropped_keys, a.dropped_keys + broken);
    }
}

/// Ordered `name → value` pairs; units live in the `workloads` tables.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of an unsorted sample (`0 < p <= 1`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Items per second over the fastest three quarters of the calls timed in
/// `call_s`. The slowest quarter holds the calls that pay for a singleton
/// insert, a partition re-setup or a checkpoint; how many of those a trace
/// contains is hash luck that swings a plain mean by ±25% from seed to
/// seed, so the tail is reported by its own percentile instead.
pub fn bulk_rate(call_s: &[f64], items_per_call: usize) -> f64 {
    let mut sorted = call_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = (sorted.len() * 3 / 4).max(1);
    (keep * items_per_call) as f64 / sorted[..keep].iter().sum::<f64>()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn apply_to_oracle(oracle: &mut OracleLpm, events: &[RouteUpdate]) {
    for ev in events {
        match *ev {
            RouteUpdate::Announce(p, nh) => oracle.insert(p, nh),
            RouteUpdate::Withdraw(p) => {
                oracle.remove(&p);
            }
        }
    }
}

/// One event through the window-of-one entry points. `Err` is a rejection.
pub fn apply_one(shared: &SharedChisel, ev: &RouteUpdate) -> bool {
    match *ev {
        RouteUpdate::Announce(p, nh) => shared.announce(p, nh).is_ok(),
        RouteUpdate::Withdraw(p) => shared.withdraw(p).is_ok(),
    }
}

/// Journal + checkpoint paths of one durable control plane under `dir`.
pub fn durable_options(dir: &Path, tag: &str, spec: &Spec) -> DurableOptions {
    let journal = dir.join(format!("{}.{tag}.journal", spec.name));
    DurableOptions::at(journal, spec.checkpoint_every)
}

/// Removes the journals and checkpoints a run of `spec` left in `dir`
/// (a 1M-route checkpoint is 100 MB); results and span files stay. The
/// directory sync makes this run wait for the deletes to commit: on a
/// filesystem mounted with `discard` the trim of 100 MB otherwise lands
/// seconds later, as a 100 ms fsync stall in the middle of the next run.
pub fn remove_journals(dir: &Path, spec: &Spec) -> std::io::Result<()> {
    let prefix = format!("{}.", spec.name);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(&prefix) && name.contains(".journal") {
            std::fs::remove_file(entry.path())?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

/// What the open-loop writer did.
#[derive(Debug, Default)]
pub struct StormLog {
    /// Events of the trace prefix that were applied (whole windows).
    pub applied: usize,
    pub rejected: u64,
    /// Windows that were due before the serve phase ended and were still
    /// unapplied [`DRAIN`] after it: the writer could not keep up.
    pub missed: u64,
    /// Per window: due time → `apply_batch` returned (visible + durable).
    pub latency_ms: Vec<f64>,
    pub late_max_ms: f64,
    /// The longest single `apply_batch` call.
    pub apply_max_ms: f64,
    pub busy_s: f64,
    pub elapsed_s: f64,
    pub error: Option<String>,
}

/// How long past the end of the serve phase the writer may keep applying
/// windows that were already due; what is still due then was missed.
const DRAIN: Duration = Duration::from_secs(2);
/// The [`SplitMix64`] stream of the writer's schedule jitter (the input
/// generators use streams 1 – 5).
const JITTER_STREAM: u64 = 6;

/// Feeds `events` in [`WINDOW`]-event windows on a fixed schedule, one
/// window in every slot of `WINDOW / rate` seconds, until `stop` is raised
/// and no window is overdue. Open loop: a window's latency runs from the
/// moment it was due, so a stall charges every window queued behind it,
/// and `late_max_ms` reports how far behind schedule the writer ever
/// started one. Paced rather than saturating on purpose: a faster write
/// path then frees CPU instead of publishing more generations and reading
/// as a lookup regression. Windows due during the first `warm_up` are
/// applied but not timed, like the serve lap they run beside.
///
/// A window is due at a pseudo-random point of its slot (a fixed function
/// of its index), not at the slot's start. A strictly periodic writer
/// locks phase with the kernel's scheduler tick — 8 ms is two ticks at
/// `CONFIG_HZ=250` — and where in the tick the writer happens to wake,
/// decided once by `t0`, then sets how it preempts the shard thread for
/// the whole process: the same seed served 4.7 or 6.0 M lookups/s from
/// one process to the next, steady within each. Jittered, every run sees
/// every phase.
pub fn paced_writer(
    durable: &mut DurableControl,
    events: &[RouteUpdate],
    rate: f64,
    warm_up: Duration,
    stop: &AtomicBool,
) -> StormLog {
    let mut log = StormLog::default();
    let period = Duration::from_secs_f64(WINDOW as f64 / rate);
    let t0 = Instant::now();
    let mut stopped_at = None;
    for (i, window) in events.chunks_exact(WINDOW).enumerate() {
        let jitter = SplitMix64::new(i as u64, JITTER_STREAM).unit();
        let due = t0 + period.mul_f64(i as f64 + jitter);
        let now = Instant::now();
        if stop.load(Ordering::Acquire) {
            let stopped_at = *stopped_at.get_or_insert(now);
            if due > stopped_at {
                break;
            }
            if now > stopped_at + DRAIN {
                let overdue = (stopped_at - due).as_secs_f64() / period.as_secs_f64();
                log.missed = overdue as u64 + 1;
                break;
            }
        } else if now < due {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        match durable.apply_batch(window) {
            Ok(report) => log.rejected += report.rejected_events.len() as u64,
            Err(e) => {
                log.error = Some(e.to_string());
                break;
            }
        }
        let end = Instant::now();
        log.applied += WINDOW;
        if due < t0 + warm_up {
            continue;
        }
        log.latency_ms.push((end - due).as_secs_f64() * 1e3);
        log.late_max_ms = log.late_max_ms.max((start - due).as_secs_f64() * 1e3);
        log.apply_max_ms = log.apply_max_ms.max((end - start).as_secs_f64() * 1e3);
        log.busy_s += (end - start).as_secs_f64();
    }
    log.elapsed_s = t0.elapsed().as_secs_f64();
    if log.error.is_none() && stopped_at.is_none() {
        log.error = Some("update trace ran out before the serve phase ended".to_string());
    }
    log
}
