//! Host fingerprint and two fixed calibration kernels, stored with every
//! result so cross-session drift (10–45% seen on this host) can be
//! divided out of wall-clock numbers.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use serde_json::Value;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Size in KiB of cpu0's unified cache at `level`, from sysfs.
pub fn cache_kib(level: u32) -> f64 {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let is_level = read_trimmed(&format!("{dir}/level"))? == level.to_string();
            let unified = read_trimmed(&format!("{dir}/type"))? == "Unified";
            let size = read_trimmed(&format!("{dir}/size"))?;
            (is_level && unified)
                .then(|| size.trim_end_matches('K').parse::<f64>().ok())
                .flatten()
        })
        .unwrap_or(0.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The filesystem type holding `dir` (longest matching mount point).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// ns per step of a fixed xorshift + popcount dependency chain: pure
/// ALU, no memory. Tracks clock speed and stolen CPU.
pub fn calib_alu_ns() -> f64 {
    const STEPS: u64 = 1 << 26;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += u64::from(x.count_ones());
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / STEPS as f64
}

/// ns per hop of a pointer chase through a 256 MiB buffer, one pointer
/// per cache line, in one random cycle: DRAM latency, no prefetching.
pub fn calib_chase_ns() -> f64 {
    const LINES: usize = (256 << 20) / 64;
    const STRIDE: usize = 64 / 8;
    const HOPS: usize = 1 << 21;
    // Sattolo's algorithm: a uniformly random single-cycle permutation.
    let mut order: Vec<u32> = (0..LINES as u32).collect();
    let mut rng = crate::inputs::SplitMix64::new(0xCA11B, 0);
    for i in (1..LINES).rev() {
        order.swap(i, rng.below(i));
    }
    let mut buffer = vec![0u64; LINES * STRIDE];
    for (line, &next) in order.iter().enumerate() {
        buffer[line * STRIDE] = u64::from(next) * STRIDE as u64;
    }
    drop(order);
    let mut at = 0usize;
    let start = Instant::now();
    for _ in 0..HOPS {
        at = buffer[at] as usize;
    }
    black_box(at);
    start.elapsed().as_nanos() as f64 / HOPS as f64
}

/// Everything that identifies where a result was measured.
pub fn fingerprint(dir: &Path, calib_alu_ns: f64, calib_chase_ns: f64) -> Value {
    let field = |k: &str, v: Value| (k.to_string(), v);
    Value::Object(vec![
        field("git_rev", Value::String(git_rev())),
        field("cores", Value::UInt(cores() as u64)),
        field("l2_kib", Value::Float(cache_kib(2))),
        field("l3_kib", Value::Float(cache_kib(3))),
        field(
            "simd_active",
            Value::Bool(chisel_bloomier::simd::simd_active()),
        ),
        field("dir_filesystem", Value::String(filesystem_of(dir))),
        field("calib_alu_ns", Value::Float(calib_alu_ns)),
        field("calib_chase_ns", Value::Float(calib_chase_ns)),
    ])
}
