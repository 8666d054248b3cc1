//! `cargo xtask` — workspace automation:
//!
//! - `analyze [--json]` — the static-analysis gate described in the
//!   library crate. Exit codes: 0 clean, 2 I/O error, 10–18 the stable
//!   per-lint codes of [`xtask::Lint::exit_code`] (smallest wins when
//!   lints mix). `--json` writes the machine-readable report to stdout
//!   for CI annotation.
//! - `loom` — the exhaustive model-checking suites under
//!   `RUSTFLAGS="--cfg loom_lite"`: the checker's own race-detection
//!   tests, the snapshot/flow-cache protocols, and the dataplane drain
//!   protocols.
//! - `sanitize` — ThreadSanitizer over the native concurrency suites
//!   (`tests/concurrent.rs`, `tests/dataplane.rs`). Needs a nightly
//!   toolchain with `rust-src` (`-Zbuild-std` instruments `std` too);
//!   exits 3 with a message when nightly is unavailable.
//! - `bench [args…]` — the repo's one benchmark (`benchmark/`). Bare, it
//!   runs the CI smoke `benchmark/smoke.sh`: every workload, the
//!   correctness gate and the `BENCHMARK.json` manifest check. With
//!   arguments it runs `chisel-benchmark <args…>` instead, e.g.
//!   `cargo xtask bench run fwd_hot --seconds 10`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn workspace_root() -> PathBuf {
    // Under `cargo xtask ...` the manifest dir is `<root>/xtask`.
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let dir = PathBuf::from(dir);
        if let Some(parent) = dir.parent() {
            return parent.to_path_buf();
        }
    }
    PathBuf::from(".")
}

const USAGE: &str = "usage: cargo xtask <analyze [--json] | loom | sanitize | bench [args...]>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(args.iter().any(|a| a == "--json")),
        Some("loom") => loom(),
        Some("sanitize") => sanitize(),
        Some("bench") => bench(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn analyze(json: bool) -> ExitCode {
    let root = workspace_root();
    match xtask::analyze_workspace(&root) {
        Ok(violations) => {
            if json {
                print!("{}", xtask::json_report(&violations));
            } else if violations.is_empty() {
                println!(
                    "xtask analyze: clean (allowlist: {} audited modules)",
                    xtask::UNSAFE_ALLOWLIST.len()
                );
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("xtask analyze: {} violation(s)", violations.len());
            }
            match xtask::exit_code_for(&violations) {
                0 => ExitCode::SUCCESS,
                code => ExitCode::from(code),
            }
        }
        Err(e) => {
            eprintln!("xtask analyze: i/o error walking {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

/// Appends `extra` to the caller's `RUSTFLAGS` so a wrapping CI job's
/// flags (e.g. `-D warnings`) survive.
fn rustflags_with(extra: &str) -> String {
    match std::env::var("RUSTFLAGS") {
        Ok(flags) if !flags.is_empty() => format!("{flags} {extra}"),
        _ => extra.to_string(),
    }
}

/// Runs `program` in the workspace root, echoing it to stderr first;
/// `Ok(())` iff it ran and exited 0.
fn run_step(program: &str, args: &[&str], env: &[(&str, &str)]) -> Result<(), ExitCode> {
    let pretty: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .chain(std::iter::once(format!("{program} {}", args.join(" "))))
        .collect();
    eprintln!("xtask: {}", pretty.join(" "));
    let mut cmd = Command::new(program);
    cmd.current_dir(workspace_root()).args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    match cmd.status() {
        Ok(status) if status.success() => Ok(()),
        Ok(status) => {
            eprintln!("xtask: step failed with {status}");
            Err(ExitCode::FAILURE)
        }
        Err(e) => {
            eprintln!("xtask: could not spawn {program}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// `benchmark/smoke.sh` when `args` is empty, else `chisel-benchmark
/// <args…>` built from the benchmark's own workspace.
fn bench(args: &[String]) -> ExitCode {
    let step = if args.is_empty() {
        run_step("benchmark/smoke.sh", &[], &[])
    } else {
        let mut cargo = vec![
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ];
        cargo.extend(args.iter().map(String::as_str));
        run_step("cargo", &cargo, &[])
    };
    match step {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Every model-checking suite, in dependency order: the checker proves
/// it can reject races (the seeded fixtures) before its verdict on the
/// protocol suites is trusted.
fn loom() -> ExitCode {
    let flags = rustflags_with("--cfg loom_lite");
    let env: &[(&str, &str)] = &[("RUSTFLAGS", &flags)];
    let steps: &[&[&str]] = &[
        &["test", "-p", "loom-lite", "--release"],
        &[
            "test",
            "-p",
            "chisel-core",
            "--release",
            "--test",
            "loom_snapshot",
            "--test",
            "loom_flowcache",
        ],
        &[
            "test",
            "-p",
            "chisel-dataplane",
            "--release",
            "--test",
            "loom_dataplane",
        ],
    ];
    for step in steps {
        if let Err(code) = run_step("cargo", step, env) {
            return code;
        }
    }
    println!("xtask loom: all model-checking suites passed");
    ExitCode::SUCCESS
}

/// The host target triple, from `rustc -vV` (`-Zbuild-std` needs an
/// explicit `--target` or it will not instrument the standard library).
fn host_triple() -> Option<String> {
    let out = Command::new("rustc").arg("-vV").output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("host: "))
        .map(str::to_string)
}

fn sanitize() -> ExitCode {
    let nightly_ok = Command::new("cargo")
        .args(["+nightly", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !nightly_ok {
        eprintln!(
            "xtask sanitize: a nightly toolchain is required \
             (rustup toolchain install nightly --component rust-src)"
        );
        return ExitCode::from(3);
    }
    let Some(host) = host_triple() else {
        eprintln!("xtask sanitize: could not determine the host triple from `rustc -vV`");
        return ExitCode::from(2);
    };
    let flags = rustflags_with("-Zsanitizer=thread");
    let env: &[(&str, &str)] = &[("RUSTFLAGS", &flags)];
    let step: &[&str] = &[
        "+nightly",
        "test",
        "-Zbuild-std",
        "--target",
        &host,
        "--release",
        "--test",
        "concurrent",
        "--test",
        "dataplane",
    ];
    if let Err(code) = run_step("cargo", step, env) {
        return code;
    }
    println!("xtask sanitize: ThreadSanitizer found no data races");
    ExitCode::SUCCESS
}
