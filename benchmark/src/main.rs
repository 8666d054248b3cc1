//! `chisel-benchmark`: the repo's one benchmark. See README.md.
//!
//! ```text
//! chisel-benchmark --workload W --seed N --seconds S --trace 0|1     (the driver's form)
//! chisel-benchmark run <W|all> [--seed N] [--seconds S] [--traced] [--smoke] [--dir PATH]
//! chisel-benchmark compare <old.json> <new.json>
//! chisel-benchmark manifest
//! ```

#![forbid(unsafe_code)]

mod harness;
mod host;
mod inputs;
mod ladder;
mod lifecycle;
mod report;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

use harness::{BoxError, Tally};
use workloads::{
    Inputs, Spec, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER, SMOKE_SECONDS, SPECS,
};

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    dir: PathBuf,
}

const USAGE: &str = "usage:
  chisel-benchmark run <workload|all> [--seed N] [--seconds S] [--traced] [--smoke] [--dir PATH]
  chisel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  chisel-benchmark compare <old.json> <new.json>
  chisel-benchmark manifest
workloads: fwd_hot fwd_cold fwd_large fwd_storm ctl_replay";

fn parse_run(args: &[String]) -> Result<Options, BoxError> {
    let mut options = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0,
        traced: false,
        smoke: false,
        // Inside the package whatever the working directory, and ignored
        // by git.
        dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => options.workload = value()?.clone(),
            "--seed" => options.seed = value()?.parse()?,
            "--seconds" => options.seconds = value()?.parse()?,
            "--trace" => options.traced = value()?.parse::<u8>()? != 0,
            "--dir" => options.dir = PathBuf::from(value()?),
            "--traced" => options.traced = true,
            "--smoke" => options.smoke = true,
            name if options.workload.is_empty() && !name.starts_with('-') => {
                options.workload = name.to_string();
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}").into()),
        }
    }
    if options.workload.is_empty() {
        return Err(USAGE.into());
    }
    if options.seconds == 0 {
        options.seconds = if options.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(options)
}

/// Runs one workload, prints every metric by name and unit, writes the
/// result (and span) files, and ends with the one-line result object.
/// Returns whether every checked operation succeeded.
fn run_workload(spec: Spec, options: &Options) -> Result<bool, BoxError> {
    let spec = if options.smoke { spec.smoke() } else { spec };
    let Options { seed, seconds, .. } = *options;
    let pass = if options.traced {
        "traced"
    } else {
        "end-to-end"
    };
    println!("# {} ({pass}) seed {seed} seconds {seconds}", spec.name);
    std::fs::create_dir_all(&options.dir)?;
    let inputs = Inputs::generate(&spec, seed, seconds);
    println!("inputs_fingerprint {:#018x}", inputs.fingerprint);
    if seed == DEFAULT_SEED && inputs.fingerprint != spec.pinned {
        return Err(format!(
            "inputs_fingerprint differs from the pinned {:#018x}: the generators changed",
            spec.pinned
        )
        .into());
    }

    let fingerprint = inputs.fingerprint;
    let mut tally = Tally::default();
    let mut detail = harness::Metrics::default();
    let mut metrics = if options.traced {
        let (metrics, spans) = ladder::run(&spec, &inputs, seconds, &options.dir, &mut tally)?;
        spans.write(&options.dir.join(format!("{}.trace.json", spec.name)))?;
        metrics
    } else {
        lifecycle::run(
            &spec,
            &inputs,
            seconds,
            &options.dir,
            &mut tally,
            &mut detail,
        )?
    };
    drop(inputs);
    harness::remove_journals(&options.dir, &spec)?;
    // Calibration last: its 256 MiB buffer must not set the peak RSS.
    let (alu_ns, chase_ns) = (host::calib_alu_ns(), host::calib_chase_ns());
    if options.traced {
        metrics.set("host.calib_alu_ns", alu_ns);
        metrics.set("host.calib_chase_ns", chase_ns);
        metrics.set("host.cores", host::cores() as f64);
        metrics.set("host.l2_kib", host::cache_kib(2));
        metrics.set("host.l3_kib", host::cache_kib(3));
        metrics.set(
            "host.simd_active",
            f64::from(u8::from(chisel_bloomier::simd::simd_active())),
        );
    }

    let defs = if options.traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for def in defs {
        if let Some(value) = metrics.get(def.name) {
            println!("{:<40} {value:>16.4} {}", def.name, def.unit);
        }
    }
    for (name, value) in &detail.0 {
        println!("  {name:<38} {value:>16.4}");
    }
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<40} {failed_share:>16.6} ratio ({} of {})",
        "failed_share", tally.failed, tally.attempted
    );
    for note in &tally.notes {
        println!("  FAILED {note}");
    }

    let line = report::result_line(options.traced, &metrics, &tally)?;
    let Value::Object(result) = line.clone() else {
        unreachable!("result_line returns an object");
    };
    let field = |k: &str, v: Value| (k.to_string(), v);
    let mut record = vec![
        field("workload", Value::String(spec.name.to_string())),
        field("pass", Value::String(pass.to_string())),
        field("smoke", Value::Bool(options.smoke)),
        field("seed", Value::UInt(seed)),
        field("seconds", Value::UInt(seconds)),
        field(
            "inputs_fingerprint",
            Value::String(format!("{fingerprint:#018x}")),
        ),
        field("host", host::fingerprint(&options.dir, alu_ns, chase_ns)),
    ];
    record.extend(result);
    let detail = detail.0.iter().map(|&(k, v)| field(k, Value::Float(v)));
    record.push(field("detail", Value::Object(detail.collect())));
    let notes = tally.notes.iter().cloned().map(Value::String);
    record.push(field("notes", Value::Array(notes.collect())));
    report::append_record(&options.dir.join("results.json"), Value::Object(record))?;
    println!("{line}");
    Ok(tally.failed == 0)
}

fn run(args: &[String]) -> Result<bool, BoxError> {
    let options = parse_run(args)?;
    if options.workload == "all" {
        let mut all_correct = true;
        for spec in SPECS {
            all_correct &= run_workload(spec, &options)?;
        }
        return Ok(all_correct);
    }
    let spec = Spec::by_name(&options.workload)
        .ok_or_else(|| format!("unknown workload {}\n{USAGE}", options.workload))?;
    run_workload(spec, &options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        // A person or CI: a correctness failure fails the command.
        Some("run") => run(&args[1..]),
        // The driver: the result line carries `correct`, the exit code
        // only says whether the benchmark itself ran.
        Some("--workload") => run(&args).map(|_| true),
        Some("compare") if args.len() == 3 => {
            report::compare(&args[1], &args[2]).map(|regressions| regressions == 0)
        }
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("chisel-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
