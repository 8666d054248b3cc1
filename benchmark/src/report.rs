//! What leaves the process: the driver's result line, the result file,
//! `BENCHMARK.json` (printed from the `workloads` tables) and `compare`.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::harness::{median, percentile, BoxError, Metrics, Tally};
use crate::workloads::{MetricDef, DEFAULT_SECONDS, END_TO_END, PER_LAYER, SPECS};

fn field(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// `{"name": {"value": v, "unit": u}, …}` for exactly the metrics of
/// `defs`, in table order. A metric the pass did not produce, or produced
/// as a non-number, is a bug in the benchmark: refuse to report.
fn metrics_object(defs: &[MetricDef], metrics: &Metrics) -> Result<Value, BoxError> {
    let mut pairs = Vec::with_capacity(defs.len());
    for def in defs {
        let value = metrics
            .get(def.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        let entry = vec![
            field("value", Value::Float(value)),
            field("unit", text(def.unit)),
        ];
        pairs.push(field(def.name, Value::Object(entry)));
    }
    Ok(Value::Object(pairs))
}

/// The one-line result object the driver reads.
pub fn result_line(traced: bool, metrics: &Metrics, tally: &Tally) -> Result<Value, BoxError> {
    let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    Ok(Value::Object(vec![
        field("correct", Value::Bool(tally.failed == 0)),
        field("attempted", Value::UInt(tally.attempted.max(1))),
        field("failed", Value::UInt(tally.failed)),
        field("metrics", metrics_object(defs, metrics)?),
    ]))
}

fn metric_defs(defs: &[MetricDef], bounded: bool) -> Value {
    let rows = defs.iter().map(|d| {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let mut row = vec![
            field("name", text(d.name)),
            field("unit", text(d.unit)),
            field("better", text(better)),
        ];
        if bounded {
            row.push(field("bound", Value::Float(d.bound)));
        }
        Value::Object(row)
    });
    Value::Array(rows.collect())
}

/// `BENCHMARK.json`, from the tables in `workloads`.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = SPECS
        .iter()
        .map(|s| Value::Object(vec![field("name", text(s.name)), field("why", text(s.why))]));
    let manifest = Value::Object(vec![
        field(
            "command",
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        field("paths", Value::Array(vec![text("benchmark")])),
        field("run_seconds", Value::UInt(DEFAULT_SECONDS)),
        field("workloads", Value::Array(workloads.collect())),
        field("end_to_end", metric_defs(&END_TO_END, true)),
        field("per_layer", metric_defs(&PER_LAYER, false)),
    ]);
    serde_json::to_string_pretty(&manifest).expect("a Value tree always serializes") + "\n"
}

/// Appends `record` to the JSON array in `path` (created if absent), so
/// repeated runs accumulate into one file `compare` can read.
pub fn append_record(path: &Path, record: Value) -> Result<(), BoxError> {
    let mut records = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::parse_value(&text)? {
            Value::Array(records) => records,
            _ => return Err(format!("{} is not a JSON array of runs", path.display()).into()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    records.push(record);
    std::fs::write(
        path,
        serde_json::to_string_pretty(&Value::Array(records))? + "\n",
    )?;
    Ok(())
}

/// `(workload, metric) → values`, one per full-size end-to-end run in the
/// file (traced and smoke records carry no end-to-end weight).
fn load_runs(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, BoxError> {
    let parsed = serde_json::parse_value(&std::fs::read_to_string(path)?)?;
    let records = parsed
        .as_array()
        .ok_or_else(|| format!("{path} is not a JSON array of runs"))?;
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for record in records {
        if record["smoke"] == true || record["pass"] == "traced" {
            continue;
        }
        let (Some(workload), Some(Value::Object(metrics))) =
            (record["workload"].as_str(), record.get("metrics"))
        else {
            return Err(format!("{path}: a run without workload or metrics").into());
        };
        for (name, entry) in metrics {
            if let Some(value) = entry["value"].as_f64() {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// Interquartile distance as a share of the median (0 for one run).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    (percentile(values, 0.75) - percentile(values, 0.25)) / median(values).abs()
}

/// Applies the bounds table per (workload, end-to-end metric): the rule
/// of the choosing-metrics guide. `regressed` when the new median is
/// worse than the old by more than the bound; `unresolved` when either
/// side's run-to-run spread is wider than the bound (unless every new run
/// beats every old one); `improved` when the new median is better by more
/// than both the bound and the old side's spread; else `unchanged`.
/// Returns the number of regressions.
pub fn compare(old_path: &str, new_path: &str) -> Result<usize, BoxError> {
    let (old, new) = (load_runs(old_path)?, load_runs(new_path)?);
    let mut regressions = 0;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "change", "bound"
    );
    for ((workload, name), old_values) in &old {
        let Some(def) = END_TO_END.iter().find(|d| d.name == name) else {
            continue;
        };
        let Some(new_values) = new.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (old_median, new_median) = (median(old_values), median(new_values));
        // Positive = better, as a share of the old median.
        let sign = if def.higher_is_better { 1.0 } else { -1.0 };
        let gain = sign * (new_median - old_median) / old_median.abs();
        let better = |a: f64, b: f64| sign * (a - b) > 0.0;
        let dominates = new_values
            .iter()
            .all(|&n| old_values.iter().all(|&o| better(n, o)));
        let noisy = spread(old_values).max(spread(new_values)) > def.bound;
        let verdict = if noisy && !dominates {
            "unresolved"
        } else if gain < -def.bound {
            regressions += 1;
            "regressed"
        } else if gain > def.bound.max(spread(old_values)) {
            "improved"
        } else {
            "unchanged"
        };
        println!(
            "{workload:<12} {name:<26} {old_median:>14.4} {new_median:>14.4} {:>+7.2}% {:>6.1}%  {verdict}",
            gain * 100.0,
            def.bound * 100.0
        );
    }
    Ok(regressions)
}
