//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <dse_dense|dse_list|emulate|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//!           [--record-digests]
//! ```
//!
//! Prints every metric by name with its unit and sample count, then, as
//! the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, where `failed`
//! leaves out the known EFT fault deadlock. With `--trace 0`
//! the metrics are the `end_to_end` list of `BENCHMARK.json`; with
//! `--trace 1` they are the `per_layer` list, measured in a traced run
//! whose spans are written as a Chrome trace under the build directory.
//! Exits non-zero, without the JSON line, on any correctness mismatch.
//! See `perfbench/README.md` for the workloads and metrics.

mod common;
mod dse;
mod emulate;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use common::{Digests, Report};

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub run: Duration,
    /// Traced per-layer run instead of the untraced end-to-end run.
    pub trace: bool,
    /// Record digests for [`common::DIGEST_SEED`] instead of comparing.
    pub record: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut record = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                }
            }
            "--record-digests" => record = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, run: Duration::from_secs_f64(seconds), trace, record })
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Result<Vec<(String, String)>, String> {
    let v: serde_json::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list =
        v.get(key).and_then(|l| l.as_array()).ok_or(format!("BENCHMARK.json lacks '{key}'"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|n| n.as_str());
            let unit = m.get("unit").and_then(|u| u.as_str());
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: malformed entry in '{key}'")),
            }
        })
        .collect()
}

/// Where the traced run writes its span file: beside the build output.
fn trace_path(args: &Args) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    base.join("perfbench").join(format!("trace-{}-seed{}.json", args.workload, args.seed))
}

fn run(args: &Args) -> Result<Report, String> {
    let mut digests = Digests::load(args.record)?;
    let trace_out = args.trace.then(|| trace_path(args));
    let report = match args.workload.as_str() {
        "dse_dense" => dse::run(args, dse::Kind::Dense, &mut digests, trace_out.as_deref())?,
        "dse_list" => dse::run(args, dse::Kind::List, &mut digests, trace_out.as_deref())?,
        "emulate" => emulate::run(args, &mut digests, trace_out.as_deref())?,
        "serve_mix" => serve::run(args, trace_out.as_deref())?,
        other => {
            return Err(format!(
                "unknown workload '{other}' (dse_dense, dse_list, emulate, serve_mix)"
            ))
        }
    };
    if args.record {
        let path = Digests::path();
        std::fs::write(&path, digests.recorded_json()).map_err(|e| e.to_string())?;
        eprintln!("recorded digests into {}", path.display());
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let key = if args.trace { "per_layer" } else { "end_to_end" };
    let wanted = match listed(key) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    std::process::exit(finish(&args, &wanted, &report));
}

/// Prints the report and returns the exit code.
fn finish(args: &Args, wanted: &[(String, String)], report: &Report) -> i32 {
    println!("workload {} seed {} trace {}", args.workload, args.seed, args.trace as u8);
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, m) in &report.metrics {
        println!("  {name:<34} {:>16.6} {:<6} (n={})", m.value, m.unit, m.samples);
    }
    println!(
        "  attempted {} failed {} known defects {}",
        report.attempted, report.failed, report.known_defects
    );
    let mut problems = report.mismatches.clone();
    if report.attempted == 0 {
        problems.push("no operation was attempted".to_string());
    }
    let all: Vec<(String, String)> = [listed("end_to_end"), listed("per_layer")]
        .into_iter()
        .flat_map(|l| l.unwrap_or_default())
        .collect();
    for (name, m) in &report.metrics {
        match all.iter().find(|(n, _)| n == name) {
            None => problems.push(format!("metric '{name}' is not listed in BENCHMARK.json")),
            Some((_, unit)) if unit != m.unit => problems.push(format!(
                "metric '{name}' has unit {} but BENCHMARK.json says {unit}",
                m.unit
            )),
            Some(_) => {}
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = match report.metrics.get(name) {
            Some(m) => m.value,
            // A per-layer metric of a layer this workload does not
            // exercise reads 0.
            None if args.trace => 0.0,
            None => {
                problems.push(format!("end-to-end metric '{name}' was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            problems.push(format!("metric '{name}' is not finite"));
            continue;
        }
        fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("perfbench: MISMATCH {p}");
        }
        return 1;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    0
}
