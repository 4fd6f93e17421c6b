//! End-to-end and per-layer benchmark of the TD-Pipe simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_td --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload through the library's public entry
//! points: it builds the inputs from `--seed` (several times, for
//! `setup_s`), repeats the simulation for about `--seconds` of host time,
//! checks the outputs, and prints a table followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! repeats and reports the per-layer metrics instead. See README.md.

#![forbid(unsafe_code)]

mod calibrate;
mod checks;
mod probe;
mod sheet;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use workloads::{Params, WORKLOADS};

/// Parsed command line.
struct Args {
    workload: String,
    params: Params,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            budget: seconds.ok_or("--seconds is required")?,
            traced: traced.unwrap_or(false),
        },
    })
}

/// Peak resident memory of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line: one JSON object.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = parse(argv)?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {:?}; one of {}",
                args.workload,
                names.join(", ")
            )
        })?;
    let mut out = (workload.run)(&args.params);
    out.sheet.set("peak_rss_mb", peak_rss_mb()?);
    out.sheet.set("ok_share", out.ledger.ok_share());
    out.sheet.set("bench.fail_share", out.ledger.fail_share());
    let metrics = out.sheet.select(args.params.traced)?;

    println!(
        "{} seed {} ({})",
        workload.name,
        args.params.seed,
        if args.params.traced {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>18.6} {unit}");
    }
    println!(
        "  run repeats: {} untraced, unscaled",
        out.run_samples.len()
    );
    for (clock, samples) in [("wall", &out.run_samples), ("cpu", &out.run_cpu_samples)] {
        let [q1, q2, q3] = stats::quartiles(samples);
        println!(
            "    {clock:<4} quartiles {q1:.4} / {q2:.4} / {q3:.4} s (spread {:.3})",
            stats::spread(samples)
        );
    }
    println!(
        "  calibration kernel: mean {:.5} s of CPU (reference {} s)",
        out.calibration_cpu,
        calibrate::REFERENCE_S
    );
    let l = &out.ledger;
    println!(
        "  requests: {} attempted, {} failed ({:.4}%)",
        l.attempted(),
        l.failed(),
        l.fail_share() * 100.0
    );
    for p in l.problems() {
        println!("  CHECK FAILED: {p}");
    }
    Ok(result_json(
        l.correct(),
        l.attempted(),
        l.failed(),
        &metrics,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&args(
            "--workload fig11_grid --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "fig11_grid");
        assert_eq!(a.params.seed, 7);
        assert_eq!(a.params.budget, Duration::from_secs(12));
        assert!(a.params.traced);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&args("--workload x --seed 1")).is_err());
        assert!(parse(&args("--workload x --seed -1 --seconds 5")).is_err());
        assert!(parse(&args("--workload x --seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--workload x --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse(&args("--workload x --seed 1 --seconds 5 --bogus 1")).is_err());
        assert!(run(&args("--workload nope --seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 10, 1, &[("run_s".into(), 1.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 1, "metrics": {"run_s": {"value": 1.25, "unit": "s"}}}"#
        );
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert!(matches!(v, serde::Value::Map(_)));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Map(top) = doc else {
            panic!("object")
        };
        let field = |k: &str| top.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        let listed = |k: &str, key: &str| -> Vec<String> {
            let Some(serde::Value::Seq(items)) = field(k) else {
                panic!("{k}")
            };
            items
                .iter()
                .map(|item| {
                    let serde::Value::Map(m) = item else {
                        panic!("{k} entry")
                    };
                    let Some((_, serde::Value::Str(s))) = m.iter().find(|(n, _)| n == key) else {
                        panic!("{k}.{key}")
                    };
                    s.clone()
                })
                .collect()
        };
        let e2e: Vec<String> = sheet::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(listed("end_to_end", "name"), e2e);
        let e2e_units: Vec<String> = sheet::END_TO_END
            .iter()
            .map(|(_, u)| u.to_string())
            .collect();
        assert_eq!(listed("end_to_end", "unit"), e2e_units);
        let layer = sheet::per_layer();
        let names: Vec<String> = layer.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(listed("per_layer", "name"), names);
        let units: Vec<String> = layer.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(listed("per_layer", "unit"), units);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(listed("workloads", "name"), workloads);
    }
}
