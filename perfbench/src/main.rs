//! The Stardust benchmark: three seeded workloads through the public
//! APIs of `stardust-runtime` and `stardust-server`, every output
//! checked against a reference, end-to-end metrics from an untraced run
//! and per-layer metrics from a traced one.
//!
//! ```text
//! stardust-perfbench --workload agg-burst|trend-corr|served-durable \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the metric names and
//! units are the ones `BENCHMARK.json` lists for the mode. A failed
//! output check prints no metrics and exits with code 2.

mod audit;
mod common;
mod inproc;
mod inputs;
mod measure;
mod replay;
mod served;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stardust_telemetry::json;

use common::{Params, Report};
use inputs::Workload;

/// `(name, unit)` of every metric `BENCHMARK.json` lists for a mode.
fn catalogue(trace: bool) -> Result<Vec<(String, String)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list =
        doc.get(key).and_then(|v| v.as_array()).ok_or(format!("BENCHMARK.json has no {key}"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|v| v.as_str());
            let unit = m.get("unit").and_then(|v| v.as_str());
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("a {key} entry lacks a name or unit")),
            }
        })
        .collect()
}

/// Whether per-layer metric `name` applies to workload `w`, i.e. the
/// workload drives the layer (the "flat (0)" column of the README's
/// per-layer table lists the others). An applicable metric must be
/// measured on every traced run of the workload.
fn applies(w: Workload, name: &str) -> bool {
    let served = w == Workload::ServedDurable;
    let prefixed = |prefixes: &[&str]| prefixes.iter().any(|p| name.starts_with(p));
    match name {
        "runtime.submit_wait_us_p50"
        | "runtime.submit_wait_us_p99"
        | "runtime.drain_events_us_total"
        | "runtime.events_per_drain"
        | "trace.alert_path_ratio"
        | "bench.alert_samples" => !served,
        "runtime.submit_refused"
        | "client.reordered_values"
        | "trace.ack_path_ratio"
        | "bench.ack_samples" => served,
        // Every workload reads the fsync counter: the bypass check.
        "persist.fsyncs" => true,
        _ if prefixed(&["persist.", "client.", "server.", "protocol."]) => served,
        _ if prefixed(&[
            "runtime.correlated_pairs",
            "runtime.cross_corr.",
            "runtime.sketch_exchange",
            "core.trend.",
            "core.correlation.",
            "index.",
        ]) =>
        {
            w == Workload::TrendCorr
        }
        _ if prefixed(&["core.aggregate."]) => w != Workload::TrendCorr,
        _ => true,
    }
}

/// Picks the mode's metrics out of a run's report, in catalogue order.
/// A per-layer metric of a layer the workload does not drive reads 0;
/// any other metric that is missing, has another unit, or is not finite
/// fails the run.
fn select(report: &Report, w: Workload, trace: bool) -> Result<Vec<(String, f64, String)>, String> {
    catalogue(trace)?
        .into_iter()
        .map(|(name, unit)| match report.metrics.get(name.as_str()) {
            Some(&(v, u)) if u == unit && v.is_finite() => Ok((name, v, unit)),
            Some(&(v, u)) => Err(format!("metric {name}: {v} {u}, catalogue says unit {unit}")),
            None if trace && !applies(w, &name) => Ok((name, 0.0, unit)),
            None => Err(format!("metric {name} was not measured on {}", w.name())),
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work_dir: PathBuf::from(".perfbench_tmp").join(std::process::id().to_string()),
    })
}

/// Runs one workload in its working directory, which is removed
/// afterwards; a traced run also checks the claimed bypasses.
fn run(p: &Params) -> Result<Report, String> {
    std::fs::create_dir_all(&p.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let result = match p.workload {
        Workload::ServedDurable => served::run(p),
        _ => inproc::run(p),
    };
    let _ = std::fs::remove_dir_all(&p.work_dir);
    let report = result?;
    if p.trace {
        check_bypasses(p.workload, &report)?;
    }
    Ok(report)
}

/// The traced registry must confirm the layers a workload claims to
/// bypass: only `trend-corr` touches the R*-tree, only `served-durable`
/// fsyncs.
fn check_bypasses(w: Workload, report: &Report) -> Result<(), String> {
    let read = |name: &str| report.metrics.get(name).map_or(0.0, |m| m.0);
    let (inserts, fsyncs) = (read("registry.index_inserts"), read("persist.fsyncs"));
    let index_bypassed = w != Workload::TrendCorr;
    let disk_bypassed = w != Workload::ServedDurable;
    if index_bypassed && inserts != 0.0 {
        return Err(format!(
            "{} claims to bypass the index, but it saw {inserts} inserts",
            w.name()
        ));
    }
    if disk_bypassed && fsyncs != 0.0 {
        return Err(format!("{} claims to bypass the WAL, but it saw {fsyncs} fsyncs", w.name()));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("usage: stardust-perfbench --workload <agg-burst|trend-corr|served-durable> --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(64);
        }
    };
    let report = match run(&p) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: FAILED: {e}", p.workload.name(), p.seed);
            return ExitCode::from(2);
        }
    };
    let metrics = match select(&report, p.workload, p.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if p.trace {
        let out = Path::new(".perfbench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            p.workload.name(),
            p.seed
        ));
        if let Err(e) = measure::write_spans(&out, &report.spans) {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::from(2);
        }
        println!("spans: {} written to {}", report.spans.len(), out.display());
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={}",
        p.workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &report.notes {
        println!("# {line}");
    }
    if !p.trace {
        // Open-loop latencies are measured untraced but not gated: on a
        // shared 2-vCPU VM their run-to-run spread exceeded the largest
        // bound the benchmark may set. The traced run reports them too.
        for (name, (v, unit)) in report.metrics.range("open_loop."..="open_loop/") {
            println!("# {name} {v} {unit}");
        }
    }
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                json::escape(name),
                json::escape(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny-size self-test: every metric `BENCHMARK.json` names is
    /// produced, with its unit, on every workload it applies to, in both
    /// modes, and the output checks pass on two seeds.
    #[test]
    fn every_named_metric_is_printed_on_every_workload() {
        for w in Workload::ALL {
            for (trace, seed) in [(false, 1), (true, 2)] {
                let p = Params {
                    workload: w,
                    seed,
                    seconds: 0.3,
                    trace,
                    work_dir: std::env::temp_dir().join(format!(
                        "perfbench-selftest-{}-{}",
                        std::process::id(),
                        w.name()
                    )),
                };
                let report = run(&p).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
                let metrics = select(&report, w, trace)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
                assert_eq!(metrics.len(), catalogue(trace).unwrap().len());
                assert!(report.attempted > 0 && report.failed == 0, "{}", w.name());
            }
        }
    }

    #[test]
    fn a_missing_applicable_metric_fails_the_run() {
        let full = |w: Workload| {
            let mut report = Report::default();
            for (name, unit) in catalogue(true).unwrap() {
                if applies(w, &name) {
                    let (name, unit): (&'static str, &'static str) = (name.leak(), unit.leak());
                    report.set(name, 1.0, unit);
                }
            }
            report
        };
        for w in Workload::ALL {
            let names: Vec<_> = full(w).metrics.keys().copied().collect();
            assert!(select(&full(w), w, true).is_ok(), "{}", w.name());
            for name in names {
                let mut report = full(w);
                report.metrics.remove(name);
                assert!(select(&report, w, true).is_err(), "{} without {name}", w.name());
            }
        }
        // A metric the workload does not drive reads 0.
        let report = full(Workload::AggBurst);
        let picked = select(&report, Workload::AggBurst, true).unwrap();
        let index = picked.iter().find(|m| m.0 == "index.splits").unwrap();
        assert_eq!(index.1, 0.0);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload agg-burst --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload agg-burst --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload agg-burst --seed 1 --seconds 1 --trace 0")).is_ok());
    }
}
