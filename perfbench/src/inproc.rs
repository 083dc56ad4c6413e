//! The in-process workloads, `agg-burst` and `trend-corr`: one
//! producer thread submits one-tick batches to a 2-shard
//! `ShardedRuntime`, a second bench thread drains events, and a query
//! thread issues pulled queries on a fixed schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use stardust_core::stream::StreamId;
use stardust_core::unified::Event;
use stardust_runtime::{MonitorSpec, RuntimeConfig, ShardedRuntime};
use stardust_telemetry::Registry;

use crate::audit::{self, Digest};
use crate::common::*;
use crate::inputs::{self, Tape, Workload, QUERIES_PER_S, SHARDS};
use crate::measure::{self, median, quiet_median, Samples, Schedule, Segmented, Tracer};
use crate::replay;

/// λ of the aggregate thresholds (μ+λσ over the training prefix).
pub const AGG_LAMBDA: f64 = 6.0;

/// The triggering value of an event: its stream's tick.
fn event_tick(e: &Event) -> u64 {
    match e {
        Event::Aggregate { alarm, .. } => alarm.time,
        Event::Trend(m) => m.time,
        Event::Correlation(p) => p.time,
    }
}

fn config(registry: Option<&Registry>) -> RuntimeConfig {
    RuntimeConfig { shards: SHARDS, telemetry: registry.cloned(), ..RuntimeConfig::default() }
}

/// Submits `ticks` as fast as they are accepted, then waits on a
/// `class_stats()` barrier; returns values per second, the host's CPU
/// steal meanwhile, and the number of failed calls.
fn closed_segment(
    rt: &ShardedRuntime,
    tape: &Tape,
    ticks: std::ops::Range<usize>,
) -> (f64, u64, u64) {
    let mut failed = 0;
    let n = ticks.len();
    let stolen = measure::steal_ticks();
    let started = Instant::now();
    for t in ticks {
        if rt.submit_blocking(&tape.batch(t)).is_err() {
            failed += 1;
        }
    }
    if rt.class_stats().is_err() {
        failed += 1;
    }
    let rate = (n * tape.streams) as f64 / started.elapsed().as_secs_f64();
    (rate, measure::steal_ticks() - stolen, failed)
}

/// What the drain thread saw: a digest of every event, and for each
/// event triggered in the open loop its tick and arrival instant.
struct Drained {
    digest: Digest,
    open_events: Vec<(u64, Instant)>,
    calls: u64,
    call_ns: u64,
    tracer: Tracer,
}

fn drain_loop(rt: &ShardedRuntime, stop: &AtomicBool, plan: Plan, mut tracer: Tracer) -> Drained {
    // Reserved far beyond the alerts of any seed: untouched capacity is
    // not resident, so the harness's share of the resident set grows
    // with the alert count instead of jumping at each doubling.
    let mut open_events = Vec::with_capacity(plan.open * SEGMENTS * 16);
    let (mut digest, mut calls, mut call_ns) = (Digest::default(), 0, 0);
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let called = Instant::now();
        let events = rt.drain_events();
        let seen = Instant::now();
        calls += 1;
        call_ns += measure::nanos(seen - called);
        if !events.is_empty() {
            tracer.record("runtime.drain_events", None, calls, called, seen);
            for e in &events {
                digest.add(e);
                let tick = event_tick(e);
                if plan.open_slot(tick as usize).is_some() {
                    open_events.push((tick, seen));
                }
            }
        } else if stopping {
            break;
        } else {
            std::thread::sleep(Duration::from_micros(DRAIN_POLL_US));
        }
    }
    Drained { digest, open_events, calls, call_ns, tracer }
}

/// One scheduled pulled query. Concurrent ingest moves the instant an
/// answer describes, so answers are checked after the run, quiescent.
fn query(rt: &ShardedRuntime, spec: &MonitorSpec, streams: usize, q: u64) -> bool {
    if spec.correlation.is_some() {
        rt.correlated_pairs().is_ok()
    } else {
        let windows = &spec.aggregate.as_ref().expect("agg spec").windows;
        let stream = (q as usize * 7) % streams;
        let window = windows[q as usize % windows.len()].window;
        rt.aggregate_interval(stream as StreamId, window).is_ok()
    }
}

pub fn run(p: &Params) -> Result<Report, String> {
    let w = p.workload;
    let plan = Plan::new(w, p.seconds);
    let (tape, spec) = match w {
        Workload::AggBurst => {
            let tape = inputs::burst_tape(p.seed, w.streams(), plan.total());
            let spec = inputs::agg_spec(&tape, AGG_LAMBDA);
            (tape, spec)
        }
        Workload::TrendCorr => {
            let tape = inputs::walk_tape(p.seed, w.streams(), plan.total());
            let spec = inputs::trend_corr_spec(&tape);
            (tape, spec)
        }
        Workload::ServedDurable => unreachable!("served-durable has its own runner"),
    };
    let m = tape.streams;
    let mut report = Report::default();
    // The generated inputs stay resident for the whole run; memory
    // figures count only what the program holds beyond them.
    let rss_inputs = measure::rss_mb().unwrap_or(0.0);

    let registry = p.trace.then(Registry::new);
    let launch = |registry: Option<&Registry>| -> Result<(ShardedRuntime, f64), String> {
        let t0 = Instant::now();
        let rt = ShardedRuntime::launch(&spec, m, config(registry)).map_err(|e| e.to_string())?;
        Ok((rt, t0.elapsed().as_secs_f64()))
    };
    // Spare set-ups (see SETUP_REPS), timed in equal shares before each
    // open-loop segment and kept out of the traced registry. Their time
    // switches between levels ~40% apart every few dozen set-ups, so a
    // block of them back to back moved by 30% between runs. Before the
    // closed-loop segments, their thread churn sped up or slowed down
    // the segment that followed.
    let spare_setups = |setups: &mut Vec<f64>| -> u64 {
        let mut failed = 0;
        for _ in 0..SETUP_REPS / SEGMENTS {
            match launch(None) {
                Ok((rt, secs)) => {
                    setups.push(secs);
                    drop(rt.shutdown());
                }
                Err(_) => failed += 1,
            }
        }
        failed
    };
    let mut setups = Vec::with_capacity(SETUP_REPS + 1);
    let (rt, secs) = launch(registry.as_ref())?;
    setups.push(secs);
    // What the set-up adds: nothing else runs between the two readings.
    let rss_after_setup = measure::rss_mb().unwrap_or(0.0) - rss_inputs;

    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let q_per_seg = (QUERIES_PER_S * plan.open_secs(w)) as u64;
    let (mut rates, mut closed_steal) = (Vec::new(), Vec::new());
    let mut open_steal = Vec::new();
    let mut scheds = Vec::with_capacity(SEGMENTS);
    let mut query_lat = Segmented::new(SEGMENTS);
    let mut query_spans = Vec::new();
    let mut lag = Samples::default();
    let mut submit = Samples::default();
    let mut sent_at = Vec::with_capacity(plan.open * SEGMENTS);
    let mut done_at = Vec::with_capacity(plan.open * SEGMENTS);
    // Registry batch latency over the open loop only: (count, sum in ns).
    let mut open_batches = (0u64, 0u64);
    let mut setup_failed = 0;
    let drained = std::thread::scope(|s| {
        let (rt, spec) = (&rt, &spec);
        let drainer = s.spawn(|| drain_loop(rt, &stop, plan, Tracer::new(epoch, p.trace, 2)));
        report.failed += closed_segment(rt, &tape, 0..plan.warm).2;
        for r in 0..SEGMENTS {
            let (rate, steal, failed) = closed_segment(rt, &tape, plan.closed_range(r));
            rates.push(rate);
            closed_steal.push(steal);
            report.failed += failed;
            setup_failed += spare_setups(&mut setups);
            let batches_before =
                registry.as_ref().map(|reg| reg.histogram(BATCH_LATENCY, "").snapshot());
            // Open loop: tick k of the segment is due at start + k / rate,
            // with the scheduled queries running beside it.
            let stolen = measure::steal_ticks();
            let sched =
                Schedule::new(Instant::now() + Duration::from_millis(2), w.open_ticks_per_s());
            scheds.push(sched);
            let querier = s.spawn(move || {
                let (mut lat, mut failed) = (Samples::default(), 0u64);
                let mut tracer = Tracer::new(epoch, p.trace, 3 + r as u32);
                let qs = Schedule::new(sched.start, QUERIES_PER_S);
                for q in 0..q_per_seg {
                    let due = qs.due(q);
                    Schedule::wait_until(due);
                    let sent = Instant::now();
                    if !query(rt, spec, m, q) {
                        failed += 1;
                    }
                    let done = Instant::now();
                    lat.push_since(due, done);
                    let root = tracer.record("query", None, q, due, done);
                    tracer.record("runtime.query_call", Some(root), q, sent, done);
                }
                (lat, failed, tracer.spans)
            });
            for (k, tick) in plan.open_range(r).enumerate() {
                let batch = tape.batch(tick);
                let due = sched.due(k as u64);
                Schedule::wait_until(due);
                let sent = Instant::now();
                if rt.submit_blocking(&batch).is_err() {
                    report.failed += 1;
                }
                let done = Instant::now();
                lag.push_since(due, sent);
                submit.push_since(sent, done);
                sent_at.push(sent);
                done_at.push(done);
            }
            let (lat, failed, spans) = querier.join().expect("query thread does not panic");
            query_lat.extend_segment(r, lat);
            report.failed += failed;
            query_spans.extend(spans);
            let steal = measure::steal_ticks() - stolen;
            query_lat.set_steal(r, steal);
            open_steal.push(steal);
            // The segment's batches are drained before the next closed
            // segment starts its clock.
            if rt.class_stats().is_err() {
                report.failed += 1;
            }
            if let (Some(before), Some(reg)) = (&batches_before, registry.as_ref()) {
                let delta = hist_since(reg, BATCH_LATENCY, before);
                open_batches.0 += delta.count;
                open_batches.1 += delta.sum;
            }
        }
        stop.store(true, Ordering::Release);
        drainer.join().expect("drain thread does not panic")
    });
    // Submits (one per tick), segment barriers, scheduled queries, set-ups.
    report.attempted += (plan.total() + 2 * SEGMENTS + 1) as u64
        + q_per_seg * SEGMENTS as u64
        + setups.len() as u64
        + setup_failed;
    report.failed += setup_failed;
    let ingest = quiet_median(&rates, &closed_steal);

    // Quiescent answers for the audit, read after the barrier.
    let final_pairs = rt.correlated_pairs().map_err(|e| e.to_string())?;
    let mut final_intervals = Vec::new();
    if let Some(agg) = &spec.aggregate {
        for s in 0..m {
            for win in &agg.windows {
                final_intervals.push(
                    rt.aggregate_interval(s as StreamId, win.window).map_err(|e| e.to_string())?,
                );
            }
        }
    }
    let stats = rt.stats();
    let cross = rt.cross_corr_stats();
    let class_stats = rt.class_stats().map_err(|e| e.to_string())?;
    let shutdown = rt.shutdown();
    let peak_rss = measure::peak_rss_mb().unwrap_or(0.0) - rss_inputs;
    let mut digest = drained.digest;
    for e in &shutdown.events {
        digest.add(e);
    }

    // Output checks against the single-threaded reference.
    let reference = audit::reference(&spec, &tape, plan.total(), SHARDS)?;
    audit::check_events("sharded runtime vs single-threaded monitor", &digest, &reference.pushed)?;
    audit::check_pairs(&final_pairs, &reference.pairs)?;
    audit::check_intervals("aggregate_interval", &final_intervals, &reference.intervals)?;
    if stats.total_appends() != (plan.total() * m) as u64 || !shutdown.events.is_empty() {
        return Err(format!(
            "runtime counted {} appends of {} submitted, {} events left undrained",
            stats.total_appends(),
            plan.total() * m,
            shutdown.events.len()
        ));
    }

    // Alert latency: from the due time of the triggering tick until the
    // drain thread saw the event. Traced, its blocking path is generator
    // lag, the submit call, then delivery (queue wait, apply, collector
    // hop, drain poll).
    let mut alerts = Segmented::new(SEGMENTS);
    for (r, &steal) in open_steal.iter().enumerate() {
        alerts.set_steal(r, steal);
    }
    let mut tracer = drained.tracer;
    for &(tick, seen) in &drained.open_events {
        let (r, k) = plan.open_slot(tick as usize).expect("only open-loop ticks are kept");
        let due = scheds[r].due(k as u64);
        alerts.push(r, measure::nanos(seen.saturating_duration_since(due)));
        if tracer.enabled() {
            let i = r * plan.open + k;
            let root = tracer.record("alert", None, tick, due, seen);
            tracer.record("bench.sched_lag", Some(root), tick, due, sent_at[i]);
            tracer.record("runtime.submit", Some(root), tick, sent_at[i], done_at[i]);
            tracer.record("runtime.deliver", Some(root), tick, done_at[i], seen);
        }
    }

    report.set("setup_s", median(&setups), "s");
    note_setups(&mut report, &setups);
    report.set("ingest_values_per_s", ingest, "values/s");
    report.set("open_loop.latency_p50_us", alerts.quiet_quantile_us(0.5), "us");
    report.set("open_loop.latency_p90_us", alerts.quiet_quantile_us(0.9), "us");
    report.set("open_loop.latency_p99_us", alerts.quiet_quantile_us(0.99), "us");
    report.set("open_loop.query_p50_us", query_lat.quiet_quantile_us(0.5), "us");
    report.set("open_loop.query_p90_us", query_lat.quiet_quantile_us(0.9), "us");
    report.set("peak_rss_mb", peak_rss, "MiB");
    report.note(format!(
        "latency = alert latency: {} samples in {SEGMENTS} segments, at least {} beyond p99 in each",
        alerts.len(),
        alerts.min_beyond(0.99)
    ));
    report.note(format!(
        "query = {}: {} samples in {SEGMENTS} segments, at least {} beyond p90 in each",
        if spec.correlation.is_some() { "correlated_pairs()" } else { "aggregate_interval()" },
        query_lat.len(),
        query_lat.min_beyond(0.9)
    ));
    report.note(format!(
        "latency p50/p90/p99 by segment (us): {:?} / {:?} / {:?}; host steal (ticks) {:?}",
        alerts.per_segment_us(0.5),
        alerts.per_segment_us(0.9),
        alerts.per_segment_us(0.99),
        alerts.steal()
    ));
    note_lag(&mut report, &lag);
    if alerts.len() < 1000 && p.seconds >= 5.0 {
        report.note("FLAG: fewer than 1000 alerts in the open loop".into());
    }

    // Per-layer metrics.
    report.set("bench.alert_samples", alerts.len() as f64, "count");
    report.set("bench.query_samples", query_lat.len() as f64, "count");
    report.set("rss.after_setup_mb", rss_after_setup, "MiB");
    report.set("runtime.submit_wait_us_p50", submit.quantile_us(0.5), "us");
    report.set("runtime.submit_wait_us_p99", submit.quantile_us(0.99), "us");
    shard_metrics(&mut report, &stats);
    report.set("runtime.drain_events_us_total", drained.call_ns as f64 / 1e3, "us");
    report.set(
        "runtime.events_per_drain",
        ratio(reference.pushed.events() as f64, drained.calls as f64),
        "ratio",
    );
    if spec.correlation.is_some() {
        let all = query_lat.merged();
        report.set("runtime.correlated_pairs_us_p50", all.quantile_us(0.5), "us");
        report.set("runtime.correlated_pairs_us_p99", all.quantile_us(0.99), "us");
        let considered = (cross.candidates + cross.pruned) as f64;
        report.set("runtime.cross_corr.considered", considered, "count");
        report.set(
            "runtime.cross_corr.prune_ratio",
            ratio(cross.pruned as f64, considered),
            "ratio",
        );
        report.set(
            "runtime.cross_corr.confirm_ratio",
            ratio(cross.confirmed as f64, cross.candidates as f64),
            "ratio",
        );
    }
    report.set("core.unified.ns_per_value", reference.ns_per_value, "ns/value");
    report.set(
        "baseline.single_thread_values_per_s",
        ratio(1e9, reference.ns_per_value),
        "values/s",
    );
    class_metrics(&mut report, &spec, &class_stats);

    // The traced run also measures an untraced closed loop on a fresh
    // runtime, for the tracing overhead; it runs last, so its memory
    // stays out of the measured run's figures.
    let untraced_rate = if p.trace {
        let rt = ShardedRuntime::launch(&spec, m, config(None)).map_err(|e| e.to_string())?;
        closed_segment(&rt, &tape, 0..plan.warm);
        let (rates, steal): (Vec<f64>, Vec<u64>) = (0..SEGMENTS)
            .map(|r| {
                let (rate, steal, _) = closed_segment(&rt, &tape, plan.closed_range(r));
                (rate, steal)
            })
            .unzip();
        drop(rt.shutdown());
        Some(quiet_median(&rates, &steal))
    } else {
        None
    };
    if let (Some(registry), Some(untraced)) = (&registry, untraced_rate) {
        traced_metrics(&mut report, registry, untraced, ingest, plan.total() * m);
        if open_batches.0 == 0 {
            return Err("the open loop recorded no batch latency".into());
        }
        let batch_ns = open_batches.1 as f64 / open_batches.0 as f64;
        report.set("runtime.batch_latency_us_mean", batch_ns / 1e3, "us");
        // The blocking path of an alert, stage by stage: generator lag,
        // the submit call, the shard's queue wait and apply (registry
        // batch latency of the open loop, submit to drained), then the
        // collector hop and the drain thread's call and half its poll
        // interval.
        let all = alerts.merged();
        let path_ns = lag.quantile(0.5) as f64
            + submit.quantile(0.5) as f64
            + batch_ns
            + ratio(drained.call_ns as f64, drained.calls as f64)
            + (DRAIN_POLL_US * 1000) as f64 / 2.0;
        let path_ratio = ratio(path_ns, all.quantile(0.5) as f64);
        report.set("trace.alert_path_ratio", path_ratio, "ratio");
        let deliver = measure::self_time_samples(&tracer.spans, "runtime.deliver");
        report.note(format!(
            "traced alert path: stages sum to {path_ratio:.2}x the median alert latency \
             (tolerance ±{PATH_TOLERANCE}); median self time of delivery {:.1} us",
            deliver.quantile_us(0.5)
        ));
        if (path_ratio - 1.0).abs() > PATH_TOLERANCE {
            report.note("FLAG: traced alert-path stages do not account for the median".into());
        }
        replay::core_and_index(&mut report, &spec, &tape, plan.total());
        report.spans = tracer.spans;
        report.spans.extend(query_spans);
    }
    Ok(report)
}

/// Notes the spread of a run's set-up repetitions.
pub fn note_setups(report: &mut Report, setups: &[f64]) {
    let lo = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = setups.iter().copied().fold(0.0, f64::max);
    report.note(format!(
        "set-up: {} repetitions, min {:.1} us, median {:.1} us, max {:.1} us",
        setups.len(),
        lo * 1e6,
        median(setups) * 1e6,
        hi * 1e6
    ));
}

/// Reports the open-loop generator's lag and flags a run that fell
/// behind its schedule.
pub fn note_lag(report: &mut Report, lag: &Samples) {
    let p99 = lag.quantile_us(0.99);
    report.set("bench.sched_lag_us_p99", p99, "us");
    report.note(format!("open-loop generator lag p99 {p99:.1} us over {} sends", lag.len()));
    if p99 > SCHED_LAG_FLAG_US {
        report.note("FLAG: the open-loop generator fell behind its schedule".into());
    }
}

/// Per-shard counters from `stats()`.
pub fn shard_metrics(report: &mut Report, stats: &stardust_runtime::RuntimeStats) {
    report.set("runtime.queue_high_water", stats.max_queue_high_water() as f64, "count");
    let appends: Vec<f64> = stats.shards.iter().map(|s| s.appends as f64).collect();
    let mean = appends.iter().sum::<f64>() / appends.len() as f64;
    report.set(
        "runtime.shard_skew",
        ratio(appends.iter().copied().fold(0.0, f64::max), mean),
        "ratio",
    );
}

/// Per-class counters from `class_stats()`, for the classes `spec` runs.
pub fn class_metrics(report: &mut Report, spec: &MonitorSpec, c: &stardust_runtime::ClassStats) {
    if spec.aggregate.is_some() {
        report.set("core.aggregate.checks", c.aggregate.checks as f64, "count");
        report.set("core.aggregate.candidates", c.aggregate.candidates as f64, "count");
        report.set("core.aggregate.precision", c.aggregate.precision(), "ratio");
    }
    if spec.trend.is_some() {
        report.set("core.trend.candidates", c.trend.candidates as f64, "count");
        report.set(
            "core.trend.precision",
            ratio(c.trend.matches as f64, c.trend.candidates as f64),
            "ratio",
        );
    }
    if spec.correlation.is_some() {
        report.set("core.correlation.candidates", c.correlation.reported as f64, "count");
        report.set(
            "core.correlation.precision",
            ratio(c.correlation.true_pairs as f64, c.correlation.reported as f64),
            "ratio",
        );
    }
}

/// Registry reads shared by every traced run, taken after the final
/// barrier. Histogram means are set only when the layer recorded
/// samples; `runtime.batch_latency_us_mean` is each runner's, over its
/// open loop.
pub fn traced_metrics(
    report: &mut Report,
    registry: &Registry,
    untraced_rate: f64,
    traced_rate: f64,
    values: usize,
) {
    report.set("trace.overhead_ratio", ratio(untraced_rate, traced_rate), "ratio");
    if let Some(size) = hist_mean(registry, "stardust_runtime_group_size") {
        report.set("runtime.group_size_mean", size, "ratio");
    }
    report.set(
        "runtime.sketch_exchanges",
        counter(registry, "stardust_sketch_exchanges_total"),
        "count",
    );
    set_mean_us(report, "runtime.sketch_exchange_us_mean", registry, "stardust_sketch_exchange_ns");
    let fsyncs = counter(registry, "stardust_persist_fsyncs_total");
    report.set("persist.fsyncs", fsyncs, "count");
    report.set("persist.values_per_fsync", ratio(values as f64, fsyncs), "ratio");
    set_mean_us(report, "persist.wal_append_us_mean", registry, "stardust_persist_wal_append_ns");
    report.set(
        "persist.wal_bytes_per_value",
        ratio(counter(registry, "stardust_persist_wal_bytes_total"), values as f64),
        "B/value",
    );
    report.set(
        "persist.wal_group_writes",
        counter(registry, "stardust_persist_wal_group_writes_total"),
        "count",
    );
    report.set(
        "core.summarizer.sealed",
        counter(registry, "stardust_summarizer_mbrs_sealed_total"),
        "count",
    );
    report.set(
        "core.summarizer.retired",
        counter(registry, "stardust_summarizer_mbrs_retired_total"),
        "count",
    );
    report.set(
        "registry.index_inserts",
        counter(registry, "stardust_index_inserts_total"),
        "count",
    );
}
