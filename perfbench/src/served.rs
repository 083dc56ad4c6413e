//! The `served-durable` workload: two loopback client connections
//! (one tenant each) append pipelined one-tick frames to an in-process
//! `Server` whose runtime is opened on a WAL directory with
//! `SyncPolicy::Always`; afterwards copies of the directory are
//! reopened to time recovery.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stardust_runtime::{
    MonitorSpec, PersistConfig, RecoveryReport, RuntimeConfig, ShardedRuntime, SyncPolicy,
};
use stardust_server::protocol::{encode_frame, parse_frame, FrameParse, FRAME_HEADER_LEN};
use stardust_server::{
    AppendOutcome, Client, ClientError, Reply, Request, RetryPolicy, Server, ServerConfig,
    TenantConfig,
};
use stardust_telemetry::Registry;

use crate::audit::{self, Digest};
use crate::common::*;
use crate::inproc::{
    class_metrics, note_lag, note_setups, shard_metrics, traced_metrics, AGG_LAMBDA,
};
use crate::inputs::{self, Tape, Workload, QUERIES_PER_S, SHARDS};
use crate::measure::{self, median, quiet_median, Samples, Schedule, Segmented, Tracer};
use crate::replay;

/// Frames per pipelined `append_group_all` call in the closed loop, and
/// the most the open loop sends at once when it has fallen behind.
const GROUP: usize = 16;
/// Reopens of copies of the WAL directory; `persist.recovery_s` is
/// their median.
const RECOVERY_REPS: usize = 5;
const TENANTS: usize = 2;

struct Setup {
    server: Server,
    clients: Vec<Client>,
}

fn tenants(streams: usize) -> Vec<TenantConfig> {
    (0..TENANTS)
        .map(|j| TenantConfig {
            name: format!("tenant-{j}"),
            token: format!("token-{j}"),
            streams: (streams / TENANTS) as u32,
            append_rate: 0,
        })
        .collect()
}

fn runtime_config(registry: Option<&Registry>) -> RuntimeConfig {
    RuntimeConfig { shards: SHARDS, telemetry: registry.cloned(), ..RuntimeConfig::default() }
}

/// `open` + `Server::start` + one connection per tenant: the set-up a
/// user pays before the first value can be sent.
fn set_up(
    spec: &MonitorSpec,
    streams: usize,
    dir: &Path,
    registry: Option<&Registry>,
) -> Result<Setup, String> {
    let persist = PersistConfig::new(dir).sync(SyncPolicy::Always);
    let (rt, _) = ShardedRuntime::open(spec, streams, runtime_config(registry), persist)
        .map_err(|e| e.to_string())?;
    let server = Server::start(
        "127.0.0.1:0",
        rt,
        tenants(streams),
        ServerConfig::default(),
        registry.cloned().unwrap_or_else(Registry::disabled),
    )
    .map_err(|e| e.to_string())?;
    let mut clients = Vec::with_capacity(TENANTS);
    for j in 0..TENANTS {
        let (c, _) = Client::connect(server.local_addr(), &format!("token-{j}"))
            .map_err(|e| e.to_string())?;
        clients.push(c);
    }
    Ok(Setup { server, clients })
}

fn tear_down(setup: Setup) -> stardust_server::ServerReport {
    for c in setup.clients {
        let _ = c.goodbye();
    }
    setup.server.shutdown()
}

/// Tenant `j`'s frame of one tick.
fn frame(tape: &Tape, tick: usize, j: usize) -> Vec<(u32, f64)> {
    let per = tape.streams / TENANTS;
    tape.slice(tick, j * per, (j + 1) * per)
}

/// The order in which the server admitted one tenant's values. A
/// stream's values are sent in tick order, so its `n`-th admitted value
/// is tick `n` unless a `Busy` partial refusal moved it: the server
/// admits a pipelined window in 8 KiB read chunks, so a later chunk can
/// be admitted before the refused part of an earlier one is resent.
struct Admitted {
    /// Values admitted so far, per tenant-local stream.
    count: Vec<usize>,
    /// `(position, tick)` wherever admission departed from send order.
    moved: Vec<Vec<(usize, usize)>>,
    busy: u64,
}

impl Admitted {
    fn new(streams: usize) -> Self {
        Admitted { count: vec![0; streams], moved: vec![Vec::new(); streams], busy: 0 }
    }

    fn admit(&mut self, stream: usize, tick: usize) {
        let pos = self.count[stream];
        if pos != tick {
            self.moved[stream].push((pos, tick));
        }
        self.count[stream] += 1;
    }

    /// The tick whose value the server admitted `pos`-th on `stream`.
    fn tick_at(&self, stream: usize, pos: usize) -> usize {
        let moved = &self.moved[stream];
        moved.binary_search_by_key(&pos, |&(p, _)| p).map_or(pos, |i| moved[i].1)
    }

    fn reordered(&self) -> usize {
        self.moved.iter().map(Vec::len).sum()
    }
}

/// Sends tenant `j`'s frames of `ticks` as one pipelined window and
/// resends `Busy` refusals until every value is admitted, with the
/// backoff of `Client::append_group_all`; records the admission order.
fn send_window(
    c: &mut Client,
    j: usize,
    tape: &Tape,
    ticks: std::ops::Range<usize>,
    admitted: &mut Admitted,
) -> Result<(), ClientError> {
    let policy = RetryPolicy::default();
    let mut pending: Vec<(usize, Vec<(u32, f64)>)> =
        ticks.map(|t| (t, frame(tape, t, j))).collect();
    let mut attempt = 0;
    while !pending.is_empty() {
        let frames: Vec<Vec<(u32, f64)>> = pending.iter().map(|(_, f)| f.clone()).collect();
        let outcomes = c.append_group(&frames)?;
        let (mut retry, mut hint) = (Vec::new(), 0);
        for ((tick, items), outcome) in pending.into_iter().zip(outcomes) {
            match outcome {
                AppendOutcome::Appended(_) => {
                    for &(s, _) in &items {
                        admitted.admit(s as usize, tick);
                    }
                }
                AppendOutcome::Busy { retry_after_ms, rejected } => {
                    admitted.busy += 1;
                    hint = hint.max(retry_after_ms);
                    let mut left = Vec::new();
                    for (i, &(s, v)) in items.iter().enumerate() {
                        if rejected.contains(&(i as u32)) {
                            left.push((s, v));
                        } else {
                            admitted.admit(s as usize, tick);
                        }
                    }
                    if !left.is_empty() {
                        retry.push((tick, left));
                    }
                }
                AppendOutcome::Quota { detail, .. } => return Err(ClientError::Protocol(detail)),
            }
        }
        if !retry.is_empty() {
            if attempt >= policy.max_attempts {
                return Err(ClientError::RetriesExhausted { attempts: attempt });
            }
            std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt, hint)));
            attempt += 1;
        }
        pending = retry;
    }
    Ok(())
}

/// Both connections send `ticks` in pipelined windows as fast as they
/// are accepted, then a `ClassStats` barrier; returns values per second,
/// the host's CPU steal meanwhile, and the number of failed calls.
fn closed_segment(
    clients: &mut [Client],
    admitted: &mut [Admitted],
    tape: &Tape,
    ticks: std::ops::Range<usize>,
) -> (f64, u64, u64) {
    let stolen = measure::steal_ticks();
    let started = Instant::now();
    let mut failed = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(admitted.iter_mut())
            .enumerate()
            .map(|(j, (c, adm))| {
                let ticks = ticks.clone();
                s.spawn(move || {
                    let mut failed = 0u64;
                    for t in ticks.clone().step_by(GROUP) {
                        if send_window(c, j, tape, t..(t + GROUP).min(ticks.end), adm).is_err() {
                            failed += 1;
                        }
                    }
                    failed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).sum::<u64>()
    });
    if clients[0].class_stats().is_err() {
        failed += 1;
    }
    let rate = (ticks.len() * tape.streams) as f64 / started.elapsed().as_secs_f64();
    (rate, measure::steal_ticks() - stolen, failed)
}

/// One connection's share of one open-loop segment.
#[derive(Default)]
struct OpenSide {
    acks: Samples,
    lag: Samples,
    calls: Samples,
    queries: Samples,
    attempted: u64,
    failed: u64,
}

/// The scheduled pings of one open-loop segment.
#[derive(Clone, Copy)]
struct QueryPlan {
    sched: Schedule,
    count: u64,
}

/// Connection `j`'s part of one open-loop segment: the frame of the
/// segment's `k`-th tick is due at `sched.due(k)`, and everything
/// already due when a send starts goes out as one pipelined window;
/// connection 0 also sends the scheduled pings. A ping is the served
/// request that waits on nothing but the server: a pulled read such as
/// `aggregate_interval` queues behind the batches awaiting the WAL fsync
/// and times the host disk.
#[allow(clippy::too_many_arguments)]
fn open_side(
    c: &mut Client,
    admitted: &mut Admitted,
    j: usize,
    tape: &Tape,
    ticks: std::ops::Range<usize>,
    sched: Schedule,
    queries: Option<QueryPlan>,
    tracer: &mut Tracer,
) -> OpenSide {
    let mut out = OpenSide::default();
    let open = ticks.len();
    let (mut k, mut q) = (0usize, 0u64);
    loop {
        let tick_due = (k < open).then(|| sched.due(k as u64));
        let query_due = queries.and_then(|qp| (q < qp.count).then(|| qp.sched.due(q)));
        match (tick_due, query_due) {
            (None, None) => break,
            (Some(td), qd) if qd.is_none_or(|qd| td <= qd) => {
                Schedule::wait_until(td);
                let now = Instant::now();
                let mut n = 1;
                while k + n < open && n < GROUP && sched.due((k + n) as u64) <= now {
                    n += 1;
                }
                let sent = Instant::now();
                out.attempted += n as u64;
                let window = ticks.start + k..ticks.start + k + n;
                if send_window(c, j, tape, window, admitted).is_err() {
                    out.failed += n as u64;
                }
                let done = Instant::now();
                out.lag.push_since(td, sent);
                out.calls.push_since(sent, done);
                for i in k..k + n {
                    out.acks.push_since(sched.due(i as u64), done);
                }
                let req = (ticks.start + k) as u64;
                let root = tracer.record("ack", None, req, td, done);
                tracer.record("bench.sched_lag", Some(root), req, td, sent);
                tracer.record("client.append_group", Some(root), req, sent, done);
                k += n;
            }
            (_, Some(qd)) => {
                Schedule::wait_until(qd);
                let sent = Instant::now();
                out.attempted += 1;
                if c.ping().is_err() {
                    out.failed += 1;
                }
                let done = Instant::now();
                out.queries.push_since(qd, done);
                let root = tracer.record("query", None, q, qd, done);
                tracer.record("client.query", Some(root), q, sent, done);
                q += 1;
            }
            (Some(_), None) => unreachable!("covered by the tick arm"),
        }
    }
    out
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn new_admitted(streams: usize) -> Vec<Admitted> {
    (0..TENANTS).map(|_| Admitted::new(streams / TENANTS)).collect()
}

pub fn run(p: &Params) -> Result<Report, String> {
    let w = Workload::ServedDurable;
    let plan = Plan::new(w, p.seconds);
    let tape = inputs::burst_tape(p.seed, w.streams(), plan.total());
    let spec = inputs::agg_spec(&tape, AGG_LAMBDA);
    let m = tape.streams;
    let windows: Vec<usize> =
        spec.aggregate.as_ref().expect("agg spec").windows.iter().map(|x| x.window).collect();
    let dir = |tag: &str| -> PathBuf { p.work_dir.join(format!("wal-{tag}")) };
    let mut report = Report::default();
    // The generated inputs stay resident for the whole run; memory
    // figures count only what the program holds beyond them.
    let rss_inputs = measure::rss_mb().unwrap_or(0.0);

    let registry = p.trace.then(Registry::new);
    let timed_set_up = |at: &Path, registry: Option<&Registry>| -> Result<(Setup, f64), String> {
        let _ = std::fs::remove_dir_all(at);
        let t0 = Instant::now();
        let s = set_up(&spec, m, at, registry)?;
        Ok((s, t0.elapsed().as_secs_f64()))
    };
    let live = dir("live");
    let mut setups = Vec::with_capacity(SETUP_REPS + 1);
    let (mut setup, secs) = timed_set_up(&live, registry.as_ref())?;
    setups.push(secs);
    // What the set-up adds: nothing else runs between the two readings.
    let rss_after_setup = measure::rss_mb().unwrap_or(0.0) - rss_inputs;

    let epoch = Instant::now();
    let mut admitted = new_admitted(m);
    report.failed += closed_segment(&mut setup.clients, &mut admitted, &tape, 0..plan.warm).2;
    let q_per_seg = (QUERIES_PER_S * plan.open_secs(w)) as u64;
    let (mut rates, mut closed_steal) = (Vec::new(), Vec::new());
    let (mut acks, mut queries) = (Segmented::new(SEGMENTS), Segmented::new(SEGMENTS));
    let (mut lag, mut calls) = (Samples::default(), Samples::default());
    let mut spans = Vec::new();
    // Registry batch latency over the open loop only: (count, sum in ns).
    let mut open_batches = (0u64, 0u64);
    for r in 0..SEGMENTS {
        let (rate, steal, failed) =
            closed_segment(&mut setup.clients, &mut admitted, &tape, plan.closed_range(r));
        rates.push(rate);
        closed_steal.push(steal);
        report.failed += failed;
        let batches_before =
            registry.as_ref().map(|reg| reg.histogram(BATCH_LATENCY, "").snapshot());
        // Open loop: each connection sends its tenant's frame of the
        // segment's tick k at start + k / rate; connection 0 also issues
        // the scheduled queries.
        let stolen = measure::steal_ticks();
        let sched = Schedule::new(Instant::now() + Duration::from_millis(2), w.open_ticks_per_s());
        let query_plan =
            QueryPlan { sched: Schedule::new(sched.start, QUERIES_PER_S), count: q_per_seg };
        let sides: Vec<(OpenSide, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = setup
                .clients
                .iter_mut()
                .zip(admitted.iter_mut())
                .enumerate()
                .map(|(j, (c, adm))| {
                    let (tape, ticks) = (&tape, plan.open_range(r));
                    s.spawn(move || {
                        let mut tracer = Tracer::new(epoch, p.trace, (1 + j + TENANTS * r) as u32);
                        let queries = (j == 0).then_some(query_plan);
                        let side = open_side(c, adm, j, tape, ticks, sched, queries, &mut tracer);
                        (side, tracer)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
        });
        for (side, tracer) in sides {
            acks.extend_segment(r, side.acks);
            queries.extend_segment(r, side.queries);
            lag.extend(side.lag);
            calls.extend(side.calls);
            report.attempted += side.attempted;
            report.failed += side.failed;
            spans.extend(tracer.spans);
        }
        let steal = measure::steal_ticks() - stolen;
        acks.set_steal(r, steal);
        queries.set_steal(r, steal);
        // The segment's frames are applied before the next closed
        // segment starts its clock.
        if setup.clients[0].class_stats().is_err() {
            report.failed += 1;
        }
        if let (Some(before), Some(reg)) = (&batches_before, registry.as_ref()) {
            let delta = hist_since(reg, BATCH_LATENCY, before);
            open_batches.0 += delta.count;
            open_batches.1 += delta.sum;
        }
    }
    let ingest = quiet_median(&rates, &closed_steal);
    // Closed-loop frames and the barriers of both phases; open-loop
    // frames and queries were counted as they were sent.
    report.attempted += ((plan.warm + plan.closed * SEGMENTS) * TENANTS + 2 * SEGMENTS + 1) as u64;
    let class_stats = setup.clients[0].class_stats().map_err(|e| format!("class_stats: {e}"))?;
    report.attempted += 1;

    // Quiescent answers for the audit, in global stream order.
    let mut served_intervals = Vec::new();
    for (j, c) in setup.clients.iter_mut().enumerate() {
        for s in 0..m / TENANTS {
            for &win in &windows {
                served_intervals.push(
                    c.aggregate_interval(s as u32, win as u32)
                        .map_err(|e| format!("tenant {j} aggregate_interval: {e}"))?,
                );
            }
        }
    }
    let served = tear_down(setup);
    let peak_rss = measure::peak_rss_mb().unwrap_or(0.0) - rss_inputs;
    // Spare set-ups (see SETUP_REPS), out of the traced registry, in one
    // block once the server has stopped. A set-up is mostly `open`
    // creating and fsyncing its WAL files: between the WAL-heavy
    // segments they timed the run's own disk backlog as well. Here the
    // disk is idle but for them; the level still follows the host disk.
    let spare = dir("spare");
    for _ in 0..SETUP_REPS {
        report.attempted += 1;
        match timed_set_up(&spare, None) {
            Ok((s, secs)) => {
                setups.push(secs);
                tear_down(s);
            }
            Err(_) => report.failed += 1,
        }
    }
    let _ = std::fs::remove_dir_all(&spare);

    // Recovery: reopen copies of the directory the run left behind.
    let mut recoveries = Vec::with_capacity(RECOVERY_REPS);
    let mut first_report: Option<RecoveryReport> = None;
    let recovery_registry = p.trace.then(Registry::new);
    for r in 0..RECOVERY_REPS {
        let copy = dir(&format!("reopen-{r}"));
        copy_dir(&live, &copy)?;
        let reg = if r == 0 { recovery_registry.as_ref() } else { None };
        let persist = PersistConfig::new(&copy).sync(SyncPolicy::Always);
        let t0 = Instant::now();
        let (rt, rec) = ShardedRuntime::open(&spec, m, runtime_config(reg), persist)
            .map_err(|e| format!("reopen: {e}"))?;
        recoveries.push(t0.elapsed().as_secs_f64());
        drop(rt.shutdown());
        let _ = std::fs::remove_dir_all(&copy);
        first_report.get_or_insert(rec);
    }
    let _ = std::fs::remove_dir_all(&live);
    let rec = first_report.expect("at least one reopen");

    // Output checks: the served event set equals a direct runtime fed
    // the values in the order the server admitted them, and every acked
    // value is durable on reopen.
    let per = m / TENANTS;
    if admitted.iter().any(|a| a.count.iter().any(|&n| n != plan.total())) {
        return Err("a stream's admitted value count differs from the values sent".into());
    }
    let direct =
        ShardedRuntime::launch(&spec, m, runtime_config(None)).map_err(|e| e.to_string())?;
    for pos in 0..plan.total() {
        let batch = (0..m)
            .map(|g| (g as u32, tape.value(admitted[g / per].tick_at(g % per, pos), g)))
            .collect();
        direct.submit_blocking(&batch).map_err(|e| e.to_string())?;
    }
    let mut direct_intervals = Vec::new();
    for s in 0..m {
        for &win in &windows {
            direct_intervals
                .push(direct.aggregate_interval(s as u32, win).map_err(|e| e.to_string())?);
        }
    }
    let mut want = Digest::default();
    direct.shutdown().events.iter().for_each(|e| want.add(e));
    let mut got = Digest::default();
    served.events.iter().for_each(|e| got.add(e));
    audit::check_events("served events vs direct runtime", &got, &want)?;
    audit::check_intervals("served aggregate_interval", &served_intervals, &direct_intervals)?;
    let values = (plan.total() * m) as u64;
    if served.stats.total_appends() != values {
        return Err(format!(
            "server runtime counted {} appends, {values} were acked",
            served.stats.total_appends()
        ));
    }
    if rec.total_durable_appends() != values {
        return Err(format!(
            "reopen found {} durable appends, {values} were acked",
            rec.total_durable_appends()
        ));
    }

    report.set("setup_s", median(&setups), "s");
    note_setups(&mut report, &setups);
    report.set("ingest_values_per_s", ingest, "values/s");
    report.set("open_loop.latency_p50_us", acks.quiet_quantile_us(0.5), "us");
    report.set("open_loop.latency_p90_us", acks.quiet_quantile_us(0.9), "us");
    report.set("open_loop.latency_p99_us", acks.quiet_quantile_us(0.99), "us");
    report.set("open_loop.query_p50_us", queries.quiet_quantile_us(0.5), "us");
    report.set("open_loop.query_p90_us", queries.quiet_quantile_us(0.9), "us");
    report.set("peak_rss_mb", peak_rss, "MiB");
    report.note(format!(
        "latency = AppendOk latency: {} samples in {SEGMENTS} segments, at least {} beyond p99 in each",
        acks.len(),
        acks.min_beyond(0.99)
    ));
    report.note(format!(
        "query = Client::ping(): {} samples in {SEGMENTS} segments, \
         at least {} beyond p90 in each",
        queries.len(),
        queries.min_beyond(0.9)
    ));
    report.note(format!(
        "recovery: median reopen {:.4} s over {RECOVERY_REPS} copies",
        median(&recoveries)
    ));
    report.note(format!(
        "latency p50/p90/p99 by segment (us): {:?} / {:?} / {:?}; host steal (ticks) {:?}",
        acks.per_segment_us(0.5),
        acks.per_segment_us(0.9),
        acks.per_segment_us(0.99),
        acks.steal()
    ));
    note_lag(&mut report, &lag);

    report.set("bench.ack_samples", acks.len() as f64, "count");
    report.set("bench.query_samples", queries.len() as f64, "count");
    report.set("rss.after_setup_mb", rss_after_setup, "MiB");
    report.set("persist.recovery_s", median(&recoveries), "s");
    report.set("persist.recovery_replayed", rec.total_replayed() as f64, "count");
    report.set("client.append_group_us_p50", calls.quantile_us(0.5), "us");
    report.set("client.append_group_us_p99", calls.quantile_us(0.99), "us");
    shard_metrics(&mut report, &served.stats);
    class_metrics(&mut report, &spec, &class_stats);
    let busy: u64 = admitted.iter().map(|a| a.busy).sum();
    let reordered: usize = admitted.iter().map(Admitted::reordered).sum();
    report.note(format!("Busy replies absorbed by retries: {busy}"));
    report.note(format!("events the server held at shutdown: {}", served.events.len()));
    report.set("client.reordered_values", reordered as f64, "count");
    if reordered > 0 {
        report.note(format!(
            "FLAG: {reordered} values were admitted out of send order: a Busy partial refusal \
             of a pipelined window was resent after a later part of the window was admitted"
        ));
    }

    // The traced run also measures an untraced closed loop on a fresh
    // runtime, for the tracing overhead; it runs last, so its memory
    // stays out of the measured run's figures.
    let untraced_rate = if p.trace {
        let d = dir("untraced");
        let _ = std::fs::remove_dir_all(&d);
        let mut s = set_up(&spec, m, &d, None)?;
        let mut adm = new_admitted(m);
        closed_segment(&mut s.clients, &mut adm, &tape, 0..plan.warm);
        let (rates, steal): (Vec<f64>, Vec<u64>) = (0..SEGMENTS)
            .map(|r| {
                let (rate, steal, _) =
                    closed_segment(&mut s.clients, &mut adm, &tape, plan.closed_range(r));
                (rate, steal)
            })
            .unzip();
        tear_down(s);
        let _ = std::fs::remove_dir_all(&d);
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
        let server_ns = hist_mean(registry, "stardust_server_request_latency_ns")
            .ok_or("the server recorded no request latency")?;
        report.set("server.request_us_mean", server_ns / 1e3, "us");
        report.set(
            "server.busy_replies",
            counter(registry, "stardust_server_busy_replies_total"),
            "count",
        );
        report.set(
            "server.frame_errors",
            counter(registry, "stardust_server_frame_errors_total"),
            "count",
        );
        let refused = (0..TENANTS)
            .map(|j| {
                counter(
                    registry,
                    &stardust_telemetry::labeled(
                        "stardust_server_tenant_rejected_busy_values_total",
                        &[("tenant", &format!("tenant-{j}"))],
                    ),
                )
            })
            .sum();
        report.set("runtime.submit_refused", refused, "count");
        // Snapshot captures happen during ingest and bound the journal
        // suffix a reopen replays; the per-shard disk recovery is the
        // first reopen's.
        set_mean_us(
            &mut report,
            "persist.recovery_snapshot_us_mean",
            registry,
            "stardust_recovery_snapshot_ns",
        );
        if let Some(rr) = &recovery_registry {
            set_mean_us(
                &mut report,
                "persist.recovery_journal_us_mean",
                rr,
                "stardust_persist_recovery_ns",
            );
        }
        // The ack's blocking path as the client sees it: generator lag,
        // then the pipelined round trip, which holds the server's request
        // time. `AppendOk` is sent once `try_submit` admits the frame; the
        // WAL write and fsync follow on the shard worker, off this path.
        let path = lag.quantile(0.5) as f64 + calls.quantile(0.5) as f64;
        let path_ratio = ratio(path, acks.merged().quantile(0.5) as f64);
        report.set("trace.ack_path_ratio", path_ratio, "ratio");
        report.note(format!(
            "traced ack path: stages sum to {path_ratio:.2}x the median ack latency \
             (tolerance ±{PATH_TOLERANCE}); server request time is {:.2} of the client round trip",
            ratio(server_ns, calls.quantile(0.5) as f64)
        ));
        if (path_ratio - 1.0).abs() > PATH_TOLERANCE {
            report.note("FLAG: traced ack-path stages do not account for the median".into());
        }
        protocol_replay(&mut report, &tape, plan.total());
        let reference = audit::reference(&spec, &tape, plan.total(), SHARDS)?;
        report.set("core.unified.ns_per_value", reference.ns_per_value, "ns/value");
        report.set(
            "baseline.single_thread_values_per_s",
            ratio(1e9, reference.ns_per_value),
            "values/s",
        );
        replay::core_and_index(&mut report, &spec, &tape, plan.total());
        report.spans = spans;
    }
    Ok(report)
}

/// The workload's frames through the wire codec: encode every request,
/// then time frame parsing plus `Request::decode`, and `AppendOk`
/// encoding.
fn protocol_replay(report: &mut Report, tape: &Tape, ticks: usize) {
    let n = ticks.min(20_000);
    let wire: Vec<Vec<u8>> = (0..n)
        .map(|t| encode_frame(&Request::Append { items: frame(tape, t, t % TENANTS) }.encode()))
        .collect();
    let started = Instant::now();
    let mut decoded = 0usize;
    for bytes in &wire {
        if let FrameParse::Frame { consumed } = parse_frame(bytes, u32::MAX) {
            if let Ok(Request::Append { items }) =
                Request::decode(&bytes[FRAME_HEADER_LEN..consumed])
            {
                decoded += items.len();
            }
        }
    }
    let decode_ns = started.elapsed().as_nanos() as f64 / n as f64;
    assert_eq!(decoded, n * tape.streams / TENANTS, "every replayed frame decodes");
    let per = (tape.streams / TENANTS) as u32;
    let started = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..n {
        bytes += encode_frame(&Reply::AppendOk { appended: per }.encode()).len();
    }
    let encode_ns = started.elapsed().as_nanos() as f64 / n as f64;
    std::hint::black_box(bytes);
    report.set("protocol.request_decode_ns_per_frame", decode_ns, "ns");
    report.set("protocol.reply_encode_ns_per_frame", encode_ns, "ns");
}
