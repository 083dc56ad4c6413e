#![allow(missing_docs)]
//! Query-latency microbenchmarks: one-time pattern queries (Algorithms 3
//! and 4), continuous trend probes, a correlation detection round, and
//! the per-class cost of one `UnifiedMonitor::append_into`.

use criterion::{criterion_group, criterion_main, Criterion};
use stardust_core::config::{Config, UpdatePolicy};
use stardust_core::engine::Stardust;
use stardust_core::normalize::correlation_to_distance;
use stardust_core::query::aggregate::WindowSpec;
use stardust_core::query::pattern::{self, PatternQuery};
use stardust_core::query::trend::TrendMonitor;
use stardust_core::transform::TransformKind;
use stardust_core::unified::UnifiedMonitor;
use stardust_datagen::{burst_series, random_walk_streams, BurstParams};

const W: usize = 16;
const LEVELS: usize = 5;
const M: usize = 16;
const N_ITEMS: usize = 1500;

fn engines() -> (Stardust, Stardust, Vec<Vec<f64>>) {
    let data = random_walk_streams(11, M, N_ITEMS);
    let r_max = data.iter().flatten().fold(1.0f64, |a, &b| a.max(b.abs()));
    let mut online_cfg = Config::batch(W, LEVELS, 4, r_max).with_history(512);
    online_cfg.update = UpdatePolicy::Online;
    online_cfg.box_capacity = 16;
    let mut online = Stardust::new(online_cfg, M);
    let batch_cfg = Config::batch(W, LEVELS, 4, r_max).with_history(512);
    let mut batch = Stardust::new(batch_cfg, M);
    for i in 0..N_ITEMS {
        for (s, col) in data.iter().enumerate() {
            online.append(s as u32, col[i]);
            batch.append(s as u32, col[i]);
        }
    }
    (online, batch, data)
}

fn bench_queries(c: &mut Criterion) {
    let (online, batch, data) = engines();
    let mut group = c.benchmark_group("pattern_query");
    for len in [48usize, 112, 240] {
        let q = PatternQuery { sequence: data[0][N_ITEMS - len..].to_vec(), radius: 0.02 };
        group.bench_function(format!("online_len{len}"), |b| {
            b.iter(|| pattern::query_online(&online, &q).expect("valid"))
        });
        group.bench_function(format!("batch_len{len}"), |b| {
            b.iter(|| pattern::query_batch(&batch, &q).expect("valid"))
        });
    }
    group.bench_function("nearest_k10", |b| {
        let seq = &data[1][N_ITEMS - 112..];
        b.iter(|| pattern::nearest_online(&online, seq, 10).expect("valid"))
    });
    group.finish();

    // Trend probe: per-arrival cost with a registered pattern database.
    let mut group = c.benchmark_group("trend_probe");
    for n_patterns in [8usize, 64] {
        group.bench_function(format!("arrival_{n_patterns}_patterns"), |b| {
            let mut cfg = Config::batch(W, 4, 4, 200.0).with_history(256);
            cfg.update = UpdatePolicy::Online;
            cfg.box_capacity = 8;
            let mut mon = TrendMonitor::new(cfg, 1);
            for p in 0..n_patterns {
                let pat: Vec<f64> =
                    (0..48).map(|i| 50.0 + ((i + p) as f64 * 0.37).sin() * 10.0).collect();
                mon.register(pat, 0.02).expect("valid pattern");
            }
            let stream = &data[2];
            let mut i = 0usize;
            b.iter(|| {
                let out = mon.append(0, stream[i % N_ITEMS]);
                i += 1;
                out
            })
        });
    }
    group.finish();
}

/// One `UnifiedMonitor::append_into` per iteration with a single query
/// class enabled, in the trend-corr / agg-burst benchmark geometry (W = 16,
/// L = 3, f = 4, c = 4): the per-class apply layer (summarizer update plus
/// check/verify) without the runtime around it.
fn bench_monitor_append(c: &mut Criterion) {
    const BASE: usize = 16;
    const STREAMS: usize = 32;
    const TICKS: usize = 2048;
    const WARM_TICKS: usize = 256;
    let walks = random_walk_streams(5, STREAMS, TICKS);
    let bursts: Vec<Vec<f64>> =
        (0..STREAMS).map(|s| burst_series(s as u64, TICKS, &BurstParams::default()).0).collect();
    let r_max = walks.iter().flatten().fold(1.0f64, |a, &b| a.max(b.abs()));
    let builder = || UnifiedMonitor::builder(BASE, 3, STREAMS, r_max);
    let mut trend = builder().trends(4, 4).build();
    for (s, at) in [(1usize, 100usize), (6, 400), (13, 700)] {
        trend.register_trend(walks[s][at..at + 2 * BASE].to_vec(), 0.005).expect("decomposable");
    }
    // Background rate 2 per tick: alarms fire inside bursts only.
    let specs = [BASE, 2 * BASE, 4 * BASE]
        .map(|w| WindowSpec { window: w, threshold: 3.0 * w as f64 })
        .to_vec();
    let classes = [
        ("trend", trend, &walks),
        ("sum_aggregate", builder().aggregates(TransformKind::Sum, specs, 4).build(), &bursts),
        ("correlation", builder().correlations(4, correlation_to_distance(0.9)).build(), &walks),
    ];

    let mut group = c.benchmark_group("monitor_append");
    for (name, mut mon, data) in classes {
        group.bench_function(name, |b| {
            let mut out = Vec::new();
            for t in 0..WARM_TICKS {
                for (s, col) in data.iter().enumerate() {
                    mon.append_into(s as u32, col[t], &mut out);
                }
            }
            let mut k = WARM_TICKS * STREAMS;
            b.iter(|| {
                let (t, s) = (k / STREAMS % TICKS, k % STREAMS);
                k += 1;
                out.clear();
                mon.append_into(s as u32, data[s][t], &mut out);
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_queries, bench_monitor_append
}
criterion_main!(benches);
