//! Seeded workload inputs and the monitor specs that run over them.
//! Everything here is computed before any timing starts; the programs
//! under test only ever see the generated values.

use stardust_core::normalize::correlation_to_distance;
use stardust_core::query::aggregate::WindowSpec;
use stardust_core::stats::train_threshold;
use stardust_core::stream::StreamId;
use stardust_core::transform::TransformKind;
use stardust_datagen::{burst_series, BurstParams};
use stardust_runtime::{
    AggregateSpec, Batch, CorrelationSpec, MonitorSpec, TrendPattern, TrendSpec,
};

/// Scheduled requests per second beside the open loop, every workload.
pub const QUERIES_PER_S: f64 = 200.0;
/// Shards of every workload's runtime.
pub const SHARDS: usize = 2;
pub const BASE_WINDOW: usize = 16;
pub const LEVELS: usize = 3;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AggBurst,
    TrendCorr,
    ServedDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::AggBurst, Workload::TrendCorr, Workload::ServedDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AggBurst => "agg-burst",
            Workload::TrendCorr => "trend-corr",
            Workload::ServedDurable => "served-durable",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Streams monitored.
    pub fn streams(self) -> usize {
        match self {
            Workload::AggBurst => 256,
            Workload::TrendCorr => 32,
            Workload::ServedDurable => 128,
        }
    }

    /// Closed-loop ticks per second of measured time. Sized from the
    /// closed-loop rate on a 2-vCPU x86-64 VM so the closed phase
    /// lasts about its share of `--seconds`; the phase always replays
    /// exactly this many ticks, so the work per run is fixed.
    pub fn closed_ticks_per_s(self) -> f64 {
        match self {
            Workload::AggBurst => 8_800.0,
            Workload::TrendCorr => 16_000.0,
            Workload::ServedDurable => 10_000.0,
        }
    }

    /// Open-loop schedule in ticks per second: 12–18% of the closed-loop
    /// rate on the same 2-vCPU VM, where higher loads made the latency
    /// figures' run-to-run spread exceed the bounds.
    pub fn open_ticks_per_s(self) -> f64 {
        match self {
            Workload::AggBurst => 1_000.0,
            Workload::TrendCorr => 4_000.0,
            Workload::ServedDurable => 800.0,
        }
    }
}

/// One value per stream per tick, row-major. Burst counts are small
/// integers and stay `u16` until a batch is built, which keeps the
/// harness's own memory out of the resident-set figure.
pub enum Values {
    Counts(Vec<u16>),
    Reals(Vec<f64>),
}

pub struct Tape {
    pub streams: usize,
    pub ticks: usize,
    values: Values,
}

impl Tape {
    pub fn value(&self, tick: usize, stream: usize) -> f64 {
        let i = tick * self.streams + stream;
        match &self.values {
            Values::Counts(v) => f64::from(v[i]),
            Values::Reals(v) => v[i],
        }
    }

    /// The whole tick as one batch over global stream ids.
    pub fn batch(&self, tick: usize) -> Batch {
        (0..self.streams).map(|s| (s as StreamId, self.value(tick, s))).collect()
    }

    /// Streams `lo..hi` of one tick, renumbered from 0 (a tenant's
    /// local ids).
    pub fn slice(&self, tick: usize, lo: usize, hi: usize) -> Vec<(u32, f64)> {
        (lo..hi).map(|s| ((s - lo) as u32, self.value(tick, s))).collect()
    }

    pub fn column(&self, stream: usize, ticks: std::ops::Range<usize>) -> Vec<f64> {
        ticks.map(|t| self.value(t, stream)).collect()
    }
}

/// SplitMix64 step: derives independent per-stream seeds from the run
/// seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Burst parameters: a Poisson background with short showers, so
/// bursts are frequent enough for thousands of alerts per phase and no
/// single shower swamps a stream.
fn burst_params() -> BurstParams {
    BurstParams {
        background_rate: 2.0,
        bursts_per_kilo_tick: 1.0,
        min_duration: 8,
        duration_shape: 2.5,
        intensity: 4.0,
    }
}

/// Ticks of each stream used to train thresholds and cut patterns.
pub const TRAIN_TICKS: usize = 1024;

pub fn burst_tape(seed: u64, streams: usize, ticks: usize) -> Tape {
    let params = burst_params();
    let mut counts = vec![0u16; streams * ticks];
    for s in 0..streams {
        let (series, _) =
            burst_series(mix(seed ^ (s as u64).wrapping_mul(0xA24B_AED4)), ticks, &params);
        for (t, v) in series.into_iter().enumerate() {
            counts[t * streams + s] = u16::try_from(v as u64).expect("burst counts fit in u16");
        }
    }
    Tape { streams, ticks, values: Values::Counts(counts) }
}

/// Random walks, the paper's model, generated one stream at a time so
/// the harness never holds a second copy of the tape.
pub fn walk_tape(seed: u64, streams: usize, ticks: usize) -> Tape {
    let mut v = vec![0.0f64; streams * ticks];
    for s in 0..streams {
        let col =
            stardust_datagen::random_walk(mix(seed ^ (s as u64).wrapping_mul(0xA24B_AED4)), ticks);
        for (t, x) in col.into_iter().enumerate() {
            v[t * streams + s] = x;
        }
    }
    Tape { streams, ticks, values: Values::Reals(v) }
}

/// Seed of the streams the aggregate thresholds are trained on. Every
/// run seed shares the thresholds; only the monitored data varies.
pub const TRAIN_SEED: u64 = 0x5EED;

/// SUM at three window sizes, thresholds at μ+λσ of each window's sums
/// over the first [`TRAIN_TICKS`] ticks of `tape.streams` streams drawn
/// with [`TRAIN_SEED`]. Bursts are rare, so thresholds trained on each
/// seed's own prefix moved with the few bursts it held, and the alert
/// count (which the server keeps in memory) varied by half between seeds.
pub fn agg_spec(tape: &Tape, lambda: f64) -> MonitorSpec {
    let training = burst_tape(TRAIN_SEED, tape.streams, TRAIN_TICKS);
    let train: Vec<f64> =
        (0..training.streams).flat_map(|s| training.column(s, 0..TRAIN_TICKS)).collect();
    let windows = [BASE_WINDOW, 2 * BASE_WINDOW, 4 * BASE_WINDOW]
        .into_iter()
        .map(|window| {
            // Windows never straddle two training streams.
            let per_stream: Vec<f64> = train
                .chunks(TRAIN_TICKS)
                .flat_map(|c| c.windows(window).map(|w| w.iter().sum::<f64>()))
                .collect();
            let threshold = train_threshold(&per_stream, 1, lambda, |w| w[0])
                .expect("training prefix is longer than the window");
            WindowSpec { window, threshold }
        })
        .collect();
    MonitorSpec::new(BASE_WINDOW, LEVELS, r_max(tape)).with_aggregates(AggregateSpec {
        transform: TransformKind::Sum,
        windows,
        box_capacity: 4,
    })
}

/// Trend patterns cut from the training prefix of three streams, plus
/// the correlation class at a 0.9 minimum correlation.
pub fn trend_corr_spec(tape: &Tape) -> MonitorSpec {
    let len = 2 * BASE_WINDOW;
    let patterns = [(1usize, 100usize), (6, 400), (13, 700)]
        .into_iter()
        .map(|(s, at)| TrendPattern {
            sequence: tape.column(s % tape.streams, at..at + len),
            radius: 0.005,
        })
        .collect();
    MonitorSpec::new(BASE_WINDOW, LEVELS, r_max(tape))
        .with_trends(TrendSpec { coeffs: 4, box_capacity: 4, patterns })
        .with_correlations(CorrelationSpec { coeffs: 4, radius: correlation_to_distance(0.9) })
}

fn r_max(tape: &Tape) -> f64 {
    let mut m = 1.0f64;
    for t in 0..tape.ticks {
        for s in 0..tape.streams {
            m = m.max(tape.value(t, s).abs());
        }
    }
    m
}
