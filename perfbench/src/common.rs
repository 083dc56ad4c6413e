//! Run parameters, phase sizing and the metric report shared by every
//! workload runner.

use std::collections::BTreeMap;
use std::path::PathBuf;

use stardust_telemetry::{HistogramSnapshot, Registry};

use crate::inputs::{Workload, TRAIN_TICKS};
use crate::measure::Span;

/// Share of `--seconds` spent in closed-loop segments; the open loop
/// takes the rest.
pub const CLOSED_SHARE: f64 = 0.5;
/// Equal segments of each timed phase; a run's figure is taken over the
/// quieter of them (see `measure::quiet_median`).
pub const SEGMENTS: usize = 20;
/// Spare set-ups per run; `setup_s` is the median over them and the
/// set-up the run uses. Where they run is each runner's choice: an
/// in-process set-up (0.07-0.3 ms) follows the host's scheduling of
/// thread start-up, a served one (2-20 ms) the host disk.
pub const SETUP_REPS: usize = 160;
/// Poll interval of the bench thread that drains events.
pub const DRAIN_POLL_US: u64 = 100;
/// A run whose generator started sends later than this at p99 is
/// flagged as behind schedule.
pub const SCHED_LAG_FLAG_US: f64 = 1_000.0;
/// Traced blocking-path stages must sum to within this share of the
/// traced median latency they explain.
pub const PATH_TOLERANCE: f64 = 0.5;

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Working directory of the run's WAL directories, removed at the end.
    pub work_dir: PathBuf,
}

/// Tick layout of one run: `warm` untimed ticks, then [`SEGMENTS`]
/// rounds of one closed-loop segment followed by one open-loop segment.
/// Alternating spreads the closed loop over the whole run: the host's
/// speed shifts by 20-50% for a few seconds at a time, and a closed
/// phase of a few seconds in one piece caught such a shift whole on
/// some runs and not on others.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm: usize,
    /// Ticks per closed-loop segment.
    pub closed: usize,
    /// Ticks per open-loop segment.
    pub open: usize,
}

impl Plan {
    pub fn new(w: Workload, seconds: f64) -> Self {
        let per = seconds / SEGMENTS as f64;
        let closed = (w.closed_ticks_per_s() * per * CLOSED_SHARE).ceil() as usize;
        let open = (w.open_ticks_per_s() * per * (1.0 - CLOSED_SHARE)).ceil() as usize;
        Plan { warm: TRAIN_TICKS + 64, closed: closed.max(16), open: open.max(16) }
    }

    pub fn closed_range(&self, r: usize) -> std::ops::Range<usize> {
        let lo = self.warm + r * (self.closed + self.open);
        lo..lo + self.closed
    }

    pub fn open_range(&self, r: usize) -> std::ops::Range<usize> {
        let lo = self.closed_range(r).end;
        lo..lo + self.open
    }

    /// The open-loop segment and offset of `tick`, if it is open-loop.
    pub fn open_slot(&self, tick: usize) -> Option<(usize, usize)> {
        let off = tick.checked_sub(self.warm)?;
        let (r, k) = (off / (self.closed + self.open), off % (self.closed + self.open));
        (r < SEGMENTS && k >= self.closed).then(|| (r, k - self.closed))
    }

    /// Open-loop seconds per segment at `w`'s schedule.
    pub fn open_secs(&self, w: Workload) -> f64 {
        self.open as f64 / w.open_ticks_per_s()
    }

    pub fn total(&self) -> usize {
        self.warm + SEGMENTS * (self.closed + self.open)
    }
}

/// Metrics by name with units, human-readable notes (sample counts,
/// flags), the failure accounting and the traced spans of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn counter(registry: &Registry, name: &str) -> f64 {
    registry.counter(name, "").get() as f64
}

/// Exact mean of a registry histogram (sum ÷ count); its 2× buckets
/// make quantiles too coarse to report. `None` when nothing recorded a
/// sample, so a layer that stopped reporting shows as a missing metric.
pub fn hist_mean(registry: &Registry, name: &str) -> Option<f64> {
    registry.histogram(name, "").snapshot().mean()
}

/// Sets `metric` to a registry histogram's mean, converted from ns to
/// µs, when the histogram has samples.
pub fn set_mean_us(report: &mut Report, metric: &'static str, registry: &Registry, name: &str) {
    if let Some(ns) = hist_mean(registry, name) {
        report.set(metric, ns / 1e3, "us");
    }
}

/// The samples a registry histogram gained after `before`.
pub fn hist_since(
    registry: &Registry,
    name: &str,
    before: &HistogramSnapshot,
) -> HistogramSnapshot {
    let after = registry.histogram(name, "").snapshot();
    HistogramSnapshot { count: after.count - before.count, sum: after.sum - before.sum, ..after }
}

/// Registry histogram of every submitted batch's latency, submit to
/// drained by its shard.
pub const BATCH_LATENCY: &str = "stardust_runtime_batch_latency_ns";
