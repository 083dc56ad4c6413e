//! Single-threaded replays of a workload's generated inputs through the
//! core and index crates' public types, for the `core.*` and `index.*`
//! per-layer rows of the traced run.

use std::time::Instant;

use stardust_core::config::Config;
use stardust_core::stream::StreamId;
use stardust_core::summarizer::{StreamSummary, SummaryEvent};
use stardust_core::transform::TransformKind;
use stardust_index::{RStarTree, Rect};
use stardust_runtime::MonitorSpec;

use crate::common::{ratio, Report};
use crate::inputs::{Tape, BASE_WINDOW, LEVELS};

/// Values replayed per timed layer: enough for a steady per-value
/// figure, small enough to keep the traced run short.
const REPLAY_VALUES: usize = 400_000;

fn replay_ticks(tape: &Tape, ticks: usize) -> usize {
    (REPLAY_VALUES / tape.streams).clamp(1, ticks)
}

/// Nanoseconds per value of a monitor with only one class of `spec`.
fn class_ns_per_value(spec: &MonitorSpec, tape: &Tape, ticks: usize) -> f64 {
    let mut monitor = spec.build(tape.streams).expect("spec builds").expect("one class on");
    let mut events = Vec::new();
    let started = Instant::now();
    for t in 0..ticks {
        for s in 0..tape.streams {
            monitor.append_into(s as StreamId, tape.value(t, s), &mut events);
        }
        events.clear();
    }
    started.elapsed().as_nanos() as f64 / (ticks * tape.streams) as f64
}

pub fn core_and_index(report: &mut Report, spec: &MonitorSpec, tape: &Tape, ticks: usize) {
    let ticks = replay_ticks(tape, ticks);
    let only = |agg: bool, trend: bool, corr: bool| MonitorSpec {
        aggregate: spec.aggregate.clone().filter(|_| agg),
        trend: spec.trend.clone().filter(|_| trend),
        correlation: spec.correlation.clone().filter(|_| corr),
        ..spec.clone()
    };
    if spec.aggregate.is_some() {
        let ns = class_ns_per_value(&only(true, false, false), tape, ticks);
        report.set("core.aggregate.ns_per_value", ns, "ns/value");
    }
    if spec.trend.is_some() {
        let ns = class_ns_per_value(&only(false, true, false), tape, ticks);
        report.set("core.trend.ns_per_value", ns, "ns/value");
    }
    if spec.correlation.is_some() {
        let ns = class_ns_per_value(&only(false, false, true), tape, ticks);
        report.set("core.correlation.ns_per_value", ns, "ns/value");
    }

    // The summarizer (Algorithm 1) alone, with the configuration of the
    // workload's costliest class: the batch DWT features of trend and
    // correlation, else the online SUM features of the aggregate class.
    let indexed = spec.trend.is_some() || spec.correlation.is_some();
    let config = if indexed {
        Config::batch(BASE_WINDOW, LEVELS, 4, spec.r_max)
    } else {
        let c = spec.aggregate.as_ref().map_or(4, |a| a.box_capacity);
        Config::online(TransformKind::Sum, BASE_WINDOW, LEVELS, c)
    };
    let mut summaries: Vec<StreamSummary> =
        (0..tape.streams).map(|_| StreamSummary::new(config.clone())).collect();
    let mut lifecycle = Vec::new();
    let mut events = Vec::new();
    let started = Instant::now();
    for t in 0..ticks {
        for (s, summary) in summaries.iter_mut().enumerate() {
            summary.push(tape.value(t, s), &mut events);
            if indexed {
                lifecycle.extend(events.drain(..).map(|e| (s as u32, e)));
            } else {
                events.clear();
            }
        }
    }
    let ns = started.elapsed().as_nanos() as f64 / (ticks * tape.streams) as f64;
    report.set("core.summarizer.ns_per_value", ns, "ns/value");
    if indexed {
        index_replay(report, &lifecycle);
    }
}

/// Drives one R*-tree per level with the summarizers' sealed and
/// retired MBRs, searching with each sealed MBR as it is inserted.
fn index_replay(report: &mut Report, lifecycle: &[(u32, SummaryEvent)]) {
    type Key = (u32, u64);
    let rect = |mbr: &stardust_core::mbr::FeatureMbr| {
        Rect::new(mbr.bounds.lo().to_vec(), mbr.bounds.hi().to_vec())
    };
    let mut trees: Vec<Option<RStarTree<Key>>> = (0..LEVELS).map(|_| None).collect();
    let (mut ins_ns, mut rem_ns, mut search_ns) = (0u128, 0u128, 0u128);
    let (mut inserts, mut removes, mut searches) = (0u64, 0u64, 0u64);
    let mut hits = 0usize;
    for (stream, event) in lifecycle {
        match event {
            SummaryEvent::Sealed { level, mbr } => {
                let r = rect(mbr);
                let tree = trees[*level].get_or_insert_with(|| RStarTree::new(r.dims()));
                let t0 = Instant::now();
                hits += tree.collect_intersecting(&r).len();
                let t1 = Instant::now();
                tree.insert(r, (*stream, mbr.first));
                let t2 = Instant::now();
                search_ns += (t1 - t0).as_nanos();
                ins_ns += (t2 - t1).as_nanos();
                searches += 1;
                inserts += 1;
            }
            SummaryEvent::Retired { level, mbr } => {
                let r = rect(mbr);
                let Some(tree) = trees[*level].as_mut() else { continue };
                let t0 = Instant::now();
                let found = tree.remove(&r, &(*stream, mbr.first));
                rem_ns += t0.elapsed().as_nanos();
                assert!(found, "a retired MBR was sealed and indexed before");
                removes += 1;
            }
        }
    }
    std::hint::black_box(hits);
    let counters = trees
        .iter()
        .flatten()
        .map(|t| t.counters())
        .fold(Default::default(), stardust_index::TreeCounters::merged);
    report.set("index.insert_ns_per_op", ratio(ins_ns as f64, inserts as f64), "ns");
    report.set("index.remove_ns_per_op", ratio(rem_ns as f64, removes as f64), "ns");
    report.set("index.search_ns_per_op", ratio(search_ns as f64, searches as f64), "ns");
    report.set(
        "index.node_visits_per_search",
        ratio(counters.node_visits as f64, searches as f64),
        "ratio",
    );
    report.set("index.splits", counters.splits as f64, "count");
    report.set("index.reinserted", counters.reinserted_entries as f64, "count");
}
