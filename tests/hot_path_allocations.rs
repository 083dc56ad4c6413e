//! Allocation census of the steady-state per-value monitor path.
//!
//! A counting global allocator wraps `System`; each query class is warmed
//! past its history horizon and then driven for at least 10k values that
//! emit no events. Trend and SUM/SPREAD aggregate monitors must make zero
//! heap allocations per value. Correlation owns the per-feature `Rect`
//! and log coordinates it inserts, and rebuilds its round index, so it is
//! held to a stated ceiling per W-aligned feature instead.
//!
//! A `GlobalAlloc` impl is `unsafe`; this file is the workspace's only
//! exception to the `unsafe_code` lint, and library code stays free of it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stardust::core::query::aggregate::WindowSpec;
use stardust::core::transform::TransformKind;
use stardust::core::unified::{Event, UnifiedMonitor};
use stardust::datagen::random_walk_streams;

/// Counts allocations (including reallocations) made by the current
/// thread, so concurrently running tests do not disturb each other.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees (valid, suitably aligned blocks that are
// freed only through this allocator) carry over unchanged; the counter is
// a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The benchmark's monitor geometry: W = 16, L = 3, f = 4, c = 4.
const BASE_WINDOW: usize = 16;
const LEVELS: usize = 3;
const STREAMS: usize = 4;
const WARM_TICKS: usize = 1_000;
const MEASURED_TICKS: usize = 3_000;

struct Census {
    values: u64,
    allocations: u64,
}

/// Warms `monitor` for `WARM_TICKS`, then counts the allocations made
/// while appending `MEASURED_TICKS` more rows. Asserts the measured phase
/// emitted no events, so the census covers only the monitor's own work.
fn census(monitor: &mut UnifiedMonitor, data: &[Vec<f64>]) -> Census {
    fn feed(
        monitor: &mut UnifiedMonitor,
        data: &[Vec<f64>],
        ticks: std::ops::Range<usize>,
        out: &mut Vec<Event>,
    ) {
        for t in ticks {
            for (s, column) in data.iter().enumerate() {
                monitor.append_into(s as u32, column[t], out);
            }
        }
    }
    let mut out: Vec<Event> = Vec::with_capacity(64);
    feed(monitor, data, 0..WARM_TICKS, &mut out);
    out.clear();
    let before = allocations();
    feed(monitor, data, WARM_TICKS..WARM_TICKS + MEASURED_TICKS, &mut out);
    let allocations = allocations() - before;
    assert!(out.is_empty(), "census phase must be event-free, got {:?}", &out[..1]);
    Census { values: (MEASURED_TICKS * data.len()) as u64, allocations }
}

fn walks() -> Vec<Vec<f64>> {
    random_walk_streams(13, STREAMS, WARM_TICKS + MEASURED_TICKS)
}

fn r_max(data: &[Vec<f64>]) -> f64 {
    data.iter().flatten().fold(1.0f64, |m, v| m.max(v.abs()))
}

fn aggregate_census(kind: TransformKind) -> Census {
    let data = walks();
    // Thresholds no window reaches: every check runs, none alarms.
    let specs = [16, 32, 64]
        .into_iter()
        .map(|window| WindowSpec { window, threshold: f64::INFINITY })
        .collect();
    let mut monitor = UnifiedMonitor::builder(BASE_WINDOW, LEVELS, STREAMS, r_max(&data))
        .aggregates(kind, specs, 4)
        .build();
    census(&mut monitor, &data)
}

#[test]
fn trend_path_is_allocation_free() {
    let data = walks();
    let mut monitor =
        UnifiedMonitor::builder(BASE_WINDOW, LEVELS, STREAMS, r_max(&data)).trends(4, 4).build();
    // Three 32-value patterns from an unrelated walk: the index is probed
    // on every value, but nothing matches.
    let source = random_walk_streams(99, 1, 200).remove(0);
    for at in [10, 70, 130] {
        monitor.register_trend(source[at..at + 32].to_vec(), 0.005).expect("decomposable");
    }
    let c = census(&mut monitor, &data);
    assert!(c.values >= 10_000);
    assert_eq!(c.allocations, 0, "trend: {} allocations over {} values", c.allocations, c.values);
}

#[test]
fn sum_aggregate_path_is_allocation_free() {
    let c = aggregate_census(TransformKind::Sum);
    assert!(c.values >= 10_000);
    assert_eq!(c.allocations, 0, "SUM: {} allocations over {} values", c.allocations, c.values);
}

#[test]
fn spread_aggregate_path_is_allocation_free() {
    let c = aggregate_census(TransformKind::Spread);
    assert!(c.values >= 10_000);
    assert_eq!(c.allocations, 0, "SPREAD: {} allocations over {} values", c.allocations, c.values);
}

/// Allocation ceiling per W-aligned correlation feature: the owned
/// coordinates (1), the `Rect` entering the index (2) and the log's copy
/// (1), the index insert itself, and the per-round index rebuild shared by
/// the round's features. Measured at 7.8 on this workload.
const CORRELATION_CEILING: u64 = 8;

#[test]
fn correlation_allocations_per_feature_are_bounded() {
    let data = walks();
    // A radius of 0 reports no pair between independent walks.
    let mut monitor = UnifiedMonitor::builder(BASE_WINDOW, LEVELS, STREAMS, r_max(&data))
        .correlations(4, 0.0)
        .build();
    let c = census(&mut monitor, &data);
    let features = c.values / BASE_WINDOW as u64;
    assert!(c.values >= 10_000);
    assert!(
        c.allocations <= CORRELATION_CEILING * features,
        "correlation: {} allocations over {features} features (ceiling {CORRELATION_CEILING} each)",
        c.allocations
    );
}
