//! Bit-identity pin for the per-value monitor path.
//!
//! A fixed-seed mix of random walks and burst series runs through a
//! [`UnifiedMonitor`] with aggregates (SUM and SPREAD), trends and
//! correlations enabled, at box capacity 1 and 4. Every emitted event —
//! in emission order, every `f64` field by its bit pattern — and the final
//! `snapshot()` bytes are folded into FNV-1a digests that must equal the
//! hard-coded values below.
//!
//! The expected digests were recorded before the per-value path was made
//! allocation-free, so they pin that the rewrite changed no event, no
//! distance and no snapshot byte. A change here means persisted WAL and
//! snapshot directories written by earlier builds would replay
//! differently: treat a mismatch as a regression, not as a value to
//! refresh.

use stardust::core::normalize::correlation_to_distance;
use stardust::core::query::aggregate::WindowSpec;
use stardust::core::transform::TransformKind;
use stardust::core::unified::{Event, UnifiedMonitor};
use stardust::datagen::burst::{burst_series, BurstParams};
use stardust::datagen::random_walk_streams;

const BASE_WINDOW: usize = 8;
const LEVELS: usize = 4;
const TICKS: usize = 1200;

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn hash_event(h: &mut Fnv, ev: &Event) {
    match ev {
        Event::Aggregate { stream, alarm } => {
            h.u64(1);
            h.u64(u64::from(*stream));
            h.u64(alarm.window as u64);
            h.u64(alarm.time);
            h.f64(alarm.upper_bound);
            h.f64(alarm.true_value);
            h.u64(u64::from(alarm.is_true_alarm));
        }
        Event::Trend(m) => {
            h.u64(2);
            h.u64(u64::from(m.stream));
            h.u64(u64::from(m.pattern));
            h.u64(m.time);
            h.f64(m.distance);
        }
        Event::Correlation(p) => {
            h.u64(3);
            h.u64(u64::from(p.a));
            h.u64(u64::from(p.b));
            h.u64(p.time);
            h.u64(p.time_other);
            h.f64(p.feature_distance);
            match p.correlation {
                None => h.u64(0),
                Some(c) => {
                    h.u64(1);
                    h.f64(c);
                }
            }
        }
    }
}

/// Three random walks and three burst series, `TICKS` values each.
fn streams() -> Vec<Vec<f64>> {
    let mut data = random_walk_streams(2005, 3, TICKS);
    for s in 0..3u64 {
        data.push(burst_series(77 + s, TICKS, &BurstParams::default()).0);
    }
    data
}

#[derive(Debug, PartialEq, Eq)]
struct Digest {
    events: u64,
    snapshot: u64,
    counts: [usize; 3],
}

fn run(kind: TransformKind, capacity: usize) -> Digest {
    let data = streams();
    let r_max = data.iter().flatten().fold(1.0f64, |m, v| m.max(v.abs()));
    let specs = match kind {
        TransformKind::Sum => vec![
            WindowSpec { window: 8, threshold: 60.0 },
            WindowSpec { window: 20, threshold: 150.0 },
            WindowSpec { window: 40, threshold: 300.0 },
        ],
        _ => vec![
            WindowSpec { window: 8, threshold: 5.0 },
            WindowSpec { window: 20, threshold: 8.0 },
            WindowSpec { window: 40, threshold: 10.0 },
        ],
    };
    let mut monitor = UnifiedMonitor::builder(BASE_WINDOW, LEVELS, data.len(), r_max)
        .aggregates(kind, specs, capacity)
        .trends(4, capacity)
        .correlations(4, correlation_to_distance(0.9))
        .build();
    // Patterns cut from the data itself (so matches occur), at two
    // lengths: 24 = W + 2W and 32 = 4W.
    for (s, at, len, radius) in [(0, 300, 24, 0.008), (1, 500, 32, 0.01), (4, 200, 24, 0.03)] {
        monitor.register_trend(data[s][at..at + len].to_vec(), radius).expect("decomposable");
    }
    let mut h = Fnv::new();
    let mut counts = [0usize; 3];
    let mut out = Vec::new();
    for t in 0..TICKS {
        for (s, column) in data.iter().enumerate() {
            out.clear();
            monitor.append_into(s as u32, column[t], &mut out);
            for ev in &out {
                counts[match ev {
                    Event::Aggregate { .. } => 0,
                    Event::Trend(_) => 1,
                    Event::Correlation(_) => 2,
                }] += 1;
                hash_event(&mut h, ev);
            }
        }
    }
    let mut snap = Fnv::new();
    snap.bytes(&monitor.snapshot());
    Digest { events: h.0, snapshot: snap.0, counts }
}

fn check(kind: TransformKind, capacity: usize, expected: Digest) {
    assert_eq!(run(kind, capacity), expected, "{kind:?} at box capacity {capacity}");
}

#[test]
fn sum_capacity_1() {
    check(
        TransformKind::Sum,
        1,
        Digest {
            events: 92841740231164446,
            snapshot: 9385468471791600582,
            counts: [7993, 334, 270],
        },
    );
}

#[test]
fn sum_capacity_4() {
    check(
        TransformKind::Sum,
        4,
        Digest {
            events: 14406055214354904939,
            snapshot: 8920952352761115567,
            counts: [8049, 334, 270],
        },
    );
}

#[test]
fn spread_capacity_1() {
    check(
        TransformKind::Spread,
        1,
        Digest {
            events: 3422813739173532051,
            snapshot: 15199909012326765124,
            counts: [2124, 334, 270],
        },
    );
}

#[test]
fn spread_capacity_4() {
    check(
        TransformKind::Spread,
        4,
        Digest {
            events: 12580683713270528894,
            snapshot: 9508328743158876929,
            counts: [2334, 334, 270],
        },
    );
}
