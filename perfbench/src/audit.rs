//! Output checks: every run compares what the system produced against
//! a single-threaded reference over the same inputs. A mismatch fails
//! the run.

use std::time::Instant;

use stardust_core::stream::StreamId;
use stardust_core::unified::Event;
use stardust_runtime::MonitorSpec;

use crate::inputs::{mix, Tape};

/// An order-independent digest of an event multiset: the count per
/// class plus two wrapping sums of independent 64-bit mixes of each
/// event's exact bits. Equal multisets give equal digests; any changed,
/// missing or extra event changes it, short of a 128-bit collision.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub aggregate: u64,
    pub trend: u64,
    pub correlation: u64,
    sum_a: u64,
    sum_b: u64,
}

impl Digest {
    pub fn add(&mut self, e: &Event) {
        let words: [u64; 6] = match e {
            Event::Aggregate { stream, alarm } => {
                self.aggregate += 1;
                [
                    1 << 32 | u64::from(*stream),
                    alarm.window as u64,
                    alarm.time,
                    alarm.upper_bound.to_bits(),
                    alarm.true_value.to_bits(),
                    u64::from(alarm.is_true_alarm),
                ]
            }
            Event::Trend(m) => {
                self.trend += 1;
                [
                    2 << 32 | u64::from(m.stream),
                    u64::from(m.pattern),
                    m.time,
                    m.distance.to_bits(),
                    0,
                    0,
                ]
            }
            Event::Correlation(p) => {
                self.correlation += 1;
                [
                    3 << 32 | u64::from(p.a),
                    u64::from(p.b),
                    p.time,
                    p.time_other,
                    p.feature_distance.to_bits(),
                    p.correlation.map_or(u64::MAX, f64::to_bits),
                ]
            }
        };
        let (mut a, mut b) = (0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344u64);
        for w in words {
            a = mix(a ^ w);
            b = mix(b.rotate_left(17) ^ w ^ 0xA409_3822_299F_31D0);
        }
        self.sum_a = self.sum_a.wrapping_add(a);
        self.sum_b = self.sum_b.wrapping_add(b);
    }

    pub fn events(&self) -> u64 {
        self.aggregate + self.trend + self.correlation
    }
}

/// What a single-threaded `UnifiedMonitor` makes of ticks `0..ticks`.
pub struct Reference {
    /// Digest of the events a sharded runtime pushes under
    /// `stream mod shards` placement: every aggregate and trend event,
    /// and the correlation pairs whose streams share a shard.
    pub pushed: Digest,
    /// Wall time of the replay per value, in nanoseconds.
    pub ns_per_value: f64,
    /// Linear-scan correlated pairs at the last tick (correlation class
    /// only).
    pub pairs: Vec<(StreamId, StreamId, f64)>,
    /// Composed interval of every `(stream, window)` at the last tick
    /// (aggregate class only), stream-major.
    pub intervals: Vec<Option<(f64, f64)>>,
}

pub fn reference(
    spec: &MonitorSpec,
    tape: &Tape,
    ticks: usize,
    shards: usize,
) -> Result<Reference, String> {
    let mut monitor =
        spec.build(tape.streams).map_err(|e| e.to_string())?.ok_or("spec builds no monitor")?;
    let mut pushed = Digest::default();
    let mut events = Vec::new();
    let started = Instant::now();
    for t in 0..ticks {
        for s in 0..tape.streams {
            monitor.append_into(s as StreamId, tape.value(t, s), &mut events);
        }
        for e in events.drain(..) {
            if let Event::Correlation(p) = &e {
                if p.a as usize % shards != p.b as usize % shards {
                    continue;
                }
            }
            pushed.add(&e);
        }
    }
    let ns_per_value = started.elapsed().as_nanos() as f64 / (ticks * tape.streams) as f64;
    let pairs = monitor
        .correlation_monitor()
        .map(|c| c.linear_scan_pairs(ticks as u64 - 1))
        .unwrap_or_default();
    let mut intervals = Vec::new();
    if let Some(agg) = &spec.aggregate {
        for s in 0..tape.streams {
            let m = monitor.aggregate_monitor(s as StreamId).ok_or("aggregate monitor missing")?;
            for w in &agg.windows {
                intervals.push(m.window_interval(w.window));
            }
        }
    }
    Ok(Reference { pushed, ns_per_value, pairs, intervals })
}

/// The events a run delivered must be exactly the reference's.
pub fn check_events(what: &str, got: &Digest, want: &Digest) -> Result<(), String> {
    if got != want {
        return Err(format!(
            "{what}: event sets differ (got {} aggregate / {} trend / {} correlation, \
             reference {} / {} / {}{})",
            got.aggregate,
            got.trend,
            got.correlation,
            want.aggregate,
            want.trend,
            want.correlation,
            if got.events() == want.events() { "; same counts, different events" } else { "" }
        ));
    }
    Ok(())
}

/// The pulled cross-shard answer must equal the linear-scan oracle:
/// no false dismissals and nothing extra.
pub fn check_pairs(
    got: &[(StreamId, StreamId, f64)],
    want: &[(StreamId, StreamId, f64)],
) -> Result<(), String> {
    let key = |p: &(StreamId, StreamId, f64)| (p.0, p.1);
    let dismissed = want.iter().filter(|w| !got.iter().any(|g| key(g) == key(w))).count();
    let extra = got.iter().filter(|g| !want.iter().any(|w| key(g) == key(w))).count();
    if dismissed > 0 || extra > 0 {
        return Err(format!(
            "correlated_pairs: {dismissed} false dismissal(s), {extra} pair(s) not in the \
             linear-scan oracle ({} reported, {} expected)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

pub fn check_intervals(
    what: &str,
    got: &[Option<(f64, f64)>],
    want: &[Option<(f64, f64)>],
) -> Result<(), String> {
    if got != want {
        let i = got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
        return Err(format!(
            "{what}: aggregate interval #{i} differs ({} answers, {} expected)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{agg_spec, burst_tape, trend_corr_spec, walk_tape};

    fn digest(events: &[Event]) -> Digest {
        let mut d = Digest::default();
        events.iter().for_each(|e| d.add(e));
        d
    }

    /// The checks must fire on a perturbed reference, or a passing run
    /// proves nothing.
    #[test]
    fn perturbed_reference_fails_the_event_check() {
        let tape = burst_tape(7, 16, 1500);
        let spec = agg_spec(&tape, 2.0);
        let mut monitor = spec.build(tape.streams).unwrap().unwrap();
        let mut events = Vec::new();
        for t in 0..tape.ticks {
            for s in 0..tape.streams {
                monitor.append_into(s as StreamId, tape.value(t, s), &mut events);
            }
        }
        assert!(events.len() > 2, "the fixture raises alerts");
        let r = reference(&spec, &tape, tape.ticks, 2).unwrap();
        assert_eq!(digest(&events), r.pushed, "digest matches the reference");
        let mut reversed = events.clone();
        reversed.reverse();
        check_events("reordered delivery", &digest(&reversed), &r.pushed).unwrap();

        let dropped = &events[1..];
        assert!(check_events("dropped", &digest(dropped), &r.pushed).is_err());
        let mut doubled = events.clone();
        doubled[0] = doubled[1].clone();
        assert!(check_events("duplicated", &digest(&doubled), &r.pushed).is_err());
        let mut shifted = events.clone();
        if let Event::Aggregate { alarm, .. } = &mut shifted[0] {
            alarm.time += 1;
        }
        assert!(check_events("shifted", &digest(&shifted), &r.pushed).is_err());

        let mut bent = r.intervals.clone();
        bent[0] = bent[0].map(|(lo, hi)| (lo, hi + 1.0));
        assert!(check_intervals("bent", &r.intervals, &bent).is_err());
    }

    #[test]
    fn perturbed_oracle_fails_the_pair_check() {
        let tape = walk_tape(11, 12, 1200);
        let spec = trend_corr_spec(&tape);
        let r = reference(&spec, &tape, tape.ticks, 2).unwrap();
        check_pairs(&r.pairs, &r.pairs).unwrap();
        let mut more = r.pairs.clone();
        more.push((98, 99, 0.0));
        assert!(check_pairs(&r.pairs, &more).is_err(), "a dismissed pair must fail");
        assert!(check_pairs(&more, &r.pairs).is_err(), "an extra pair must fail");
    }
}
