//! Benchmark-side measurement: exact percentiles over raw samples, an
//! open-loop schedule, a `/proc/self/statm` resident-set sampler, and
//! the in-memory span recorder of the traced run.

use std::time::{Duration, Instant};

/// Raw timing samples in nanoseconds. Percentiles are exact
/// (nearest-rank over the sorted samples), never bucket edges.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn push_since(&mut self, from: Instant, to: Instant) {
        self.0.push(nanos(to.saturating_duration_since(from)));
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `q` in `[0, 1]`, in nanoseconds; 0 when
    /// there are no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e3
    }

    /// Samples strictly above the `q` percentile: the support behind a
    /// reported tail percentile.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.0.iter().filter(|&&v| v > cut).count()
    }
}

/// Samples split into the segments of a phase, with the CPU time the
/// host stole from the machine during each segment. Figures are taken
/// over the quieter half of the segments (see [`quiet_median`]).
#[derive(Debug, Clone)]
pub struct Segmented {
    samples: Vec<Samples>,
    steal: Vec<u64>,
}

impl Segmented {
    pub fn new(segments: usize) -> Self {
        Segmented { samples: vec![Samples::default(); segments], steal: vec![0; segments] }
    }

    pub fn push(&mut self, seg: usize, ns: u64) {
        self.samples[seg].push(ns);
    }

    pub fn extend_segment(&mut self, seg: usize, samples: Samples) {
        self.samples[seg].extend(samples);
    }

    pub fn set_steal(&mut self, seg: usize, ticks: u64) {
        self.steal[seg] = ticks;
    }

    /// The segments' `q` percentiles, in µs, reduced by [`quiet_median`].
    pub fn quiet_quantile_us(&self, q: f64) -> f64 {
        let per: Vec<f64> = self.samples.iter().map(|s| s.quantile_us(q)).collect();
        quiet_median(&per, &self.steal)
    }

    /// Each segment's `q` percentile in µs, rounded, for the run notes.
    pub fn per_segment_us(&self, q: f64) -> Vec<u64> {
        self.samples.iter().map(|s| s.quantile_us(q).round() as u64).collect()
    }

    /// Fewest samples beyond the `q` percentile in any segment: the
    /// support behind each segment's tail figure.
    pub fn min_beyond(&self, q: f64) -> usize {
        self.samples.iter().map(|s| s.beyond(q)).min().unwrap_or(0)
    }

    pub fn len(&self) -> usize {
        self.samples.iter().map(Samples::len).sum()
    }

    pub fn steal(&self) -> &[u64] {
        &self.steal
    }

    pub fn merged(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.samples {
            all.extend(s.clone());
        }
        all
    }
}

/// The median of per-segment figures over the segments in which the
/// host stole no more CPU time than in the median segment: at least
/// half of them, and all of them when every segment saw the same steal
/// (bare metal, or a kernel without the column). On a shared VM, steal
/// arrives in bursts of a second or so and stalls every thread for up
/// to ~10 ms; a figure taken over all segments measured the neighbours
/// as much as the program.
pub fn quiet_median(values: &[f64], steal: &[u64]) -> f64 {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let cut = sorted[(sorted.len() - 1) / 2];
    let quiet: Vec<f64> =
        values.iter().zip(steal).filter(|&(_, &s)| s <= cut).map(|(&v, _)| v).collect();
    median(&quiet)
}

/// CPU time the hypervisor has stolen from this machine, in clock ticks
/// summed over CPUs (the `steal` column of `/proc/stat`; 0 where the
/// kernel does not report it).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Median of a non-empty slice of `f64`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fixed open-loop schedule: item `k` is due at `start + k / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn new(start: Instant, per_second: f64) -> Self {
        Schedule { start, period: Duration::from_secs_f64(1.0 / per_second) }
    }

    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period.mul_f64(k as f64)
    }

    /// Sleeps until `due`; returns at once when already late. No
    /// spinning: on a 2-core machine a spinning generator would take a
    /// core from the system it measures, so the sleep's wake-up delay
    /// shows up as generator lag instead.
    pub fn wait_until(due: Instant) {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

/// Resident set size of this process in MiB, from `/proc/self/statm`
/// (std only; `None` where the file does not exist).
pub fn rss_mb() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    // statm counts pages; every Linux target this runs on uses 4 KiB.
    Some(pages * 4096.0 / (1024.0 * 1024.0))
}

/// The kernel's high-water mark of this process's resident set in MiB
/// (`VmHWM` in `/proc/self/status`; std only). Exact, where a sampler
/// would miss short peaks such as a buffer's reallocation.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One recorded span. `start`/`end` are nanoseconds since the tracer's
/// epoch; `req` is the tick or frame number the span serves.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

/// Per-thread span buffer. Spans stay in memory until the run ends;
/// a disabled tracer records nothing and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    /// Ids are `thread_tag << 24 | n`, unique across the run's tracers.
    next: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool, thread_tag: u32) -> Self {
        Tracer { epoch, enabled, next: thread_tag << 24, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        let at = |t: Instant| nanos(t.saturating_duration_since(self.epoch));
        self.spans.push(Span { id: self.next, parent, name, req, start: at(start), end: at(end) });
        self.next
    }
}

/// Self time of each span: its duration minus the union of the
/// intervals its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    use std::collections::HashMap;
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.name, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// Self-time samples of every span called `name`.
pub fn self_time_samples(spans: &[Span], name: &str) -> Samples {
    let mut out = Samples::default();
    for (n, t) in self_times(spans) {
        if n == name {
            out.push(t);
        }
    }
    out
}

/// Writes spans as JSON lines to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.req, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), 50);
        assert_eq!(s.quantile(0.99), 99);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.beyond(0.99), 1);
    }

    #[test]
    fn quiet_median_keeps_ties_and_drops_stolen_segments() {
        // Equal steal everywhere: every segment counts, late ones too.
        assert_eq!(quiet_median(&[1.0, 2.0, 3.0, 4.0, 5.0], &[0; 5]), 3.0);
        // The two most-stolen segments are dropped.
        assert_eq!(quiet_median(&[1.0, 2.0, 3.0, 90.0, 99.0], &[0, 1, 0, 7, 9]), 2.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |id, parent, start, end| Span { id, parent, name: "x", req: 0, start, end };
        // Parent 0..100; children 10..30 and 20..50 overlap → 40 covered.
        let spans = [mk(1, None, 0, 100), mk(2, Some(1), 10, 30), mk(3, Some(1), 20, 50)];
        let st = self_times(&spans);
        assert_eq!(st[0].1, 60);
        assert_eq!(st[1].1, 20);
    }
}
