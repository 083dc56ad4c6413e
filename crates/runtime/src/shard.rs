//! The per-shard worker: drains batches into the [`UnifiedMonitor`]s of
//! the stream *groups* it currently owns, remaps local stream ids back
//! to global ones, and answers scatter-gather queries in queue order.
//! The worker also executes its half of the live-migration protocol
//! (sealing groups out, adopting groups in) and hosts the
//! fault-injection hooks and the crash-reporting [`Board`] the
//! supervisor watches.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stardust_core::query::aggregate::AlarmStats;
use stardust_core::query::correlation::CorrelationStats;
use stardust_core::query::trend::TrendStats;
use stardust_core::sketch::{BlockSketch, SketchDelta};
use stardust_core::stream::{StreamId, Time};
use stardust_core::unified::{Event, UnifiedMonitor};

use crate::fault::{FaultKind, FaultPlan, MigrationStep};
use crate::queue::BoundedQueue;
use crate::routing::Routing;
use crate::snapshot::ShardRecovery;
use crate::stats::ShardCounters;
use crate::telemetry::RuntimeTelemetry;

/// State of one stream group: owned by exactly one worker at any
/// instant, moved across workers by the migration protocol and rebuilt
/// from its journal after a crash.
pub(crate) struct GroupState {
    /// Local streams in this group.
    pub n_locals: usize,
    /// The group's monitor (`None` when the spec builds none).
    pub monitor: Option<UnifiedMonitor>,
    /// The group's crash-recovery journal.
    pub recovery: Arc<ShardRecovery>,
    /// Lifetime appends applied to this group (including rejected
    /// non-finite samples — they are journaled and tick the clock).
    pub appends: u64,
    /// Lifetime events emitted for this group.
    pub emitted: u64,
    /// Sealed-block frontier at the last sketch publication.
    /// Deliberately reset to `0` on restore/adopt: the re-publication
    /// it causes is absorbed idempotently by the board.
    pub last_shipped: u64,
}

/// Messages a shard's bounded queue carries. Queries and migration
/// control ride the same queue as batches, so each observes every batch
/// submitted before it (per-shard sequential consistency) — the FIFO is
/// what makes the freeze/handoff protocol exact.
pub(crate) enum ShardMsg {
    /// One group's local-id value batch plus its submission instant.
    Batch(usize, Vec<(StreamId, f64)>, Instant),
    /// A query against one group and the channel to answer on (tagged
    /// with the group id).
    Query(usize, QueryRequest, Sender<(usize, QueryReply)>),
    /// Migration marker: seal the group out of this worker. Everything
    /// for the group already admitted is ahead of this message; nothing
    /// for it will be admitted behind (the route froze first).
    MigrateOut(usize),
    /// Migration payload: install the group's rebuilt state. Queued on
    /// the destination *before* the route promotes, so it precedes any
    /// post-cutover batch.
    Adopt(usize, Box<GroupState>),
    /// Drain nothing further; reply channelless, exit the loop.
    Shutdown,
}

/// A scatter-gather query, expressed in shard-local stream ids (the
/// runtime translates global ids before sending).
#[derive(Debug, Clone)]
pub(crate) enum QueryRequest {
    /// Current composed interval of one monitored aggregate window.
    AggregateInterval {
        /// Local stream id.
        stream: StreamId,
        /// Monitored window size.
        window: usize,
    },
    /// Cumulative per-class counters.
    ClassStats,
    /// Phase 1 of the cross-shard correlation query: every local
    /// stream's correlation clock, so the collector can pick the global
    /// verification instant `t* = min` over all streams.
    CorrClock,
    /// Phase 3: ground-truth same-shard pairs at the global instant `t`,
    /// plus the raw windows ending at `t` for the listed local streams
    /// (the collector verifies cross-shard candidates with them).
    CorrVerify {
        /// Global verification instant.
        t: Time,
        /// Local ids whose raw windows the collector needs.
        windows_for: Vec<StreamId>,
    },
}

/// A shard's answer to a [`QueryRequest`]. Stream ids are already
/// remapped to global ids.
#[derive(Debug, Clone)]
pub(crate) enum QueryReply {
    /// `AggregateInterval` answer.
    AggregateInterval(Option<(f64, f64)>),
    /// `ClassStats` answer.
    ClassStats(ClassStats),
    /// `CorrClock` answer: one clock per local stream (empty when this
    /// shard runs no correlation monitor).
    CorrClock(Vec<Option<Time>>),
    /// `CorrVerify` answer.
    CorrVerify {
        /// Same-shard pairs at `t` (global ids, unsorted).
        pairs: Vec<(StreamId, StreamId, f64)>,
        /// Requested raw windows (global ids; `None` when the window
        /// ending at `t` is no longer in the stream's history).
        windows: Vec<(StreamId, Option<Vec<f64>>)>,
    },
    /// The worker does not own the queried group (it migrated after the
    /// query was routed). The gatherer re-resolves and re-sends.
    Declined,
}

/// Collector-side mirror of every stream's sliding-window sketch, keyed
/// by **global** stream id. Workers publish deltas on a cadence;
/// absorption is idempotent (deltas carry absolute block indices), so a
/// recovered worker re-shipping already-seen blocks never double-counts
/// — the exactly-once argument for the exchange is the delta frontier,
/// not delivery counting.
pub(crate) struct SketchBoard {
    slots: Mutex<Vec<Option<BlockSketch>>>,
    /// Sketch publications absorbed (one per stream per cadence firing).
    pub exchanges: std::sync::atomic::AtomicU64,
    /// Cross-shard pairs that survived the sketch prune and went to
    /// exact verification.
    pub candidates: std::sync::atomic::AtomicU64,
    /// Cross-shard pairs dismissed by the sketch lower bound.
    pub pruned: std::sync::atomic::AtomicU64,
    /// Cross-shard candidates confirmed by exact verification.
    pub confirmed: std::sync::atomic::AtomicU64,
}

impl SketchBoard {
    pub(crate) fn new(n_streams: usize) -> Self {
        SketchBoard {
            slots: Mutex::new((0..n_streams).map(|_| None).collect()),
            exchanges: std::sync::atomic::AtomicU64::new(0),
            candidates: std::sync::atomic::AtomicU64::new(0),
            pruned: std::sync::atomic::AtomicU64::new(0),
            confirmed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Absorbs one stream's delta into its mirror (created on first
    /// publication with the shipped geometry).
    pub(crate) fn publish(
        &self,
        stream: StreamId,
        window: usize,
        block: usize,
        delta: &SketchDelta,
    ) {
        let mut slots = self.slots.lock().expect("sketch board poisoned");
        slots[stream as usize].get_or_insert_with(|| BlockSketch::new(window, block)).absorb(delta);
        self.exchanges.fetch_add(1, Ordering::Relaxed);
    }

    /// A clone of every mirror, for the collector's prune pass.
    pub(crate) fn mirrors(&self) -> Vec<Option<BlockSketch>> {
        self.slots.lock().expect("sketch board poisoned").clone()
    }
}

/// Cumulative counters of all three query classes, mergeable across
/// shards by field-wise addition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Aggregate (burst/volatility) counters.
    pub aggregate: AlarmStats,
    /// Trend counters.
    pub trend: TrendStats,
    /// Correlation counters.
    pub correlation: CorrelationStats,
}

impl ClassStats {
    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &ClassStats) {
        self.aggregate.checks += other.aggregate.checks;
        self.aggregate.candidates += other.aggregate.candidates;
        self.aggregate.true_alarms += other.aggregate.true_alarms;
        self.trend.candidates += other.trend.candidates;
        self.trend.matches += other.trend.matches;
        self.correlation.reported += other.correlation.reported;
        self.correlation.true_pairs += other.correlation.true_pairs;
    }
}

/// Local stream id → global stream id for group `shard` of `n_shards`
/// groups (the parameter names predate elastic routing: partitioning is
/// by *group*, and `stream % G` / `stream / G` are its two halves).
fn global_id(shard: usize, n_shards: usize, local: StreamId) -> StreamId {
    local * n_shards as StreamId + shard as StreamId
}

/// Frontier-driven sketch publication, shared by the live worker loop
/// and the recovery replay: once the slowest local stream has sealed
/// `cadence` new blocks past `last_shipped`, every local sketch ships
/// to the collector board (absorbed idempotently — re-publication after
/// a crash restore is a no-op on the mirrors). The recovery replay must
/// drive this too: batches a dead worker drained but never applied are
/// replayed from the journal rather than re-popped, and any cadence
/// boundary they cross has to fire exactly as it would have on the live
/// path.
pub(crate) fn publish_sketches_if_due(
    monitor: Option<&UnifiedMonitor>,
    shard: usize,
    n_shards: usize,
    sketches: &SketchBoard,
    cadence: u64,
    last_shipped: &mut u64,
    telemetry: &RuntimeTelemetry,
) {
    if cadence == 0 {
        return;
    }
    let Some(corr) = monitor.and_then(|m| m.correlation_monitor()) else {
        return;
    };
    let frontier = (0..corr.n_streams() as StreamId)
        .map(|s| {
            let sk = corr.sketch(s);
            sk.end_time().map_or(0, |t| (t + 1) / sk.block() as u64)
        })
        .min()
        .unwrap_or(0);
    if frontier < last_shipped.saturating_add(cadence) {
        return;
    }
    let start = Instant::now();
    for local in 0..corr.n_streams() as StreamId {
        let sk = corr.sketch(local);
        sketches.publish(global_id(shard, n_shards, local), sk.window(), sk.block(), &sk.delta());
    }
    *last_shipped = frontier;
    let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    telemetry.sketch_exchange.observe(ns);
    telemetry.sketch_exchanges.inc();
}

/// Rewrites an event's shard-local stream ids back to global ids.
pub(crate) fn remap_event(shard: usize, n_shards: usize, ev: Event) -> Event {
    match ev {
        Event::Aggregate { stream, alarm } => {
            Event::Aggregate { stream: global_id(shard, n_shards, stream), alarm }
        }
        Event::Trend(mut m) => {
            m.stream = global_id(shard, n_shards, m.stream);
            Event::Trend(m)
        }
        Event::Correlation(mut p) => {
            p.a = global_id(shard, n_shards, p.a);
            p.b = global_id(shard, n_shards, p.b);
            Event::Correlation(p)
        }
    }
}

/// What the board records for each shard.
struct BoardState {
    /// Shards whose workers died and await restoration, in death order.
    dead: Vec<usize>,
    /// `clean[s]`: shard `s`'s worker exited its loop normally.
    clean: Vec<bool>,
    /// `failed[s]`: the supervisor gave up on shard `s` (its queue is
    /// closed, producers see `Disconnected` or `RespawnStorm`).
    failed: Vec<bool>,
    /// Set once the runtime wants the supervisor gone.
    shutdown: bool,
}

/// Shared bulletin board between workers (reporting their own fate via
/// [`DeathNotice`]), the supervisor (waiting for dead shards), and the
/// runtime's shutdown path (waiting for every shard to settle).
pub(crate) struct Board {
    state: Mutex<BoardState>,
    cv: Condvar,
}

impl Board {
    pub(crate) fn new(n_shards: usize) -> Self {
        Board {
            state: Mutex::new(BoardState {
                dead: Vec::new(),
                clean: vec![false; n_shards],
                failed: vec![false; n_shards],
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn report_clean(&self, shard: usize) {
        self.state.lock().expect("board poisoned").clean[shard] = true;
        self.cv.notify_all();
    }

    fn report_dead(&self, shard: usize) {
        self.state.lock().expect("board poisoned").dead.push(shard);
        self.cv.notify_all();
    }

    /// Marks a shard unrecoverable (the supervisor could not respawn a
    /// worker for it).
    pub(crate) fn mark_failed(&self, shard: usize) {
        self.state.lock().expect("board poisoned").failed[shard] = true;
        self.cv.notify_all();
    }

    /// Supervisor side: blocks until a shard dies (returning its id) or
    /// shutdown begins with no deaths pending (returning `None`).
    /// Pending deaths win over the shutdown flag so no shard is
    /// abandoned mid-restore.
    pub(crate) fn next_dead(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("board poisoned");
        loop {
            if let Some(shard) = st.dead.pop() {
                return Some(shard);
            }
            if st.shutdown {
                return None;
            }
            st = self.cv.wait(st).expect("board poisoned");
        }
    }

    /// Shutdown path: blocks until every shard either exited cleanly or
    /// failed terminally. While this waits the supervisor is still
    /// restoring crashed shards, so a shard that dies with `Shutdown`
    /// still queued gets one more worker to drain it.
    pub(crate) fn wait_all_settled(&self) {
        let mut st = self.state.lock().expect("board poisoned");
        while !st.clean.iter().zip(&st.failed).all(|(c, f)| *c || *f) {
            st = self.cv.wait(st).expect("board poisoned");
        }
    }

    /// Tells [`Self::next_dead`] to return once its backlog is empty.
    pub(crate) fn begin_shutdown(&self) {
        self.state.lock().expect("board poisoned").shutdown = true;
        self.cv.notify_all();
    }
}

/// Reports a worker's fate to the [`Board`] from `Drop`, so a panic
/// anywhere in the worker loop is reported on unwind. The loop flips
/// `clean` to `true` on its orderly exits; any other unwinding is a
/// death.
pub(crate) struct DeathNotice {
    pub shard: usize,
    pub board: Arc<Board>,
    pub clean: bool,
}

impl Drop for DeathNotice {
    fn drop(&mut self) {
        if self.clean {
            self.board.report_clean(self.shard);
        } else {
            self.board.report_dead(self.shard);
        }
    }
}

/// Most batches one drain may move into a commit group. Bounds the
/// coalesced WAL write (and the grouped event send) regardless of queue
/// capacity; a longer backlog simply commits as consecutive groups.
const MAX_GROUP_BATCHES: usize = 256;

/// Everything one worker thread owns: the slot identity plus the state
/// of every stream group currently routed to it.
pub(crate) struct Worker {
    /// Worker slot index (stable across restarts; *not* a group id).
    pub slot: usize,
    /// Total stream groups in the runtime (the routing modulus).
    pub n_groups: usize,
    /// Groups this worker currently owns, keyed by group id.
    pub groups: BTreeMap<usize, GroupState>,
    pub inbox: Arc<BoundedQueue<ShardMsg>>,
    pub events: Sender<Vec<Event>>,
    pub counters: Arc<ShardCounters>,
    /// Injected faults; `None` costs nothing on the append path.
    pub faults: Option<Arc<FaultPlan>>,
    /// Appends applied across every group this slot currently owns,
    /// over the slot's lifetime — the deterministic fault clock.
    /// Migration moves a group's contribution with the group.
    pub processed: u64,
    /// Snapshot cadence in appends (per group); `0` never snapshots.
    pub snapshot_every: u64,
    /// Collector-side sketch mirrors this worker publishes to.
    pub sketches: Arc<SketchBoard>,
    /// Publish sketches every this many sealed blocks of the slowest
    /// local stream; `0` disables the exchange entirely.
    pub sketch_cadence: u64,
    /// Shared routing table (this worker seals groups through it).
    pub routing: Arc<Routing>,
    /// Runtime-level metric handles; detached when telemetry is off.
    pub telemetry: RuntimeTelemetry,
}

impl Worker {
    fn answer(&self, group: usize, req: QueryRequest) -> QueryReply {
        let Some(gs) = self.groups.get(&group) else {
            // The group migrated off between routing and delivery; the
            // gatherer re-resolves and retries on the new owner.
            return QueryReply::Declined;
        };
        let global = |local: StreamId| global_id(group, self.n_groups, local);
        let Some(monitor) = &gs.monitor else {
            return match req {
                QueryRequest::AggregateInterval { .. } => QueryReply::AggregateInterval(None),
                QueryRequest::ClassStats => QueryReply::ClassStats(ClassStats::default()),
                QueryRequest::CorrClock => QueryReply::CorrClock(Vec::new()),
                QueryRequest::CorrVerify { windows_for, .. } => QueryReply::CorrVerify {
                    pairs: Vec::new(),
                    windows: windows_for.iter().map(|&s| (global(s), None)).collect(),
                },
            };
        };
        match req {
            QueryRequest::AggregateInterval { stream, window } => QueryReply::AggregateInterval(
                monitor.aggregate_monitor(stream).and_then(|m| m.window_interval(window)),
            ),
            QueryRequest::ClassStats => {
                let mut stats = ClassStats::default();
                // Aggregate stats live per stream; trend/correlation are
                // monitor-wide.
                for local in 0..gs.n_locals as StreamId {
                    let Some(m) = monitor.aggregate_monitor(local) else { break };
                    let s = m.stats();
                    stats.aggregate.checks += s.checks;
                    stats.aggregate.candidates += s.candidates;
                    stats.aggregate.true_alarms += s.true_alarms;
                }
                if let Some(t) = monitor.trend_monitor() {
                    stats.trend = t.stats();
                }
                if let Some(c) = monitor.correlation_monitor() {
                    stats.correlation = c.stats();
                }
                QueryReply::ClassStats(stats)
            }
            QueryRequest::CorrClock => {
                let clocks = monitor
                    .correlation_monitor()
                    .map(|corr| {
                        (0..corr.n_streams() as StreamId).map(|s| corr.summary(s).now()).collect()
                    })
                    .unwrap_or_default();
                QueryReply::CorrClock(clocks)
            }
            QueryRequest::CorrVerify { t, windows_for } => {
                let Some(corr) = monitor.correlation_monitor() else {
                    return QueryReply::CorrVerify {
                        pairs: Vec::new(),
                        windows: windows_for.iter().map(|&s| (global(s), None)).collect(),
                    };
                };
                let pairs = corr
                    .linear_scan_pairs(t)
                    .into_iter()
                    .map(|(a, b, c)| (global(a), global(b), c))
                    .collect();
                let n = corr.window();
                let windows = windows_for
                    .iter()
                    .map(|&local| (global(local), corr.summary(local).history().window(t, n)))
                    .collect();
                QueryReply::CorrVerify { pairs, windows }
            }
        }
    }

    /// Fires a one-shot migration fault for `group` at `step`, if the
    /// plan scheduled one. Stalls happen in place; panics unwind
    /// through [`DeathNotice`] like any injected kill.
    fn fire_migration(&self, group: usize, step: MigrationStep) {
        if let Some(plan) = &self.faults {
            match plan.fire_migration(group, step) {
                Some(FaultKind::Panic) => {
                    panic!("injected migration fault: group {group} killed at {step:?}")
                }
                Some(FaultKind::Stall(pause)) => std::thread::sleep(pause),
                _ => {}
            }
        }
    }

    /// Seals group `group` out of this worker: every batch admitted for
    /// it is already applied (the marker is FIFO-behind them and the
    /// frozen route admits no more), its events are acked, so the
    /// journal is the group's complete, quiescent state. The group
    /// leaves this slot's counters and fault clock with it.
    ///
    /// Idempotent: a supervisor re-pushed marker for an already-sealed
    /// group finds nothing to do (`routing.seal` is a no-op too).
    fn seal_group(&mut self, group: usize) {
        if !self.groups.contains_key(&group) {
            let _ = self.routing.seal(group, self.slot);
            return;
        }
        self.fire_migration(group, MigrationStep::BeforeSeal);
        let gs = self.groups.remove(&group).expect("checked present");
        self.counters.appends.fetch_sub(gs.appends, Ordering::Relaxed);
        self.counters.events.fetch_sub(gs.emitted, Ordering::Relaxed);
        self.processed -= gs.appends;
        self.routing.seal(group, self.slot);
        self.fire_migration(group, MigrationStep::AfterSeal);
    }

    /// Installs a migrated group's rebuilt state. If a crash-respawn of
    /// this slot already rebuilt the group from its journal (the route
    /// said `Handed{to: me}` or had promoted), the in-flight payload is
    /// stale — the journal-derived copy wins and the payload is
    /// dropped, counters untouched.
    fn adopt_group(&mut self, group: usize, state: GroupState) {
        if self.groups.contains_key(&group) {
            return;
        }
        self.fire_migration(group, MigrationStep::BeforeAdopt);
        self.counters.appends.fetch_add(state.appends, Ordering::Relaxed);
        self.counters.events.fetch_add(state.emitted, Ordering::Relaxed);
        self.processed += state.appends;
        self.groups.insert(group, state);
        self.fire_migration(group, MigrationStep::AfterAdopt);
    }

    /// The worker loop: drain message runs until `Shutdown` or the
    /// queue is closed and empty, whichever comes first. A contiguous
    /// run of batches commits as one group ([`Self::commit_group`]);
    /// queries, migration control, and shutdown break runs and are
    /// handled singly, at their queue position — they are never
    /// buffered in worker-local state, so a crash mid-group cannot lose
    /// a query reply or a protocol step (journaled batches are the only
    /// messages the recovery protocol can replay). `notice` reports the
    /// exit (or a panic's unwind) to the board.
    pub fn run(mut self, notice: &mut DeathNotice) {
        let mut pending_delay: Option<Duration> = None;
        // Buffers reused across commit groups: the drained run, the
        // per-batch monitor output, and the run's remapped events.
        // Steady state allocates nothing per run — the one exception
        // is the exact-sized Vec that hands a non-empty run's events
        // to the collector (ownership crosses the channel).
        let mut msgs: Vec<ShardMsg> = Vec::new();
        let mut event_buf: Vec<Event> = Vec::new();
        let mut run_events: Vec<Event> = Vec::new();
        loop {
            if let Some(pause) = pending_delay.take() {
                std::thread::sleep(pause);
            }
            msgs.clear();
            let n = self
                .inbox
                .drain_into(&mut msgs, MAX_GROUP_BATCHES, |m| matches!(m, ShardMsg::Batch(..)));
            if n == 0 {
                notice.clean = true;
                return;
            }
            if matches!(msgs[0], ShardMsg::Batch(..)) {
                self.commit_group(&msgs, &mut event_buf, &mut run_events, &mut pending_delay);
            } else {
                match msgs.pop().expect("drained run is non-empty") {
                    ShardMsg::Query(group, req, reply) => {
                        let _ = reply.send((group, self.answer(group, req)));
                    }
                    ShardMsg::MigrateOut(group) => self.seal_group(group),
                    ShardMsg::Adopt(group, state) => self.adopt_group(group, *state),
                    ShardMsg::Shutdown => {
                        notice.clean = true;
                        return;
                    }
                    ShardMsg::Batch(..) => unreachable!("batch heads commit as groups"),
                }
            }
        }
    }

    /// Commits one drained run of batches as a group commit: the
    /// queue's high-water mark was sampled at the pre-drain depth, the
    /// whole run is journaled — bucketed per stream group, each group's
    /// sub-run under one coalesced WAL write — before any batch is
    /// applied, and the run's events leave in one channel send followed
    /// by one durable ack per event-bearing group.
    ///
    /// Crash safety: a panic anywhere past the journal step loses
    /// nothing — every batch of the run is already journaled, so the
    /// recovery replay regenerates exactly the journaled prefix's
    /// events, suppressing the ones this worker already sent (none
    /// mid-run: the send is a single all-or-nothing handoff after the
    /// last batch applied).
    fn commit_group(
        &mut self,
        msgs: &[ShardMsg],
        event_buf: &mut Vec<Event>,
        run_events: &mut Vec<Event>,
        pending_delay: &mut Option<Duration>,
    ) {
        // Only batches count toward queue depth; the drain predicate
        // guarantees the run is all batches.
        self.counters.note_drained(msgs.len());
        let batch_group = |m: &ShardMsg| match m {
            ShardMsg::Batch(group, ..) => *group,
            _ => unreachable!("commit groups contain only batches"),
        };
        // Distinct groups in the run, in first-appearance order. A run
        // rarely spans more than a couple of groups, so a linear scan
        // beats any map.
        let mut touched: Vec<usize> = Vec::new();
        for msg in msgs {
            let g = batch_group(msg);
            if !touched.contains(&g) {
                touched.push(g);
            }
        }
        // Write-ahead for the whole run, before anything is applied:
        // each group's sub-run goes to that group's journal in order.
        {
            let _span = self.telemetry.journal.span();
            for &g in &touched {
                let gs = self.groups.get(&g).expect("routed batch for unowned group");
                let batches = msgs.iter().filter_map(move |m| match m {
                    ShardMsg::Batch(bg, items, _) if *bg == g => Some(items.as_slice()),
                    _ => None,
                });
                gs.recovery.journal_group(batches);
            }
        }
        self.telemetry.group_size.observe(msgs.len() as u64);
        let mut rejected_total = 0u64;
        // Events emitted per group within this run (parallel to
        // `touched` is overkill — runs are short, scan again).
        let mut emitted_by: Vec<(usize, u64)> = Vec::new();
        for msg in msgs {
            let ShardMsg::Batch(group, items, submitted) = msg else {
                unreachable!("commit groups contain only batches")
            };
            let group = *group;
            let gs = self.groups.get_mut(&group).expect("routed batch for unowned group");
            let mut rejected = 0u64;
            if let Some(monitor) = &mut gs.monitor {
                event_buf.clear();
                for &(local, value) in items {
                    self.processed += 1;
                    if let Some(plan) = &self.faults {
                        match plan.fire(self.slot, self.processed) {
                            Some(FaultKind::Panic) => panic!(
                                "injected fault: shard {} killed at append {}",
                                self.slot, self.processed
                            ),
                            Some(FaultKind::Stall(pause)) => std::thread::sleep(pause),
                            Some(FaultKind::DelayDrain(pause)) => {
                                *pending_delay = Some(pause);
                            }
                            None => {}
                        }
                    }
                    // Non-finite samples are rejected at the append
                    // boundary (the monitor guards identically, so a
                    // journaled NaN replays as the same no-op). The
                    // fault clock above still ticks for them.
                    if !value.is_finite() {
                        rejected += 1;
                        continue;
                    }
                    monitor.append_into(local, value, event_buf);
                }
                // Collect this batch's events behind the run's; they
                // ship once the whole run has applied, in batch order.
                let n_new = event_buf.len() as u64;
                if n_new > 0 {
                    match emitted_by.iter_mut().find(|(g, _)| *g == group) {
                        Some((_, n)) => *n += n_new,
                        None => emitted_by.push((group, n_new)),
                    }
                }
                for ev in event_buf.drain(..) {
                    run_events.push(remap_event(group, self.n_groups, ev));
                }
            }
            gs.appends += items.len() as u64;
            self.counters.appends.fetch_add(items.len() as u64, Ordering::Relaxed);
            rejected_total += rejected;
            let ns = submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.counters.note_batch(ns);
            self.telemetry.batch_latency.observe(ns);
            // Cadence is frontier-driven and board absorption is
            // idempotent, so publishing inside the run keeps the
            // exchange on the same per-batch schedule as before.
            publish_sketches_if_due(
                gs.monitor.as_ref(),
                group,
                self.n_groups,
                &self.sketches,
                self.sketch_cadence,
                &mut gs.last_shipped,
                &self.telemetry,
            );
        }
        if rejected_total > 0 {
            self.counters.rejected.fetch_add(rejected_total, Ordering::Relaxed);
            self.telemetry.rejected.add(rejected_total);
        }
        let emitted = run_events.len() as u64;
        if emitted > 0 {
            // One send per event-bearing run. `split_off(0)` moves the
            // events into an exact-sized Vec for the collector while the
            // buffer keeps its capacity for the next run. A send error
            // means the runtime dropped its receiver (shutdown already
            // under way); keep draining so producers unblock.
            let _ = self.events.send(run_events.split_off(0));
            self.counters.events.fetch_add(emitted, Ordering::Relaxed);
            for &(group, n) in &emitted_by {
                let gs = self.groups.get_mut(&group).expect("group applied above");
                gs.emitted += n;
                // The events are out; ack the cumulative count to the
                // durable WAL so a process-level recovery suppresses
                // exactly these.
                gs.recovery.note_emitted_n(n);
                gs.recovery.ack_emitted();
            }
        }
        // Snapshot only at run boundaries: the journal suffix holds
        // whole batches from the write-ahead step, and a snapshot must
        // not cover appends that have not been applied yet.
        if self.snapshot_every > 0 {
            for &g in &touched {
                let gs = self.groups.get(&g).expect("group applied above");
                if gs.recovery.suffix_len() as u64 >= self.snapshot_every {
                    let _span = self.telemetry.snapshot.span();
                    gs.recovery.record_snapshot(gs.monitor.as_ref().map(|m| m.snapshot()));
                }
            }
        }
    }
}
