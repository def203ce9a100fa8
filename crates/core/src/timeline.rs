//! The scheduler run loop: event-driven continuous batching over a
//! global per-device kernel timeline.
//!
//! [`TimelineServerSim::run_directed`] is the one request-level serving
//! loop in this crate, and [`TimelineServerSim`] the one scheduler type.
//! [`BatchedServerSim`](crate::BatchedServerSim) and
//! [`EventServerSim`](crate::EventServerSim) are other names for it.
//! [`TimelineServerSim::new`] takes any policy that converts into a
//! [`TimelineConfig`]:
//!
//! | policy | converts into |
//! |---|---|
//! | [`BatchConfig`] | `TimelineConfig::from(EventConfig::lockstep(batch))`: anchored lockstep rounds |
//! | [`EventConfig`] | the anchored policy: launches inside a co-batch window, the timeline only observes |
//! | [`TimelineConfig`] | itself, honesty features included |
//!
//! [`ServerSim`](crate::ServerSim) keeps its own short FIFO loop over
//! `Engine::run_with_deadline`; it is the independent reference the
//! batch-1 anchors compare against.
//!
//! # Execution model
//!
//! A launch groups every in-flight request ready within
//! [`EventConfig::window_secs`] of the earliest event and runs one TTS
//! iteration for the group (plan → gather → cost → commit). Admission,
//! shares, preemption, SLO sweeps, faults and directed cancels apply at
//! the pre-launch boundary. An infinite window makes each launch a
//! lockstep round; the `event_server` and `batch_server` module docs
//! describe the windowed and lockstep views. Launches run in
//! non-decreasing order (a device `floor` enforces it). KV reservations
//! release at the commit of a request's final iteration, at most one
//! iteration before its finish instant; the ledger never overcommits.
//!
//! The loop's state is one crate-private `LoopState`: the arrival
//! cursor and waiting queue, the paused runs, the launching group and
//! the rest of the in-flight set, the KV pool and host tier, the device
//! floor, the fault cursor, the directives, the device timeline, the
//! served records and the run counters. It owns its arrivals and
//! directives, so the fleet can keep one live state per device and step
//! it only as far as its router reads (`peek_anchor`). `run_directed` is
//! `LoopState::new`, a `while state.step()?.is_some() {}` loop and
//! `state.finish()`. The state is `Clone`: a copy taken between steps
//! finishes exactly as the original does. One `step` forms a co-batch
//! at the next anchor and runs its phases in order, each a method:
//!
//! 1. **boundary** — ingest due arrivals, land due prefix handoffs,
//!    sweep directed cancels and deadlines, admit, rebalance elastic
//!    shares and stretch bystanders for the admitted load;
//! 2. **preemption** — swap out runs that cannot progress;
//! 3. **decode** — the whole generation phase, or token-join chunks
//!    with mid-launch admission;
//! 4. **verifier cost** — gather and price the verifier sweeps;
//! 5. **commit** — charge the sweeps and find finished runs;
//! 6. **faults** — apply the plan's faults due at the launch;
//! 7. **completion** — seal finished runs, re-share, and return the
//!    survivors to the in-flight set.
//!
//! A boundary that forms no launch returns early, and `step` returns
//! `None` once every request is served. Otherwise it returns its read
//! horizon: the instant up to which it read the run's inputs (its
//! launch instant, or a launch's round end). Inputs that agree with
//! the current ones up to the latest read horizon take the same steps,
//! so `LoopState::rebase` swaps them into a live or copied state and the
//! run goes on from there; that is how the fleet resumes a device after
//! a routing edit instead of replaying it from t=0. Admission, shares
//! and the sweeps are `LoopState` methods in the `admission` module.
//!
//! Every launch lands on a [`DeviceTimeline`] as costed segments, which
//! it rolls up as it records. In anchored mode the timeline only
//! observes. Two honesty features,
//! set in [`TimelineTuning`], make it price what the iteration-granular
//! model gets for free:
//!
//! * **Retroactive contention** ([`TimelineTuning::contention`]): when
//!   a launch admits *new* device load (fresh arrivals or readmitted
//!   runs), every in-flight iteration it overlaps is stretched by the
//!   marginal co-batch slowdown over its remaining seconds
//!   ([`ftts_engine::RequestRun::contention_stretch`]), and the
//!   iteration's segment already on the timeline is stretched with it.
//!   Without it, a launch that overlaps a busy device counts the
//!   earlier iterations' load in its own price, but those iterations
//!   are never re-priced, so window=0 looks nearly as good as an oracle.
//! * **Token-granularity joins** ([`TimelineTuning::token_joins`]):
//!   the generation phase runs as chunked sub-iterations
//!   ([`ftts_engine::RequestRun::plan_decode_chunk`] /
//!   [`ftts_engine::RequestRun::apply_decode_chunk`]) capped at
//!   [`TimelineTuning::join_quantum`] tokens. All co-batched members
//!   synchronize at each chunk boundary (the wait books to the
//!   `join_wait` latency slice), arrivals due by the boundary admit
//!   *into the running launch* there, and the co-batch totals are
//!   re-derived every chunk — members that finish generation early
//!   stop taxing the survivors. Without it, an arrival during a long
//!   co-batched generation phase waits for the whole phase.
//!
//! # Golden anchors
//!
//! `crates/core/tests/golden.rs` freezes every anchor fixture's output
//! as a fingerprint. Each row was recorded from separate lockstep,
//! event-driven and timeline loops that agreed bit for bit, before the
//! three were folded into this one.
//!
//! # Granularity limits
//!
//! Faults, SLO sweeps, directed cancels and elastic share rebalances
//! stay at *launch* granularity even in token-join mode: they apply at
//! the pre-launch boundary (mid-launch admission may still shrink
//! shares through the shared admission probe). One iteration per
//! member per launch is preserved — chunking splits the iteration's
//! decode phase, not the TTS loop.

use std::rc::Rc;

use ftts_engine::{
    DecodeStatus, EngineError, RunPhase, StepStatus, VerifyCharge, VerifyChunk, Wait,
};
use ftts_kv::{HostTier, PoolBudget};
use ftts_metrics::TimelineOccupancy;
use ftts_search::SearchKind;
use ftts_workload::RequestArrival;

use crate::admission::{self, InFlight};
use crate::batch_server::{BatchConfig, BatchRun};
use crate::event_server::{EventConfig, PrewarmPrefix, RunDirectives};
use crate::faults::{FaultCursor, FaultPlan, LaunchFaults};
use crate::server::{ServedRequest, TtsServer};

/// What kind of kernel a timeline segment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Generator decode (one member's generation phase, or one decode
    /// chunk in token-join mode) — restore/offload transfers included.
    Decode,
    /// Verifier prefill sweep (fused or serialized, per launch).
    Verify,
    /// Preemption swap-out PCIe transfer.
    Swap,
}

/// An open decode segment: its request may still stretch it.
#[derive(Debug, Clone, Copy)]
struct Open {
    id: usize,
    /// Its position among the decode segments, in record order.
    seq: usize,
    start: f64,
    end: f64,
}

/// A sweep endpoint packed into one `u64`: the instant's bits shifted
/// left by one, with the low bit set for a segment start. Instants are
/// non-negative, so keys sort by instant, and at equal instants an end
/// (low bit clear) sorts before a start: back-to-back segments never
/// count as overlap.
fn endpoint(at: f64, start: bool) -> u64 {
    debug_assert!(at >= 0.0, "timeline instants are non-negative, got {at}");
    // The shift drops the sign bit: -0.0 packs (and sweeps) as 0.0, and
    // a negative instant would pack as its magnitude.
    (at.to_bits() << 1) | u64::from(start)
}

/// Sort the endpoint keys recorded since the last advance. They arrive
/// nearly in time order: a member's chunk start is recorded with its
/// previous chunk's end, so within a chunk round only the members' ends
/// and starts interleave. An insertion sort then moves each key a few
/// places; once it has moved more than four places per key, the general
/// sort finishes the job.
fn sort_recorded(keys: &mut [u64]) {
    let mut moves = 0;
    for i in 1..keys.len() {
        let key = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
        moves += i - j;
        if moves > 4 * keys.len() {
            keys.sort_unstable();
            return;
        }
    }
}

/// Merge the sorted `fresh` keys into the sorted `keys`, in place.
/// The merge runs from the back, so it moves only the keys above the
/// smallest fresh one: fresh keys that all sort after `keys` append.
fn merge_sorted(keys: &mut Vec<u64>, fresh: &[u64]) {
    let (mut i, mut j) = (keys.len(), fresh.len());
    keys.resize(i + j, 0);
    for k in (0..keys.len()).rev() {
        if j == 0 {
            break;
        }
        if i > 0 && keys[i - 1] > fresh[j - 1] {
            keys[k] = keys[i - 1];
            i -= 1;
        } else {
            keys[k] = fresh[j - 1];
            j -= 1;
        }
    }
}

/// The interval-union sweep over segment endpoints, in time order.
#[derive(Debug, Clone, Copy, Default)]
struct Sweep {
    depth: i32,
    max_depth: i32,
    open_at: f64,
    busy_secs: f64,
}

impl Sweep {
    /// Process sorted [`endpoint`] keys.
    fn run(&mut self, keys: &[u64]) {
        for &key in keys {
            let t = f64::from_bits(key >> 1);
            let d = if key & 1 == 1 { 1 } else { -1 };
            if self.depth == 0 && d > 0 {
                self.open_at = t;
            }
            self.depth += d;
            if self.depth == 0 {
                self.busy_secs += t - self.open_at;
            }
            self.max_depth = self.max_depth.max(self.depth);
        }
    }
}

/// The global per-device kernel timeline: every launch the scheduler
/// commits lands here as a costed segment on one shared clock, and the
/// timeline rolls its occupancy up as it records instead of storing
/// the segments.
///
/// A decode segment stays *open* until [`DeviceTimeline::close`]: until
/// then a later launch may retroactively [`stretch`](Self::stretch) it.
/// Verify and swap segments are closed as they are recorded. Per-kind
/// sums fold in record order, so the timeline holds the open segments,
/// the durations of the closed decode segments recorded after the
/// earliest open one, and the sweep endpoints that
/// [`DeviceTimeline::advance`] has not yet put behind every future
/// segment, each packed into one `u64`. A zero-length segment counts in
/// the span and the segment count but adds no sweep endpoints.
///
/// Swept endpoints are not removed one advance at a time: the sweep
/// moves an offset past them, and the buffer drops its swept prefix
/// only once that prefix is at least as long as what is left, so the
/// endpoints a drop moves are never more than the ones it drops.
#[derive(Debug, Clone)]
pub struct DeviceTimeline {
    recorded: usize,
    first: f64,
    last: f64,
    decode_secs: f64,
    verify_secs: f64,
    swap_secs: f64,
    stretch_secs: f64,
    /// The latest horizon passed to [`DeviceTimeline::advance`].
    horizon: f64,
    /// Decode segments recorded so far.
    decodes: usize,
    /// One duration per decode segment not yet folded, in record order,
    /// from the earliest open one on; an open segment's slot is filled
    /// when it closes.
    unfolded: std::collections::VecDeque<f64>,
    /// The open decode segments, in record order.
    open: Vec<Open>,
    /// Endpoints, sorted: those before `swept` were swept, the rest
    /// are not yet.
    pending: Vec<u64>,
    /// How many of `pending`'s endpoints were swept.
    swept: usize,
    /// Endpoints recorded since the last advance, unsorted.
    fresh: Vec<u64>,
    sweep: Sweep,
}

impl Default for DeviceTimeline {
    fn default() -> Self {
        Self {
            recorded: 0,
            first: f64::INFINITY,
            last: f64::NEG_INFINITY,
            decode_secs: 0.0,
            verify_secs: 0.0,
            swap_secs: 0.0,
            stretch_secs: 0.0,
            horizon: f64::NEG_INFINITY,
            decodes: 0,
            unfolded: std::collections::VecDeque::new(),
            open: Vec::new(),
            pending: Vec::new(),
            swept: 0,
            fresh: Vec::new(),
            sweep: Sweep::default(),
        }
    }
}

impl DeviceTimeline {
    /// Record a segment; returns its id for later
    /// [`DeviceTimeline::stretch`] and [`DeviceTimeline::close`] calls.
    /// A decode segment stays open until closed; any other kind is
    /// closed as recorded. The segment must not start before the
    /// latest [`DeviceTimeline::advance`] horizon.
    pub fn record(&mut self, start: f64, duration: f64, kind: SegmentKind) -> usize {
        assert!(start.is_finite(), "segment start must be finite");
        assert!(duration >= 0.0, "segment duration must be non-negative");
        debug_assert!(
            start >= self.horizon,
            "segment starts at {start}, before the advanced horizon {}",
            self.horizon
        );
        let id = self.recorded;
        self.recorded += 1;
        let end = start + duration;
        self.first = self.first.min(start);
        if end > start {
            self.fresh.push(endpoint(start, true));
        }
        match kind {
            SegmentKind::Decode => {
                self.open.push(Open {
                    id,
                    seq: self.decodes,
                    start,
                    end,
                });
                self.decodes += 1;
                self.unfolded.push_back(0.0);
            }
            SegmentKind::Verify => {
                self.verify_secs += end - start;
                self.end_at(start, end);
            }
            SegmentKind::Swap => {
                self.swap_secs += end - start;
                self.end_at(start, end);
            }
        }
        id
    }

    /// Retroactively stretch open segment `id` by `extra` seconds — a
    /// later launch overlapped it and slowed its kernel. Stretch never
    /// shrinks a segment.
    pub fn stretch(&mut self, id: usize, extra: f64) {
        assert!(extra >= 0.0, "stretch never shrinks a segment");
        let at = self.open_at(id);
        let s = &mut self.open[at];
        let was_empty = s.end <= s.start;
        s.end += extra;
        if was_empty && s.end > s.start {
            let start = s.start;
            self.fresh.push(endpoint(start, true));
        }
        self.stretch_secs += extra;
    }

    /// Close open segment `id`: nothing stretches it any more, so its
    /// end joins the sweep and its duration folds into the decode sum
    /// once every earlier decode segment has closed.
    pub fn close(&mut self, id: usize) {
        let s = self.open.remove(self.open_at(id));
        let folded = self.decodes - self.unfolded.len();
        self.unfolded[s.seq - folded] = s.end - s.start;
        self.end_at(s.start, s.end);
        let first_open = self.open.first().map_or(self.decodes, |o| o.seq);
        for _ in folded..first_open {
            self.decode_secs += self.unfolded.pop_front().expect("an unfolded slot");
        }
    }

    /// Promise that no segment recorded from now on starts before
    /// `horizon`, and sweep every endpoint that lies before both the
    /// horizon and the earliest open segment's end: no later endpoint
    /// can sort ahead of them. Only the endpoints recorded since the
    /// last advance are sorted; they merge into the unswept remainder,
    /// which no fresh endpoint sorts below, and the sweep walks on from
    /// where the previous one stopped.
    pub fn advance(&mut self, horizon: f64) {
        self.horizon = self.horizon.max(horizon);
        let due_before = self.open.iter().map(|s| s.end).fold(self.horizon, f64::min);
        sort_recorded(&mut self.fresh);
        debug_assert!(
            self.swept == 0
                || self
                    .fresh
                    .first()
                    .is_none_or(|&k| k >= self.pending[self.swept - 1]),
            "a fresh endpoint sorts below a swept one"
        );
        merge_sorted(&mut self.pending, &self.fresh);
        self.fresh.clear();
        debug_assert!(self.pending.is_sorted(), "merged endpoints stay sorted");
        // Keys below an end at `due_before` are exactly the endpoints
        // strictly before it.
        let limit = if due_before > 0.0 {
            endpoint(due_before, false)
        } else {
            0
        };
        let due = self.swept + self.unswept().partition_point(|&k| k < limit);
        self.sweep.run(&self.pending[self.swept..due]);
        self.swept = due;
        if 2 * self.swept >= self.pending.len() {
            self.pending.drain(..self.swept);
            self.swept = 0;
        }
    }

    /// The endpoints not yet swept, sorted.
    fn unswept(&self) -> &[u64] {
        &self.pending[self.swept..]
    }

    /// Total retroactive stretch applied so far, seconds.
    pub fn stretch_secs(&self) -> f64 {
        self.stretch_secs
    }

    /// Roll the timeline up into occupancy statistics: span, per-kind
    /// busy sums, the overlap-aware busy union and the peak overlap
    /// depth. Open segments count at their current end.
    pub fn occupancy(&self) -> TimelineOccupancy {
        if self.recorded == 0 {
            return TimelineOccupancy::default();
        }
        let mut decode_secs = self.decode_secs;
        let mut last = self.last;
        let mut events = self.unswept().to_vec();
        events.extend_from_slice(&self.fresh);
        let folded = self.decodes - self.unfolded.len();
        let mut open = self.open.iter().peekable();
        for (seq, &duration) in (folded..).zip(&self.unfolded) {
            match open.next_if(|s| s.seq == seq) {
                Some(s) => {
                    decode_secs += s.end - s.start;
                    last = last.max(s.end);
                    if s.end > s.start {
                        events.push(endpoint(s.end, false));
                    }
                }
                None => decode_secs += duration,
            }
        }
        events.sort_unstable();
        let mut sweep = self.sweep;
        sweep.run(&events);
        TimelineOccupancy {
            span_secs: (last - self.first).max(0.0),
            busy_secs: sweep.busy_secs,
            decode_secs,
            verify_secs: self.verify_secs,
            swap_secs: self.swap_secs,
            stretch_secs: self.stretch_secs,
            segments: self.recorded as u64,
            max_concurrency: sweep.max_depth.max(0) as u32,
        }
    }

    /// The position of open decode segment `id` in the open list.
    fn open_at(&self, id: usize) -> usize {
        self.open
            .binary_search_by_key(&id, |s| s.id)
            .unwrap_or_else(|_| panic!("segment {id} is not an open decode segment"))
    }

    /// A closed segment's end: it bounds the span and, when the segment
    /// has length, closes it in the sweep.
    fn end_at(&mut self, start: f64, end: f64) {
        self.last = self.last.max(end);
        if end > start {
            self.fresh.push(endpoint(end, false));
        }
    }
}

/// The honesty features the timeline loop layers on top of the
/// event-driven policy. A fleet attaches one tuning to every replica
/// (the event policy is specified once at the fleet level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineTuning {
    /// Price cross-launch decode overlap: a launch admitting new device
    /// load retroactively stretches every in-flight iteration it
    /// overlaps by the marginal co-batch slowdown.
    pub contention: bool,
    /// Run generation as chunked sub-iterations and admit arrivals into
    /// the running decode batch at chunk boundaries.
    pub token_joins: bool,
    /// Max decode tokens per sequence between join boundaries (ignored
    /// unless [`TimelineTuning::token_joins`] is set). Smaller quanta
    /// give arrivals earlier joins at the price of more `join_wait`
    /// synchronization among co-batched members.
    pub join_quantum: u64,
}

impl TimelineTuning {
    /// Both honesty features off: the timeline records segments, prices
    /// nothing and joins at launch boundaries.
    pub fn anchored() -> Self {
        Self {
            contention: false,
            token_joins: false,
            join_quantum: 16,
        }
    }

    /// Retroactive contention pricing on, token joins off.
    pub fn honest() -> Self {
        Self {
            contention: true,
            ..Self::anchored()
        }
    }

    /// Enable token-granularity decode joins (keeps the current
    /// contention setting).
    pub fn with_token_joins(mut self) -> Self {
        self.token_joins = true;
        self
    }

    /// Override the join quantum (decode tokens per sequence between
    /// chunk boundaries).
    pub fn with_join_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum >= 1, "join quantum must be at least one token");
        self.join_quantum = quantum;
        self
    }

    /// Attach the tuning to an event policy.
    pub fn config(self, event: EventConfig) -> TimelineConfig {
        TimelineConfig {
            event,
            tuning: self,
        }
    }
}

/// The scheduling policy of the one run loop: the event-driven policy
/// (batching, window, admission, shares, preemption) plus its honesty
/// tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineConfig {
    /// The event-driven policy the timeline loop runs.
    pub event: EventConfig,
    /// Which honesty features are on.
    pub tuning: TimelineTuning,
}

/// The anchored mode ([`TimelineTuning::anchored`]) of `event`: the
/// timeline only observes.
impl From<EventConfig> for TimelineConfig {
    fn from(event: EventConfig) -> Self {
        TimelineTuning::anchored().config(event)
    }
}

/// Anchored lockstep rounds ([`EventConfig::lockstep`]) of `batch`.
impl From<BatchConfig> for TimelineConfig {
    fn from(batch: BatchConfig) -> Self {
        EventConfig::lockstep(batch).into()
    }
}

/// Record `a`'s decode from absolute instant `start` to its current
/// clock as its latest decode segment, the one a later launch's
/// contention stretches, and close the one before (nothing if no time
/// passed).
fn record_decode(timeline: &mut DeviceTimeline, a: &mut InFlight, start: f64) {
    let end = a.started_at + a.run.clock();
    if end > start {
        if let Some(prev) = a.decode_segment.take() {
            timeline.close(prev);
        }
        a.decode_segment = Some(timeline.record(start, end - start, SegmentKind::Decode));
    }
}

/// The directed prefix handoffs in time order, after checking that
/// every directed cancel names one of `arrivals`.
fn checked_prewarms(arrivals: &[RequestArrival], directives: &RunDirectives) -> Vec<PrewarmPrefix> {
    for &(idx, _) in &directives.cancels {
        assert!(idx < arrivals.len(), "cancel index out of range");
    }
    let mut prewarms = directives.prewarms.clone();
    prewarms.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite prewarm times"));
    prewarms
}

/// Summed decode load `(sequences, context tokens)` of `runs`.
fn decode_load<'a>(runs: impl IntoIterator<Item = &'a InFlight>) -> (usize, u64) {
    runs.into_iter()
        .map(|a| a.run.decode_load())
        .fold((0, 0), |(s, c), (ls, lc)| (s + ls, c + lc))
}

/// Replays a request arrival stream with event-driven continuous
/// batching over a global per-device kernel timeline: every launch is
/// a costed segment on one clock, cross-launch decode overlap is
/// priced retroactively, and (optionally) arrivals join the in-flight
/// decode batch at token-chunk boundaries. This is the crate's one
/// scheduler type and run loop; see the module docs for the execution
/// model and the policies it takes.
#[derive(Debug, Clone)]
pub struct TimelineServerSim {
    pub(crate) server: TtsServer,
    pub(crate) n: usize,
    pub(crate) kind: SearchKind,
    pub(crate) config: TimelineConfig,
}

impl TimelineServerSim {
    /// Simulate `server` answering requests with `n` beams each under
    /// the given policy (see the module docs for what each policy type
    /// converts into).
    pub fn new(
        server: TtsServer,
        n: usize,
        kind: SearchKind,
        config: impl Into<TimelineConfig>,
    ) -> Self {
        let config = config.into();
        assert!(
            config.event.batch.max_batch >= 1,
            "need at least one batch slot"
        );
        assert!(
            config.event.window_secs >= 0.0,
            "window must be non-negative"
        );
        assert!(
            config.tuning.join_quantum >= 1,
            "join quantum must be at least one token"
        );
        Self {
            server,
            n,
            kind,
            config,
        }
    }

    /// Serve the arrival stream to completion on a fault-free device.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    pub fn run(&self, arrivals: &[RequestArrival]) -> Result<BatchRun, EngineError> {
        self.run_faulted(arrivals, &FaultPlan::none())
    }

    /// Serve the arrival stream to completion while `plan` injects
    /// faults into the simulated device. Faults apply at launch
    /// granularity; at an infinite window the launch is the lockstep
    /// round barrier. The empty plan reproduces
    /// [`TimelineServerSim::run`] bit-for-bit, and any plan is itself
    /// deterministic (same `(stream, plan, config)` → same run).
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    pub fn run_faulted(
        &self,
        arrivals: &[RequestArrival],
        plan: &FaultPlan,
    ) -> Result<BatchRun, EngineError> {
        self.run_directed(arrivals, plan, &RunDirectives::default())
    }

    /// Serve the arrival stream under `plan` while `directives` steer
    /// the run from outside: directed cancellations (crash failover,
    /// hedge losers) and mid-run host-tier prefix handoffs. Empty
    /// directives reproduce [`TimelineServerSim::run_faulted`]
    /// bit-for-bit — the fleet's 1-device anchor.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    pub fn run_directed(
        &self,
        arrivals: &[RequestArrival],
        plan: &FaultPlan,
        directives: &RunDirectives,
    ) -> Result<BatchRun, EngineError> {
        let mut state = LoopState::new(self, arrivals.into(), plan, Rc::new(directives.clone()));
        while state.step()?.is_some() {}
        Ok(state.finish())
    }
}

/// The run loop's state; the module docs' execution model describes
/// it and the phases of [`LoopState::step`]. It owns its arrivals and
/// directives, so a caller can keep a run alive and step it on demand.
/// A clone is an independent copy of the run at a step boundary: stepped
/// to the end, it finishes exactly as the original does.
#[derive(Clone)]
pub(crate) struct LoopState<'a> {
    pub(crate) sim: &'a TimelineServerSim,
    pub(crate) arrivals: Rc<[RequestArrival]>,
    pub(crate) plan: &'a FaultPlan,
    pub(crate) directives: Rc<RunDirectives>,
    /// The directed prefix handoffs in time order, and the next one due.
    prewarms: Vec<PrewarmPrefix>,
    prewarm_next: usize,
    /// The latest instant up to which an executed step read the inputs
    /// (see [`LoopState::step`]): new inputs that agree with the old ones
    /// up to it take the same steps ([`LoopState::rebase`]).
    pub(crate) read_until: f64,
    pub(crate) pool: PoolBudget,
    pub(crate) tier: HostTier,
    /// Generator KV bytes per token, the unit of a prompt prefix.
    pub(crate) gen_bpt: u64,
    /// Earliest instant the next launch may happen: raised by
    /// preemption PCIe transfers, by completions that drain the
    /// device, and (in lockstep mode) by every launch's round end.
    floor: f64,
    /// Latest completion instant seen — the device-drained floor.
    finish_max: f64,
    cursor: FaultCursor,
    /// Every launch's costed segments; each in-flight run keeps the id
    /// of its own latest decode segment.
    timeline: DeviceTimeline,
    /// The first arrival not yet ingested.
    next_arrival: usize,
    /// Ingested arrivals awaiting admission, in arrival order.
    pub(crate) waiting: Vec<usize>,
    /// Preempted runs awaiting readmission, in pause order.
    pub(crate) paused: Vec<InFlight>,
    /// The launching co-batch; empty between steps.
    pub(crate) group: Vec<InFlight>,
    /// The in-flight requests outside the launching group; between
    /// steps, the whole in-flight set in admission order.
    pub(crate) rest: Vec<InFlight>,
    /// The next admission sequence number.
    pub(crate) admit_seq: u64,
    pub(crate) served: Vec<Option<ServedRequest>>,
    /// The run being built: its counters accumulate here, and
    /// [`LoopState::finish`] fills in the records and the pool, tier and
    /// timeline read-outs.
    pub(crate) run: BatchRun,
}

impl<'a> LoopState<'a> {
    /// The state before the first launch: empty queues, an empty pool
    /// (with the tenant caps set) and an empty tier.
    pub(crate) fn new(
        sim: &'a TimelineServerSim,
        arrivals: Rc<[RequestArrival]>,
        plan: &'a FaultPlan,
        directives: Rc<RunDirectives>,
    ) -> Self {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival times must be non-decreasing"
        );
        let batch = &sim.config.event.batch;
        let pool_bytes = sim.server.config().kv_budget_bytes();
        let mut pool = PoolBudget::new(pool_bytes);
        if let Some(policy) = batch.tenants {
            for spec in policy.specs() {
                pool.set_tenant_cap(u64::from(spec.id), spec.kv_cap_bytes);
            }
        }
        let prewarms = checked_prewarms(&arrivals, &directives);
        let requests = arrivals.len();
        Self {
            sim,
            arrivals,
            plan,
            directives,
            prewarms,
            prewarm_next: 0,
            read_until: f64::NEG_INFINITY,
            pool,
            tier: HostTier::new(batch.tier),
            gen_bpt: sim.server.config().models.gen_spec.kv_bytes_per_token(),
            floor: 0.0,
            finish_max: 0.0,
            cursor: FaultCursor::default(),
            timeline: DeviceTimeline::default(),
            next_arrival: 0,
            waiting: Vec::new(),
            paused: Vec::new(),
            group: Vec::new(),
            rest: Vec::new(),
            admit_seq: 0,
            served: (0..requests).map(|_| None).collect(),
            run: BatchRun {
                pool_bytes,
                ..BatchRun::default()
            },
        }
    }

    /// The request-level policy the loop runs.
    pub(crate) fn batch(&self) -> &'a BatchConfig {
        &self.sim.config.event.batch
    }

    fn lockstep(&self) -> bool {
        self.sim.config.event.window_secs.is_infinite()
    }

    /// Advance past one pre-launch boundary and, when it forms a
    /// co-batch, run that launch. Returns the step's read horizon, the
    /// instant up to which it read the inputs (arrivals, directed
    /// cancels and prefix handoffs), or `None` once every request is
    /// served. A step that forms no launch reads up to its launch
    /// instant, and a launch up to its round end: that bounds its
    /// chunk-boundary ingests, the speculation lookahead in
    /// `price_decode` and the next anchor, so it is conservative.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    pub(crate) fn step(&mut self) -> Result<Option<f64>, EngineError> {
        let Some(anchor) = self.anchor() else {
            // The run read that no arrival is left.
            self.read_until = f64::INFINITY;
            return Ok(None);
        };
        let launch = self.form_group(anchor);
        self.boundary(launch)?;
        if self.group.is_empty() {
            if self.rest.is_empty() && !(self.waiting.is_empty() && self.paused.is_empty()) {
                // A lone candidate that cannot fit the whole pool: fresh
                // requests already propagated from admission, so this is
                // a preempted run whose paths outgrew the device.
                let p = self.paused.first().expect("paused candidate");
                let (needed, capacity) = p.run.kv_demand();
                return Err(EngineError::PathExceedsMemory { needed, capacity });
            }
            // Idle to the next arrival (or done), or the anchor produced
            // no launch (a blocked arrival, or every in-flight request
            // beyond the horizon): wait for the next event.
            return Ok(Some(self.read(launch)));
        }
        let launch = self.preempt(launch);
        // The launch (with any preemption PCIe time) is committed device
        // time: later launches never precede it.
        self.floor = self.floor.max(launch);
        if self.group.is_empty() {
            return Ok(Some(self.read(launch)));
        }
        // One launch: the group executes one TTS iteration over the
        // shared accelerator.
        self.run.rounds += 1;
        self.run.group_iters += self.group.len() as u64;
        let planned = if self.sim.config.tuning.token_joins {
            self.decode_chunks(launch)?
        } else {
            self.decode_phase()?
        };
        let charges = self.cost_verify(&planned);
        let (finished, round_end) = self.commit(&planned, &charges, launch)?;
        let round_end = self.faults(launch, round_end);
        // In lockstep mode the round end *is* the barrier: nothing —
        // including the next admission — happens before it, and
        // finished members hold it. With a finite window the floor
        // stays at the launch: survivors and bystanders advance at
        // their own cadence.
        if self.lockstep() {
            self.floor = self.floor.max(round_end);
        }
        self.complete(&finished);
        // Every later segment starts at or after this horizon: at the
        // next launch (never below the floor), or at an in-flight or
        // paused member's own clock, which never moves backward.
        let horizon = self
            .rest
            .iter()
            .chain(&self.paused)
            .map(|a| a.started_at + a.run.clock())
            .fold(self.floor, f64::min);
        self.timeline.advance(horizon);
        Ok(Some(self.read(round_end)))
    }

    /// Note that a step read the inputs up to `until`, and return it.
    fn read(&mut self, until: f64) -> f64 {
        self.read_until = self.read_until.max(until);
        until
    }

    /// Swap in new inputs, as if the run had started from them. They
    /// must agree with the current ones on everything an executed step
    /// read, that is up to [`LoopState::read_until`]: then the steps
    /// taken so far are the steps the new inputs take, and the run goes
    /// on from here. Arrivals may be added (a request not yet ingested
    /// may move to a later index) and directives added or moved; the
    /// served records grow to the new request count.
    pub(crate) fn rebase(&mut self, arrivals: Rc<[RequestArrival]>, directives: Rc<RunDirectives>) {
        debug_assert!(
            self.reads_agree(&arrivals, &directives),
            "new inputs differ from the old ones before the read horizon {}",
            self.read_until
        );
        let prewarms = checked_prewarms(&arrivals, &directives);
        let requests = arrivals.len();
        debug_assert!(requests >= self.served.len(), "a rebase drops no request");
        self.served.resize_with(requests, || None);
        self.prewarms = prewarms;
        self.arrivals = arrivals;
        self.directives = directives;
    }

    /// Whether `arrivals` and `directives` agree with the current inputs
    /// on everything read up to [`LoopState::read_until`]: the arrivals
    /// and prefix handoffs due by then, and the cancels due by then of
    /// every ingested request.
    fn reads_agree(&self, arrivals: &[RequestArrival], directives: &RunDirectives) -> bool {
        let until = self.read_until;
        let due = |a: &RequestArrival| a.at <= until;
        let landed = |p: &PrewarmPrefix| p.at <= until;
        let cancel = |d: &RunDirectives, idx: usize| {
            d.cancels
                .iter()
                .filter(|&&(i, t)| i == idx && t <= until)
                .fold(f64::INFINITY, |m, &(_, t)| m.min(t))
        };
        let prewarms = checked_prewarms(arrivals, directives);
        self.arrivals
            .iter()
            .take_while(|a| due(a))
            .eq(arrivals.iter().take_while(|a| due(a)))
            && self
                .prewarms
                .iter()
                .take_while(|p| landed(p))
                .eq(prewarms.iter().take_while(|p| landed(p)))
            && (0..self.next_arrival).all(|i| cancel(&self.directives, i) == cancel(directives, i))
    }

    /// The records, with the pool, tier and timeline read-outs.
    pub(crate) fn finish(self) -> BatchRun {
        let tier = self.tier.stats();
        BatchRun {
            served: self
                .served
                .into_iter()
                .map(|r| r.expect("every request served"))
                .collect(),
            peak_reserved_bytes: self.pool.peak_reserved_bytes(),
            final_reserved_bytes: self.pool.reserved_bytes(),
            kv_tier_hits: tier.prefix_hits,
            kv_tier_demotions: tier.demotions,
            kv_tier_parked_bytes: tier.parked_bytes,
            kv_tier_dropped_bytes: self.run.kv_tier_dropped_bytes + tier.overflow_dropped_bytes,
            kv_tier_unparked_bytes: tier.unparked_bytes,
            tenant_peak_bytes: self
                .pool
                .tenant_peaks()
                .into_iter()
                .map(|(t, b)| (t as u32, b))
                .collect(),
            timeline: self.timeline.occupancy(),
            ..self.run
        }
    }

    /// The earliest instant a new co-batch can launch, or `None` once
    /// every request is served. A pending arrival anchors its own
    /// (fresh) launch only when mid-flight admission could actually take
    /// it — otherwise it is ingested when the next ready-driven launch
    /// forms. Pure: [`LoopState::anchor`] also commits the device floor
    /// this reads.
    pub(crate) fn peek_anchor(&self) -> Option<f64> {
        self.next_anchor().map(|(_, anchor)| anchor)
    }

    /// [`LoopState::peek_anchor`], committing the raised device floor.
    fn anchor(&mut self) -> Option<f64> {
        let (floor, anchor) = self.next_anchor()?;
        self.floor = floor;
        Some(anchor)
    }

    /// The device floor raised for the next launch, and that launch's
    /// anchor.
    fn next_anchor(&self) -> Option<(f64, f64)> {
        // Next decision instant: the earliest ready request, or the
        // next arrival.
        let next_ready = self
            .rest
            .iter()
            .map(InFlight::ready_at)
            .fold(f64::INFINITY, f64::min);
        let next_arr = self
            .arrivals
            .get(self.next_arrival)
            .map_or(f64::INFINITY, |a| a.at);
        let mut floor = self.floor;
        if self.rest.is_empty() {
            // The device is drained; nothing launches before the last
            // completion.
            floor = floor.max(self.finish_max);
            if self.waiting.is_empty() && self.paused.is_empty() {
                if self.next_arrival >= self.arrivals.len() {
                    return None;
                }
                // Idle until the next arrival.
                floor = floor.max(next_arr);
            }
        }
        let batch = self.batch();
        let arrival_anchor = next_arr.max(floor);
        let consider_arrival = batch.admit_mid_flight
            && self.rest.len() < batch.max_batch
            && arrival_anchor < next_ready;
        let anchor = if self.rest.is_empty() {
            floor
        } else if consider_arrival {
            arrival_anchor
        } else {
            next_ready
        };
        Some((floor, anchor))
    }

    /// Request `idx` while it is admitted and not yet sealed (in flight
    /// or preempted). Between steps the launching group is empty.
    pub(crate) fn live(&self, idx: usize) -> Option<&InFlight> {
        self.rest.iter().chain(&self.paused).find(|a| a.idx == idx)
    }

    /// Seal `a` into its served record (see [`InFlight::seal`]), closing
    /// its latest decode segment on the timeline. Returns the record's
    /// finish instant.
    pub(crate) fn seal(&mut self, a: InFlight, cancelled_at: Option<f64>) -> f64 {
        let idx = a.idx;
        if let Some(id) = a.decode_segment {
            self.timeline.close(id);
        }
        let record = a.seal(cancelled_at);
        let finished_at = record.finished_at;
        self.served[idx] = Some(record);
        finished_at
    }

    /// Move every in-flight request whose next iteration can start
    /// inside the batching window of `anchor` into the group, and return
    /// the launch instant: the latest member's ready time, never before
    /// the device floor. The partition is stable, so the group keeps
    /// admission order (the order shares resize and unfused sweeps
    /// serialize in). Members ready earlier wait the gap — a window wait
    /// (plain idle), except at an infinite window, where the wait *is*
    /// the lockstep round barrier.
    fn form_group(&mut self, anchor: f64) -> f64 {
        let horizon = anchor + self.sim.config.event.window_secs;
        (self.group, self.rest) = std::mem::take(&mut self.rest)
            .into_iter()
            .partition(|a| a.ready_at() <= horizon);
        let launch = self
            .group
            .iter()
            .map(InFlight::ready_at)
            .fold(anchor.max(self.floor), f64::max);
        let wait = if self.lockstep() {
            Wait::Barrier
        } else {
            Wait::Idle
        };
        for a in &mut self.group {
            admission::pad(a, launch, wait);
        }
        launch
    }

    /// Queue every arrival due by `until`.
    fn ingest(&mut self, until: f64) {
        while self
            .arrivals
            .get(self.next_arrival)
            .is_some_and(|a| a.at <= until)
        {
            self.waiting.push(self.next_arrival);
            self.next_arrival += 1;
        }
    }

    /// The pre-launch boundary: ingest arrivals due by the launch, land
    /// due prefix handoffs in the tier, sweep directed cancels and
    /// deadlines, admit (readmits first, then fresh arrivals) into the
    /// group at the launch instant, rebalance elastic shares, and
    /// stretch the bystanders the admitted load slows.
    fn boundary(&mut self, launch: f64) -> Result<(), EngineError> {
        self.ingest(launch);
        // Directed prefix handoffs due by this launch land in the tier
        // before admission, so a migrated request admits warm.
        while let Some(p) = self
            .prewarms
            .get(self.prewarm_next)
            .filter(|p| p.at <= launch)
        {
            self.tier.publish_prefix(p.key, p.tokens, p.bytes);
            self.prewarm_next += 1;
        }
        // Directed cancellations sweep at the same pre-admission
        // boundary as deadline enforcement, under any fault policy.
        if !self.directives.cancels.is_empty() {
            self.apply_cancels(launch);
        }
        // Deadline/SLO enforcement (active only under the Degrade
        // policy): shed stale or infeasible arrivals and cancel hopeless
        // runs before they burn device time.
        self.enforce_slo(launch);
        let admitted_from = self.group.len();
        if self.admit(launch)? {
            // Admission boundary: size elastic shares by demand (and,
            // under a tenant policy, by tenant fair-share).
            if self.elastic() {
                self.rebalance();
            }
            // The load this launch admits slows every iteration still in
            // flight outside it. (At an infinite window the rest is
            // always empty.)
            self.stretch_bystanders(admitted_from, launch);
        }
        Ok(())
    }

    /// Memory-pressure preemption over the launching group (the rest
    /// are re-probed when they launch): runs that cannot progress or
    /// would thrash their share are swapped out youngest-first; a lone
    /// request is never preempted. Returns the launch instant after the
    /// swap-out PCIe transfers.
    fn preempt(&mut self, mut launch: f64) -> f64 {
        while self.group.len() + self.rest.len() > 1 {
            let victim = self
                .group
                .iter()
                .enumerate()
                .filter(|(_, a)| !a.run.can_progress() || !a.run.fits_working_set())
                .max_by_key(|(_, a)| a.admit_seq)
                .map(|(i, _)| i);
            let Some(vi) = victim else { break };
            let mut v = self.group.remove(vi);
            // With a host tier, swap-down is capped at the tier's free
            // capacity: what fits parks (and is PCIe-costed), the
            // overflow is dropped and recomputed on readmission. Without
            // one, everything swaps out and `park` is a no-op.
            let cap = if self.tier.enabled() {
                self.tier.available_bytes()
            } else {
                u64::MAX
            };
            let (bytes, dropped) = v.run.preempt(cap);
            self.tier.park(v.idx as u64, bytes);
            self.run.kv_tier_dropped_bytes += dropped;
            let swap_start = launch;
            launch += self.sim.server.config().device.pcie_transfer_seconds(bytes);
            if launch > swap_start {
                self.timeline
                    .record(swap_start, launch - swap_start, SegmentKind::Swap);
            }
            self.pool.release(v.idx as u64);
            v.preemptions += 1;
            self.run.preemptions += 1;
            v.paused_at = launch;
            v.probe = None;
            self.paused.push(v);
            // Preemption boundary: survivors regrow or rebalance.
            self.reshare();
        }
        launch
    }

    /// Price one decode step of the group over the whole in-flight set:
    /// each `decoding` member is costed against everyone else's load
    /// (requests outside the launch overlap it on the device), and
    /// speculates only while it has the device to itself and nobody is
    /// queued, until the next known arrival — the loop's one lookahead —
    /// would start waiting: the two-phase rule. `rest` is the decode
    /// load of the requests outside the launch, summed once per launch:
    /// they do not step during it, joiners enter the group, and
    /// contention stretches move only their clocks.
    fn price_decode(&mut self, rest: (usize, u64), decoding: impl Fn(usize) -> bool) {
        debug_assert_eq!(rest, decode_load(&self.rest), "the rest stepped mid-launch");
        let alone = self.group.len() == 1
            && self.rest.is_empty()
            && self.waiting.is_empty()
            && self.paused.is_empty();
        let next_at = self.arrivals.get(self.next_arrival).map(|a| a.at);
        let (group_seqs, group_ctx) = decode_load(&self.group);
        let (total_seqs, total_ctx) = (group_seqs + rest.0, group_ctx + rest.1);
        for (i, a) in self.group.iter_mut().enumerate() {
            if !decoding(i) {
                continue;
            }
            let (seqs, ctx) = a.run.decode_load();
            a.run.set_co_batch(total_seqs - seqs, total_ctx - ctx);
            let spec_off = match next_at {
                _ if !alone => 0.0,
                Some(at) => (at - a.started_at).max(0.0),
                None => f64::INFINITY,
            };
            a.run.set_spec_off_after(spec_off);
        }
    }

    /// Retroactive contention, when priced: the group members from
    /// `joined` on are new device load at `at`, so every bystander
    /// iteration still in flight outside the group stretches by the
    /// marginal co-batch slowdown over its remaining seconds, and its
    /// decode segment already on the timeline stretches with it.
    fn stretch_bystanders(&mut self, joined: usize, at: f64) {
        if !self.sim.config.tuning.contention {
            return;
        }
        let (seqs, ctx) = decode_load(&self.group[joined..]);
        for a in &mut self.rest {
            let remaining = (a.ready_at() - at).max(0.0);
            let extra = a.run.contention_stretch(seqs, ctx, remaining);
            if extra > 0.0 {
                if let Some(id) = a.decode_segment {
                    self.timeline.stretch(id, extra);
                }
            }
        }
    }

    /// Decode, whole phase: memory replan plus each member's co-batched
    /// generation phase, recorded on the device timeline. Returns which
    /// members planned an iteration (the rest finished).
    fn decode_phase(&mut self) -> Result<Vec<bool>, EngineError> {
        self.price_decode(decode_load(&self.rest), |_| true);
        let mut planned = Vec::with_capacity(self.group.len());
        for a in &mut self.group {
            let seg_start = a.started_at + a.run.clock();
            planned.push(!a.run.plan_iteration(a.driver.as_mut())?.is_finished());
            record_decode(&mut self.timeline, a, seg_start);
        }
        Ok(planned)
    }

    /// Decode in token-join chunks: the generation phase runs as
    /// chunked sub-iterations, and arrivals due by each chunk boundary
    /// admit into the running launch. Returns which members planned an
    /// iteration, joiners included.
    fn decode_chunks(&mut self, launch: f64) -> Result<Vec<bool>, EngineError> {
        let tuning = self.sim.config.tuning;
        let mut gen_done: Vec<bool> = self.group.iter().map(|a| a.run.is_finished()).collect();
        let mut planned: Vec<bool> = gen_done.iter().map(|done| !done).collect();
        let rest = decode_load(&self.rest);
        let mut chunk_end: Vec<Option<f64>> = Vec::with_capacity(self.group.len());
        loop {
            // Re-derive the group's share of the co-batch every chunk:
            // membership (joins, early generation finishes) and context
            // both move at chunk boundaries.
            self.price_decode(rest, |i| !gen_done[i]);
            chunk_end.clear();
            chunk_end.resize(self.group.len(), None);
            for (i, a) in self.group.iter_mut().enumerate() {
                if gen_done[i] {
                    continue;
                }
                match a
                    .run
                    .plan_decode_chunk(a.driver.as_mut(), tuning.join_quantum)?
                {
                    DecodeStatus::Planned(chunk) => {
                        chunk_end[i] =
                            Some(a.started_at + a.run.clock() + a.run.chunk_seconds(&chunk));
                    }
                    DecodeStatus::Generated => gen_done[i] = true,
                    DecodeStatus::Finished => {
                        gen_done[i] = true;
                        planned[i] = false;
                    }
                    DecodeStatus::Decoding => {
                        unreachable!("plan returns Planned, Generated or Finished")
                    }
                }
            }
            if chunk_end.iter().all(Option::is_none) {
                return Ok(planned);
            }
            // The join boundary: the slowest co-batched chunk's predicted
            // end (chunk_seconds is bit-identical to the charge apply
            // books).
            let boundary = chunk_end.iter().flatten().fold(launch, |m, &e| m.max(e));
            for (i, a) in self.group.iter_mut().enumerate() {
                if chunk_end[i].is_none() {
                    continue;
                }
                let seg_start = a.started_at + a.run.clock();
                let status = a.run.apply_decode_chunk(a.driver.as_mut())?;
                record_decode(&mut self.timeline, a, seg_start);
                if status == DecodeStatus::Generated {
                    gen_done[i] = true;
                } else {
                    // Members still decoding wait for the slowest chunk
                    // — the token-join sync (boundary is absolute; the
                    // pad converts to this run's relative clock).
                    admission::pad(a, boundary, Wait::Join);
                }
            }
            // Token-granularity join: arrivals due by the boundary admit
            // into the running decode batch here instead of waiting out
            // the whole launch.
            self.ingest(boundary);
            if self.group.len() + self.rest.len() < self.batch().max_batch
                && !(self.waiting.is_empty() && self.paused.is_empty())
            {
                let before = self.group.len();
                self.admit(boundary)?;
                if self.group.len() > before {
                    self.run.group_iters += (self.group.len() - before) as u64;
                    gen_done.resize(self.group.len(), false);
                    planned.resize(self.group.len(), true);
                    self.stretch_bystanders(before, boundary);
                }
            }
        }
    }

    /// Verifier cost: gather every planned member's verifier mirror
    /// work and the prefill chunks still owed kernel time, then price
    /// the group's sweeps over the one shared accelerator (fused or
    /// serialized), recorded as one verifier segment from the earliest
    /// member's generation end. Returns each member's charges.
    fn cost_verify(&mut self, planned: &[bool]) -> Vec<Vec<VerifyCharge>> {
        let plans: Vec<Vec<VerifyChunk>> = self
            .group
            .iter_mut()
            .zip(planned)
            .map(|(a, &p)| {
                if p {
                    a.run.take_verify_batch().to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut charges: Vec<Vec<VerifyCharge>> = vec![Vec::new(); self.group.len()];
        let sweep = admission::cost_verify_sweeps(
            self.batch().fused_verify,
            &mut self.group,
            &plans,
            &mut charges,
        );
        self.run.ver_sweeps += sweep.sweeps;
        self.run.ver_seqs += sweep.seqs;
        self.run.ver_busy_secs += sweep.busy_secs;
        if sweep.busy_secs > 0.0 {
            let verify_start = self
                .group
                .iter()
                .map(|a| a.started_at + a.run.clock())
                .fold(f64::INFINITY, f64::min);
            self.timeline
                .record(verify_start, sweep.busy_secs, SegmentKind::Verify);
        }
        charges
    }

    /// Commit: charge the sweeps, reveal scores, branch survivors, and
    /// apply the opt-in First Finish cut. Returns the group positions
    /// that finished and the round end.
    fn commit(
        &mut self,
        planned: &[bool],
        charges: &[Vec<VerifyCharge>],
        launch: f64,
    ) -> Result<(Vec<usize>, f64), EngineError> {
        let batch = self.batch();
        let mut round_end = launch;
        let mut finished = Vec::new();
        for (i, a) in self.group.iter_mut().enumerate() {
            let status = if planned[i] {
                a.run.apply_verify_results(a.driver.as_mut(), &charges[i])?
            } else {
                StepStatus::Finished
            };
            debug_assert!(
                a.run.run_phase() == RunPhase::Ready || !planned[i],
                "a committed run must be back between iterations"
            );
            let mut done = status.is_finished();
            if !done && batch.first_finish && a.run.first_finish_cut(batch.first_finish_bar) {
                done = true;
            }
            round_end = round_end.max(a.started_at + a.run.clock());
            if done {
                finished.push(i);
            }
        }
        Ok((finished, round_end))
    }

    /// Injected faults due this launch, popped once, in time order, from
    /// the plan cursor. Kernel faults and throttle windows hit the
    /// kernels launched now — the group — and their time books to the
    /// `fault` bucket in proportion to each member's busy seconds this
    /// launch. Device KV loss is state damage and hits every
    /// device-resident request, bystanders included; swapped-out
    /// requests survive in host RAM and recover by deterministic
    /// recompute. Returns the round end after the faults.
    fn faults(&mut self, launch: f64, round_end: f64) -> f64 {
        let robust = &self.batch().robust;
        let faults = LaunchFaults::at(&mut self.cursor, self.plan, robust, launch);
        if !faults.fired() {
            return round_end;
        }
        self.run.kernel_faults += faults.kernel_faults;
        self.run.fault_retries += faults.retries;
        for a in &mut self.group {
            let dt = (a.started_at + a.run.clock() - launch).max(0.0);
            a.run
                .stall_fault(dt * faults.busy_stretch + faults.backoff_secs);
            if faults.kernel_faults > 0 {
                a.run
                    .note_kernel_faults(faults.kernel_faults, faults.retries, faults.backoff_secs);
            }
            if faults.slowdown_stretch > 0.0 {
                a.run.note_slowdown(dt * faults.slowdown_stretch);
            }
        }
        if faults.kv_losses > 0 {
            self.run.kv_loss_events += faults.kv_losses;
            for a in self.group.iter_mut().chain(self.rest.iter_mut()) {
                self.run.lost_blocks += a.run.lose_device_kv();
            }
        }
        self.group
            .iter()
            .map(|a| a.started_at + a.run.clock())
            .fold(launch, f64::max)
    }

    /// Completion: the `finished` members leave the batch at their own
    /// finish instant, offering their prompt prefix to the host tier on
    /// the way out (a later request for the same problem admits warm).
    /// Then the surviving in-flight set re-shares, and the survivors
    /// return to it in admission order.
    fn complete(&mut self, finished: &[usize]) {
        for &i in finished.iter().rev() {
            let a = self.group.remove(i);
            self.pool.release(a.idx as u64);
            self.publish_prompt(a.idx);
            let finished_at = self.seal(a, None);
            self.finish_max = self.finish_max.max(finished_at);
        }
        // Completion boundary: re-share the surviving in-flight set.
        // Otherwise check demand drift: trees grow for many iterations
        // between boundaries, and shares frozen at an early snapshot
        // would shrink a growing request into preemption.
        if !finished.is_empty() {
            self.reshare();
        } else if self.elastic() && self.demand_drifted() {
            self.rebalance();
        }
        // admit_seq is assigned monotonically.
        self.rest.append(&mut self.group);
        self.rest.sort_by_key(|a| a.admit_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftts_engine::ModelPairing;
    use ftts_hw::GpuDevice;
    use ftts_workload::{ArrivalPattern, Dataset};

    fn server(seed: u64, memory_fraction: f64) -> TtsServer {
        let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = seed;
        s.config_mut().memory_fraction = memory_fraction;
        s
    }

    fn arrivals(count: usize, seed: u64, interval: f64) -> Vec<RequestArrival> {
        let problems = Dataset::Amc2023.problems(count, seed);
        ArrivalPattern::Uniform { interval }.schedule(&problems, 0)
    }

    /// Golden-fixture shapes for the clone and rebase checks: each
    /// label with its scheduler, arrivals and fault plan.
    fn clone_fixtures() -> Vec<(
        &'static str,
        TimelineServerSim,
        Vec<RequestArrival>,
        FaultPlan,
    )> {
        use crate::faults::{FaultPolicy, RobustConfig, StormConfig};
        use crate::tenant::{TenantPolicy, TenantSpec};
        use ftts_kv::KvTierConfig;
        use ftts_metrics::SloClass;
        let sim = |seed, fraction, n, config: TimelineConfig| {
            TimelineServerSim::new(server(seed, fraction), n, SearchKind::BeamSearch, config)
        };
        let pressured =
            ArrivalPattern::Burst { at: 0.0 }.schedule(&Dataset::Aime2024.problems(4, 51), 0);
        let tenants = TenantPolicy::new(&[
            TenantSpec {
                id: 0,
                weight: 2,
                kv_cap_bytes: u64::MAX,
                max_in_flight: 0,
            },
            TenantSpec {
                id: 1,
                weight: 1,
                kv_cap_bytes: server(7, 0.45).config().kv_budget_bytes() / 2,
                max_in_flight: 2,
            },
        ]);
        let slos = [
            (SloClass::Interactive, 15.0),
            (SloClass::Standard, 40.0),
            (SloClass::Batch, f64::INFINITY),
        ];
        let tenanted = arrivals(6, 13, 1.0)
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                a.with_tenant(i as u32 % 2)
                    .with_slo(slos[i % 3].0, slos[i % 3].1)
            })
            .collect();
        let degrade = BatchConfig::continuous(4)
            .with_tenants(tenants)
            .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade));
        let storm = FaultPlan::storm(7, 60.0, &StormConfig::default());
        vec![
            (
                "lockstep",
                sim(5, 0.9, 8, BatchConfig::continuous(4).into()),
                arrivals(6, 41, 1.0),
                FaultPlan::none(),
            ),
            (
                "event window 0.2, tenants, Degrade",
                sim(7, 0.45, 12, EventConfig::new(degrade, 0.2).into()),
                tenanted,
                FaultPlan::none(),
            ),
            (
                "honest token joins q8",
                sim(
                    5,
                    0.9,
                    16,
                    TimelineTuning::honest()
                        .with_token_joins()
                        .with_join_quantum(8)
                        .config(EventConfig::windowed(6, 0.0)),
                ),
                arrivals(6, 41, 0.5),
                FaultPlan::none(),
            ),
            (
                "tiered",
                sim(
                    13,
                    0.30,
                    24,
                    BatchConfig::continuous(4)
                        .with_tier(KvTierConfig::with_capacity(1 << 28))
                        .into(),
                ),
                pressured,
                FaultPlan::none(),
            ),
            (
                "storm",
                sim(5, 0.9, 8, BatchConfig::continuous(4).into()),
                arrivals(6, 41, 1.0),
                storm,
            ),
        ]
    }

    #[test]
    fn a_clone_at_any_step_boundary_finishes_like_the_original() {
        for (label, sim, stream, plan) in clone_fixtures() {
            let full = format!("{:?}", sim.run_faulted(&stream, &plan).expect("full run"));
            let mut state = LoopState::new(&sim, stream.into(), &plan, Rc::default());
            let mut steps = 0;
            loop {
                let mut clone = state.clone();
                while clone.step().expect("clone step").is_some() {}
                let run = format!("{:?}", clone.finish());
                assert!(
                    run == full,
                    "{label}: the clone taken after step {steps} diverged"
                );
                if state.step().expect("step").is_none() {
                    break;
                }
                steps += 1;
            }
            assert_eq!(format!("{:?}", state.finish()), full, "{label}");
        }
    }

    #[test]
    fn rebasing_before_the_edit_equals_a_run_from_scratch() {
        for (label, sim, stream, plan) in clone_fixtures() {
            let last = stream.last().expect("arrivals").at;
            let mid = stream[stream.len() / 2].at + 0.25;
            for edit in [0.5, mid, last, last + 3.0, last + 20.0] {
                // Add one arrival at the edit, after any arrival at the
                // same instant (mid-stream edits move later requests to
                // later indices), and cancel request 0 there.
                let mut edited = stream.clone();
                let pos = edited.partition_point(|a| a.at <= edit);
                edited.insert(
                    pos,
                    RequestArrival {
                        at: edit,
                        ..stream[0].clone()
                    },
                );
                let directives = RunDirectives {
                    cancels: vec![(0, edit)],
                    prewarms: Vec::new(),
                };
                let full = sim
                    .run_directed(&edited, &plan, &directives)
                    .expect("full run");
                // The latest state whose steps read nothing at or after
                // the edit.
                let mut state = LoopState::new(&sim, stream.clone().into(), &plan, Rc::default());
                loop {
                    let before = state.clone();
                    if state.step().expect("step").is_none() || state.read_until >= edit {
                        state = before;
                        break;
                    }
                }
                assert!(state.read_until < edit);
                state.rebase(edited.into(), Rc::new(directives));
                while state.step().expect("step").is_some() {}
                assert_eq!(
                    format!("{:?}", state.finish()),
                    format!("{full:?}"),
                    "{label}: rebased before the edit at {edit}"
                );
            }
        }
    }

    #[test]
    fn config_presets() {
        let event = EventConfig::windowed(4, 0.0);
        let anchored = TimelineConfig::from(event);
        assert!(!anchored.tuning.contention && !anchored.tuning.token_joins);
        let lockstep = TimelineConfig::from(BatchConfig::fused(4));
        assert_eq!(lockstep.tuning, TimelineTuning::anchored());
        assert_eq!(lockstep.event, EventConfig::lockstep(BatchConfig::fused(4)));
        let honest = TimelineTuning::honest().config(event);
        assert!(honest.tuning.contention && !honest.tuning.token_joins);
        assert_eq!(honest.event, event);
        let joins = TimelineTuning::honest()
            .with_token_joins()
            .with_join_quantum(8);
        assert!(joins.contention && joins.token_joins);
        assert_eq!(joins.join_quantum, 8);
    }

    #[test]
    #[should_panic(expected = "join quantum must be at least one token")]
    fn zero_quantum_is_rejected() {
        let _ = TimelineTuning::anchored().with_join_quantum(0);
    }

    #[test]
    fn segment_union_handles_overlap() {
        let mut tl = DeviceTimeline::default();
        tl.record(0.0, 2.0, SegmentKind::Decode);
        tl.record(1.0, 2.0, SegmentKind::Decode);
        tl.record(4.0, 1.0, SegmentKind::Verify);
        let occ = tl.occupancy();
        assert_eq!(occ.segments, 3);
        assert!((occ.span_secs - 5.0).abs() < 1e-12);
        assert!((occ.busy_secs - 4.0).abs() < 1e-12, "union, not sum");
        assert!((occ.decode_secs - 4.0).abs() < 1e-12);
        assert!((occ.verify_secs - 1.0).abs() < 1e-12);
        assert_eq!(occ.max_concurrency, 2);
        assert!((occ.idle_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_segments_do_not_overlap() {
        let mut tl = DeviceTimeline::default();
        tl.record(0.0, 1.0, SegmentKind::Decode);
        tl.record(1.0, 1.0, SegmentKind::Decode);
        let occ = tl.occupancy();
        assert_eq!(occ.max_concurrency, 1);
        assert!((occ.busy_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_extends_segment_and_rollup() {
        let mut tl = DeviceTimeline::default();
        let id = tl.record(0.0, 1.0, SegmentKind::Decode);
        tl.stretch(id, 0.5);
        let occ = tl.occupancy();
        assert!((occ.span_secs - 1.5).abs() < 1e-12, "the stretched end");
        assert!((occ.stretch_secs - 0.5).abs() < 1e-12);
        assert!((occ.busy_secs - 1.5).abs() < 1e-12);
        tl.close(id);
        assert_eq!(tl.occupancy(), occ, "closing moves nothing");
    }

    #[test]
    fn zero_length_segments_add_no_busy_time() {
        // A zero-length segment adds no sweep endpoints: its end would
        // sort before its start, dip the depth to -1, and the start
        // would re-add the gap since the previous interval (busy 6 s in
        // a 5 s span).
        let mut tl = DeviceTimeline::default();
        tl.record(0.0, 1.0, SegmentKind::Decode);
        tl.record(5.0, 0.0, SegmentKind::Verify);
        let occ = tl.occupancy();
        assert_eq!(occ.segments, 2);
        assert_eq!(occ.span_secs, 5.0);
        assert_eq!(occ.busy_secs, 1.0);
        assert_eq!(occ.max_concurrency, 1);
    }

    #[test]
    fn recorded_endpoints_sort_with_and_without_the_fallback() {
        // Nearly sorted: each pair of neighbours swapped (one move per
        // pair). Reversed: past four moves per key, the general sort
        // takes over.
        let nearly: Vec<u64> = (0..200u64).map(|k| k ^ 1).collect();
        let reversed: Vec<u64> = (0..200u64).rev().collect();
        for mut keys in [nearly, reversed, vec![], vec![7]] {
            let mut expected = keys.clone();
            expected.sort_unstable();
            sort_recorded(&mut keys);
            assert_eq!(keys, expected);
        }
    }

    #[test]
    fn advancing_sweeps_early_endpoints_without_changing_the_rollup() {
        let mut swept = DeviceTimeline::default();
        let mut kept = DeviceTimeline::default();
        for tl in [&mut swept, &mut kept] {
            let a = tl.record(0.0, 1.0, SegmentKind::Decode);
            tl.close(a);
            tl.record(0.5, 0.25, SegmentKind::Verify);
        }
        let open = swept.record(2.0, 1.0, SegmentKind::Decode);
        swept.advance(2.0);
        assert_eq!(
            swept.unswept(),
            [endpoint(2.0, true)],
            "only the open segment's start waits"
        );
        swept.stretch(open, 0.5);
        swept.close(open);
        let b = kept.record(2.0, 1.0, SegmentKind::Decode);
        kept.stretch(b, 0.5);
        kept.close(b);
        assert_eq!(
            format!("{:?}", swept.occupancy()),
            format!("{:?}", kept.occupancy())
        );
    }

    #[test]
    #[should_panic(expected = "not an open decode segment")]
    fn closed_segments_cannot_stretch() {
        let mut tl = DeviceTimeline::default();
        let id = tl.record(0.0, 1.0, SegmentKind::Decode);
        tl.close(id);
        tl.stretch(id, 0.5);
    }

    #[test]
    fn timeline_run_serves_everyone_and_records_segments() {
        let stream = arrivals(5, 41, 1.0);
        let run = TimelineServerSim::new(
            server(5, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineTuning::honest().config(EventConfig::windowed(4, 0.0)),
        )
        .run(&stream)
        .expect("timeline run");
        assert_eq!(run.served.len(), 5);
        assert!(run.timeline.segments > 0, "segments were recorded");
        assert!(run.timeline.busy_secs > 0.0);
        assert!(run.timeline.busy_secs <= run.timeline.span_secs + 1e-9);
        assert!(run.peak_reserved_bytes <= run.pool_bytes);
    }

    #[test]
    fn token_joins_serve_everyone_with_same_answers() {
        // Chunked decode with mid-launch joins moves clocks, never
        // outcomes: answers and accepted tokens must match the
        // iteration-granularity run exactly.
        let stream = arrivals(5, 23, 1.0);
        let event = EventConfig::windowed(4, 0.0);
        let iter_run = TimelineServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineTuning::honest().config(event),
        )
        .run(&stream)
        .expect("iteration run");
        let joins_run = TimelineServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineTuning::honest().with_token_joins().config(event),
        )
        .run(&stream)
        .expect("joins run");
        assert_eq!(joins_run.served.len(), 5);
        for (a, b) in iter_run.served.iter().zip(&joins_run.served) {
            assert_eq!(a.outcome.answer, b.outcome.answer);
            assert_eq!(a.accepted_tokens(), b.accepted_tokens());
        }
    }

    #[test]
    fn only_token_joins_book_join_wait() {
        let stream = arrivals(5, 61, 0.5);
        let event = EventConfig::windowed(4, 0.0);
        let iter_run = TimelineServerSim::new(
            server(3, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineTuning::honest().config(event),
        )
        .run(&stream)
        .expect("iteration run");
        for r in &iter_run.served {
            assert_eq!(
                r.outcome.stats.breakdown().join_wait,
                0.0,
                "iteration-granularity scheduling has no chunk boundary to wait at"
            );
        }
        let joins_run = TimelineServerSim::new(
            server(3, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineTuning::honest()
                .with_token_joins()
                .with_join_quantum(4)
                .config(event),
        )
        .run(&stream)
        .expect("joins run");
        let total_join_wait: f64 = joins_run
            .served
            .iter()
            .map(|r| r.outcome.stats.breakdown().join_wait)
            .sum();
        assert!(
            total_join_wait > 0.0,
            "co-batched chunk boundaries must book join waits"
        );
        for r in &joins_run.served {
            let b = r.outcome.stats.breakdown();
            assert!(b.join_wait <= b.idle + 1e-9, "join_wait is a slice of idle");
        }
    }
}
