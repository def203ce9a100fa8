//! The scheduler run loop: event-driven continuous batching over a
//! global per-device kernel timeline.
//!
//! [`TimelineServerSim::run_directed`] is the one request-level serving
//! loop in this crate. The other batching schedulers are presets of it,
//! and keep no loop of their own:
//!
//! | front door | policy |
//! |---|---|
//! | [`BatchedServerSim`](crate::BatchedServerSim) | `TimelineConfig::anchored(EventConfig::lockstep(batch))`: lockstep rounds |
//! | [`EventServerSim`](crate::EventServerSim) | `TimelineConfig::anchored(event)`: launches inside a co-batch window |
//! | [`TimelineServerSim`] | any [`TimelineConfig`], honesty features included |
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
//! Every launch lands on a [`DeviceTimeline`] as costed [`Segment`]s.
//! In anchored mode the timeline only observes. Two honesty features,
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
//! event-driven and timeline loops that agreed bit for bit.
//!
//! # Granularity limits
//!
//! Faults, SLO sweeps, directed cancels and elastic share rebalances
//! stay at *launch* granularity even in token-join mode: they apply at
//! the pre-launch boundary (mid-launch admission may still shrink
//! shares through the shared admission probe). One iteration per
//! member per launch is preserved — chunking splits the iteration's
//! decode phase, not the TTS loop.

use std::collections::VecDeque;

use ftts_engine::{DecodeStatus, EngineError, RunPhase, StepStatus, VerifyCharge, VerifyChunk};
use ftts_kv::{HostTier, PoolBudget};
use ftts_metrics::TimelineOccupancy;
use ftts_search::SearchKind;
use ftts_workload::RequestArrival;

use crate::admission::{self, InFlight, SchedCtx};
use crate::batch_server::BatchRun;
use crate::event_server::{EventConfig, RunDirectives};
use crate::faults::{FaultCursor, FaultPlan, LaunchFaults};
use crate::server::{ServeOutcome, ServedRequest, TtsServer};

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

/// One costed kernel launch on the device timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Absolute start instant, seconds.
    pub start: f64,
    /// Absolute end instant, seconds (`>= start`); grows under
    /// retroactive contention stretch.
    pub end: f64,
    /// Kernel kind.
    pub kind: SegmentKind,
    /// Sequences the kernel carried (decode frontier width, verifier
    /// sweep sequences, or 1 for a swap transfer).
    pub seqs: usize,
}

/// The global per-device kernel timeline: every launch the scheduler
/// commits lands here as a [`Segment`] on one shared clock, and
/// segments already recorded can be retroactively stretched when a
/// later launch overlaps them.
#[derive(Debug, Clone, Default)]
pub struct DeviceTimeline {
    segments: Vec<Segment>,
    stretch_secs: f64,
}

impl DeviceTimeline {
    /// Record a segment; returns its id for later
    /// [`DeviceTimeline::stretch`] calls.
    pub fn record(&mut self, start: f64, duration: f64, kind: SegmentKind, seqs: usize) -> usize {
        assert!(start.is_finite(), "segment start must be finite");
        assert!(duration >= 0.0, "segment duration must be non-negative");
        self.segments.push(Segment {
            start,
            end: start + duration,
            kind,
            seqs,
        });
        self.segments.len() - 1
    }

    /// Retroactively stretch segment `id` by `extra` seconds — a later
    /// launch overlapped it and slowed its kernel. Stretch never
    /// shrinks a segment.
    pub fn stretch(&mut self, id: usize, extra: f64) {
        assert!(extra >= 0.0, "stretch never shrinks a segment");
        self.segments[id].end += extra;
        self.stretch_secs += extra;
    }

    /// The recorded segments, in record order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total retroactive stretch applied so far, seconds.
    pub fn stretch_secs(&self) -> f64 {
        self.stretch_secs
    }

    /// Roll the timeline up into occupancy statistics: span, per-kind
    /// busy sums, the overlap-aware busy union and the peak overlap
    /// depth.
    pub fn occupancy(&self) -> TimelineOccupancy {
        if self.segments.is_empty() {
            return TimelineOccupancy::default();
        }
        let mut occ = TimelineOccupancy {
            segments: self.segments.len() as u64,
            stretch_secs: self.stretch_secs,
            ..Default::default()
        };
        let mut first = f64::INFINITY;
        let mut last = f64::NEG_INFINITY;
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(self.segments.len() * 2);
        for s in &self.segments {
            let dur = s.end - s.start;
            match s.kind {
                SegmentKind::Decode => occ.decode_secs += dur,
                SegmentKind::Verify => occ.verify_secs += dur,
                SegmentKind::Swap => occ.swap_secs += dur,
            }
            first = first.min(s.start);
            last = last.max(s.end);
            events.push((s.start, 1));
            events.push((s.end, -1));
        }
        occ.span_secs = (last - first).max(0.0);
        // Sweep the interval union; at equal instants ends close before
        // starts open, so back-to-back segments never count as overlap.
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite segment bounds")
                .then(a.1.cmp(&b.1))
        });
        let mut depth = 0i32;
        let mut max_depth = 0i32;
        let mut open_at = 0.0f64;
        for (t, d) in events {
            if depth == 0 && d > 0 {
                open_at = t;
            }
            depth += d;
            if depth == 0 {
                occ.busy_secs += t - open_at;
            }
            max_depth = max_depth.max(depth);
        }
        occ.max_concurrency = max_depth.max(0) as u32;
        occ
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

impl TimelineConfig {
    /// The anchored mode ([`TimelineTuning::anchored`]): the policy
    /// [`EventServerSim`](crate::EventServerSim) runs under `event`;
    /// the timeline only observes.
    pub fn anchored(event: EventConfig) -> Self {
        TimelineTuning::anchored().config(event)
    }

    /// Honest iteration-granularity scheduling
    /// ([`TimelineTuning::honest`]).
    pub fn honest(event: EventConfig) -> Self {
        TimelineTuning::honest().config(event)
    }

    /// Enable token-granularity decode joins (keeps the current
    /// contention setting).
    pub fn with_token_joins(mut self) -> Self {
        self.tuning = self.tuning.with_token_joins();
        self
    }

    /// Override the join quantum (decode tokens per sequence between
    /// chunk boundaries).
    pub fn with_join_quantum(mut self, quantum: u64) -> Self {
        self.tuning = self.tuning.with_join_quantum(quantum);
        self
    }
}

/// What the loop records on the device timeline: every segment, plus
/// each request's latest decode segment (the one a later launch's
/// contention stretches).
struct Observer {
    timeline: DeviceTimeline,
    last_decode: Vec<Option<usize>>,
}

impl Observer {
    fn new(requests: usize) -> Self {
        Self {
            timeline: DeviceTimeline::default(),
            last_decode: vec![None; requests],
        }
    }

    /// Record `a`'s decode from absolute instant `start` to its current
    /// clock as its latest decode segment (nothing if no time passed).
    fn decode(&mut self, a: &InFlight, start: f64) {
        let end = a.started_at + a.run.clock();
        if end > start {
            let id = self.timeline.record(
                start,
                end - start,
                SegmentKind::Decode,
                a.run.decode_load().0,
            );
            self.last_decode[a.idx] = Some(id);
        }
    }

    /// Retroactive contention: `added` decode load joined the device at
    /// `at`, so every bystander iteration still in flight stretches by
    /// the marginal co-batch slowdown over its remaining seconds, and
    /// its decode segment already on the timeline stretches with it.
    fn stretch_bystanders(&mut self, bystanders: &mut [InFlight], added: (usize, u64), at: f64) {
        for a in bystanders {
            let remaining = (a.ready_at() - at).max(0.0);
            let extra = a.run.contention_stretch(added.0, added.1, remaining);
            if extra > 0.0 {
                if let Some(id) = self.last_decode[a.idx] {
                    self.timeline.stretch(id, extra);
                }
            }
        }
    }
}

/// Summed decode load `(sequences, context tokens)` of `runs`.
fn decode_load<'a>(runs: impl IntoIterator<Item = &'a InFlight>) -> (usize, u64) {
    runs.into_iter()
        .map(|a| a.run.decode_load())
        .fold((0, 0), |(s, c), (ls, lc)| (s + ls, c + lc))
}

/// Price one decode step of `group` over the whole in-flight set: each
/// `decoding` member is costed against everyone else's load (requests
/// outside the launch overlap it on the device), and speculates only
/// while `alone`, until the next known arrival would start waiting —
/// the two-phase rule.
fn price_decode(
    group: &mut [InFlight],
    rest: &[InFlight],
    alone: bool,
    next_at: Option<f64>,
    decoding: impl Fn(usize) -> bool,
) {
    let loads: Vec<(usize, u64)> = group.iter().map(|a| a.run.decode_load()).collect();
    let (rest_seqs, rest_ctx) = decode_load(rest);
    let total_seqs = loads.iter().map(|l| l.0).sum::<usize>() + rest_seqs;
    let total_ctx = loads.iter().map(|l| l.1).sum::<u64>() + rest_ctx;
    for (i, a) in group.iter_mut().enumerate() {
        if !decoding(i) {
            continue;
        }
        a.run
            .set_co_batch(total_seqs - loads[i].0, total_ctx - loads[i].1);
        let spec_off = match next_at {
            _ if !alone => 0.0,
            Some(at) => (at - a.started_at).max(0.0),
            None => f64::INFINITY,
        };
        a.run.set_spec_off_after(spec_off);
    }
}

/// Replays a request arrival stream with event-driven continuous
/// batching over a global per-device kernel timeline: every launch is
/// a costed segment on one clock, cross-launch decode overlap is
/// priced retroactively, and (optionally) arrivals join the in-flight
/// decode batch at token-chunk boundaries. This is the crate's one
/// scheduler run loop; see the module docs for the execution model and
/// the presets built on it.
#[derive(Debug, Clone)]
pub struct TimelineServerSim {
    server: TtsServer,
    n: usize,
    kind: SearchKind,
    config: TimelineConfig,
}

impl TimelineServerSim {
    /// Simulate `server` answering requests with `n` beams each under
    /// the given timeline policy.
    pub fn new(server: TtsServer, n: usize, kind: SearchKind, config: TimelineConfig) -> Self {
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

    /// The timeline policy in effect.
    pub fn config(&self) -> &TimelineConfig {
        &self.config
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
    /// bit-for-bit — the fleet's 1-device pass-through anchor.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    #[allow(clippy::too_many_lines)]
    pub fn run_directed(
        &self,
        arrivals: &[RequestArrival],
        plan: &FaultPlan,
        directives: &RunDirectives,
    ) -> Result<BatchRun, EngineError> {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival times must be non-decreasing"
        );
        let batch = &self.config.event.batch;
        let window = self.config.event.window_secs;
        let tuning = self.config.tuning;
        let lockstep = window.is_infinite();
        let pool_bytes = self.server.config().kv_budget_bytes();
        let device = self.server.config().device.clone();
        let gen_bpt = self.server.config().models.gen_spec.kv_bytes_per_token();
        let mut pool = PoolBudget::new(pool_bytes);
        if let Some(policy) = batch.tenants {
            for spec in policy.specs() {
                pool.set_tenant_cap(u64::from(spec.id), spec.kv_cap_bytes);
            }
        }
        let mut tier = HostTier::new(batch.tier);
        // Earliest instant the next launch may happen: raised by
        // preemption PCIe transfers, by completions that drain the
        // device, and (in lockstep mode) by every launch's round end.
        let mut floor = 0.0f64;
        // Latest completion instant seen — the device-drained floor.
        let mut finish_max = 0.0f64;
        let mut next_arrival = 0usize;
        let mut waiting: VecDeque<usize> = VecDeque::new();
        let mut paused: VecDeque<InFlight> = VecDeque::new();
        let mut active: Vec<InFlight> = Vec::new();
        let mut served: Vec<Option<ServedRequest>> = (0..arrivals.len()).map(|_| None).collect();
        let mut admit_seq = 0u64;
        let mut rounds = 0u64;
        let mut group_iters = 0u64;
        let mut preemptions = 0u32;
        let mut ver_sweeps = 0u64;
        let mut ver_seqs = 0u64;
        let mut ver_busy_secs = 0.0f64;
        let mut cursor = FaultCursor::default();
        let mut kernel_faults = 0u32;
        let mut fault_retries = 0u32;
        let mut kv_loss_events = 0u32;
        let mut lost_blocks = 0u64;
        let mut shed = 0u32;
        let mut cancelled = 0u32;
        let mut degradations = 0u32;
        let mut tier_dropped = 0u64;
        // Directed cancels: earliest instant per arrival index (∞ =
        // never), applied at launch boundaries like deadline sweeps.
        let has_cancels = !directives.cancels.is_empty();
        let mut cancel_at = vec![f64::INFINITY; arrivals.len()];
        for &(idx, t) in &directives.cancels {
            assert!(idx < arrivals.len(), "cancel index out of range");
            cancel_at[idx] = cancel_at[idx].min(t);
        }
        let mut prewarms = directives.prewarms.clone();
        prewarms.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite prewarm times"));
        let mut prewarm_next = 0usize;
        let mut observer = Observer::new(arrivals.len());

        loop {
            // Next decision instant: the earliest ready request, or the
            // next arrival.
            let next_ready = active
                .iter()
                .map(InFlight::ready_at)
                .fold(f64::INFINITY, f64::min);
            let next_arr = arrivals.get(next_arrival).map_or(f64::INFINITY, |a| a.at);

            if active.is_empty() {
                // The device is drained; nothing launches before the
                // last completion.
                floor = floor.max(finish_max);
                if waiting.is_empty() && paused.is_empty() {
                    if next_arrival >= arrivals.len() {
                        break; // everything served
                    }
                    // Idle until the next arrival.
                    floor = floor.max(next_arr);
                }
            }

            // Anchor: the earliest instant a new co-batch can launch. A
            // pending arrival anchors its own (fresh) launch only when
            // mid-flight admission could actually take it — otherwise
            // it is ingested when the next ready-driven launch forms.
            let arrival_anchor = next_arr.max(floor);
            let consider_arrival = batch.admit_mid_flight
                && active.len() < batch.max_batch
                && arrival_anchor < next_ready;
            let anchor = if active.is_empty() {
                floor
            } else if consider_arrival {
                arrival_anchor
            } else {
                next_ready
            };

            // Group: every in-flight request whose next iteration can
            // start inside the batching window. The partition is stable,
            // so the group keeps admission order (the order shares
            // resize and unfused sweeps serialize in).
            let horizon = anchor + window;
            let mut group: Vec<InFlight> = Vec::new();
            let mut rest: Vec<InFlight> = Vec::new();
            for a in active.drain(..) {
                if a.ready_at() <= horizon {
                    group.push(a);
                } else {
                    rest.push(a);
                }
            }

            // Launch: the latest member's ready time, never before the
            // device floor. Members ready earlier wait the gap — a
            // window wait (plain idle), except at an infinite window,
            // where the wait *is* the lockstep round barrier.
            let mut launch = group
                .iter()
                .map(InFlight::ready_at)
                .fold(anchor.max(floor), f64::max);
            for a in &mut group {
                if lockstep {
                    admission::pad_to_barrier(a, launch);
                } else {
                    admission::pad_to(a, launch);
                }
            }

            // Ingest arrivals due by the launch, then admit (readmits
            // first, then fresh arrivals — the shared tiebreak) into the
            // group at the launch instant.
            while next_arrival < arrivals.len() && arrivals[next_arrival].at <= launch {
                waiting.push_back(next_arrival);
                next_arrival += 1;
            }
            let ctx = SchedCtx {
                server: &self.server,
                n: self.n,
                kind: self.kind,
                config: batch,
            };
            // Directed prefix handoffs due by this launch land in the
            // tier before admission, so a migrated request admits warm.
            while prewarm_next < prewarms.len() && prewarms[prewarm_next].at <= launch {
                let p = prewarms[prewarm_next];
                tier.publish_prefix(p.key, p.tokens, p.bytes);
                prewarm_next += 1;
            }
            // Directed cancellations sweep at the same pre-admission
            // boundary as deadline enforcement, under any fault policy.
            if has_cancels {
                let sweep = admission::apply_cancels(
                    batch,
                    &cancel_at,
                    launch,
                    arrivals,
                    &mut waiting,
                    &mut paused,
                    &mut group,
                    &mut rest,
                    &mut pool,
                    &mut tier,
                    &mut served,
                );
                shed += sweep.shed;
                cancelled += sweep.cancelled;
            }
            // Deadline/SLO enforcement (active only under the Degrade
            // policy): shed stale or infeasible arrivals and cancel
            // hopeless runs before they burn device time.
            let sweep = admission::enforce_slo(
                &ctx,
                launch,
                pool_bytes,
                arrivals,
                &mut waiting,
                &mut paused,
                &mut group,
                &mut rest,
                &mut pool,
                &mut tier,
                &mut served,
            );
            shed += sweep.shed;
            cancelled += sweep.cancelled;
            let admitted_from = group.len();
            let report = admission::admit(
                &ctx,
                &mut group,
                &mut rest,
                &mut paused,
                &mut waiting,
                &mut pool,
                &mut tier,
                arrivals,
                launch,
                &mut admit_seq,
            )?;
            degradations += report.degradations;
            // Admission boundary: size elastic shares by demand (and,
            // under a tenant policy, by tenant fair-share).
            if report.admitted && admission::elastic(batch) {
                admission::rebalance_elastic(batch, &mut group, &mut rest, &mut pool);
            }
            // The load this launch admits slows every iteration still in
            // flight outside it. (At an infinite window the rest is
            // always empty.)
            if tuning.contention && report.admitted {
                let added = decode_load(&group[admitted_from..]);
                observer.stretch_bystanders(&mut rest, added, launch);
            }

            if group.is_empty() && rest.is_empty() {
                if waiting.is_empty() && paused.is_empty() {
                    continue; // idle to the next arrival (or done)
                }
                // A lone candidate that cannot fit the whole pool: fresh
                // requests already propagated from admission, so this is
                // a preempted run whose paths outgrew the device.
                let p = paused.front().expect("paused candidate");
                let (needed, capacity) = p.run.kv_demand();
                return Err(EngineError::PathExceedsMemory { needed, capacity });
            }
            if group.is_empty() {
                // The anchor produced no launch (a blocked arrival, or
                // every in-flight request beyond the horizon): put the
                // in-flight set back and wait for the next ready event.
                active = rest;
                continue;
            }

            // Memory-pressure preemption over the launching group (the
            // rest are re-probed when they launch): runs that cannot
            // progress or would thrash their share are swapped out
            // youngest-first; a lone request is never preempted.
            while group.len() + rest.len() > 1 {
                let victim = group
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| !a.run.can_progress() || !a.run.fits_working_set())
                    .max_by_key(|(_, a)| a.admit_seq)
                    .map(|(i, _)| i);
                let Some(vi) = victim else { break };
                let mut v = group.remove(vi);
                // With a host tier, swap-down is capped at the tier's
                // free capacity: what fits parks (and is PCIe-costed),
                // the overflow is dropped and recomputed on readmission.
                let bytes = if tier.enabled() {
                    let (swapped, dropped) = v.run.preempt_capped(tier.available_bytes());
                    tier.park(v.idx as u64, swapped);
                    tier_dropped += dropped;
                    swapped
                } else {
                    v.run.preempt()
                };
                let swap_start = launch;
                launch += device.pcie_transfer_seconds(bytes);
                if launch > swap_start {
                    observer
                        .timeline
                        .record(swap_start, launch - swap_start, SegmentKind::Swap, 1);
                }
                pool.release(v.idx as u64);
                v.preemptions += 1;
                preemptions += 1;
                v.paused_at = launch;
                v.probe = None;
                paused.push_back(v);
                // Preemption boundary: survivors regrow or rebalance.
                admission::reshare(batch, &mut group, &mut rest, &mut pool);
            }
            // The launch (with any preemption PCIe time) is committed
            // device time: later launches never precede it.
            floor = floor.max(launch);
            if group.is_empty() {
                active = rest;
                continue;
            }

            // One launch: the group executes one TTS iteration over the
            // shared accelerator in the four split phases.
            rounds += 1;
            group_iters += group.len() as u64;
            let mut round_end = launch;
            let mut finished: Vec<usize> = Vec::new();

            // Phase 1 — plan: memory replan plus the co-batched decode,
            // recorded on the device timeline. Token-join mode runs it
            // as chunked sub-iterations with mid-launch admission at
            // chunk boundaries; otherwise each member plans its whole
            // generation phase.
            let mut planned: Vec<bool>;
            if tuning.token_joins {
                let mut gen_done: Vec<bool> = group.iter().map(|a| a.run.is_finished()).collect();
                planned = gen_done.iter().map(|done| !done).collect();
                loop {
                    // Re-derive the co-batch every chunk: membership
                    // (joins, early generation finishes) and context
                    // both move at chunk boundaries.
                    let alone = group.len() == 1
                        && rest.is_empty()
                        && waiting.is_empty()
                        && paused.is_empty();
                    let next_at = arrivals.get(next_arrival).map(|a| a.at);
                    price_decode(&mut group, &rest, alone, next_at, |i| !gen_done[i]);
                    let mut chunk_end: Vec<Option<f64>> = vec![None; group.len()];
                    for (i, a) in group.iter_mut().enumerate() {
                        if gen_done[i] {
                            continue;
                        }
                        match a
                            .run
                            .plan_decode_chunk(a.driver.as_mut(), tuning.join_quantum)?
                        {
                            DecodeStatus::Planned(chunk) => {
                                chunk_end[i] = Some(
                                    a.started_at + a.run.clock() + a.run.chunk_seconds(&chunk),
                                );
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
                        break;
                    }
                    // The join boundary: the slowest co-batched chunk's
                    // predicted end (chunk_seconds is bit-identical to
                    // the charge apply books).
                    let boundary = chunk_end.iter().flatten().fold(launch, |m, &e| m.max(e));
                    for (i, a) in group.iter_mut().enumerate() {
                        if chunk_end[i].is_none() {
                            continue;
                        }
                        let seg_start = a.started_at + a.run.clock();
                        let status = a.run.apply_decode_chunk(a.driver.as_mut())?;
                        observer.decode(a, seg_start);
                        if status == DecodeStatus::Generated {
                            gen_done[i] = true;
                        } else {
                            // Members still decoding wait for the
                            // slowest chunk — the token-join sync
                            // (boundary is absolute; the pad converts
                            // to this run's relative clock).
                            admission::pad_to_join(a, boundary);
                        }
                    }
                    // Token-granularity join: arrivals due by the
                    // boundary admit into the running decode batch here
                    // instead of waiting out the whole launch.
                    while next_arrival < arrivals.len() && arrivals[next_arrival].at <= boundary {
                        waiting.push_back(next_arrival);
                        next_arrival += 1;
                    }
                    if group.len() + rest.len() < batch.max_batch
                        && !(waiting.is_empty() && paused.is_empty())
                    {
                        let before = group.len();
                        let report = admission::admit(
                            &ctx,
                            &mut group,
                            &mut rest,
                            &mut paused,
                            &mut waiting,
                            &mut pool,
                            &mut tier,
                            arrivals,
                            boundary,
                            &mut admit_seq,
                        )?;
                        degradations += report.degradations;
                        if group.len() > before {
                            group_iters += (group.len() - before) as u64;
                            for _ in before..group.len() {
                                gen_done.push(false);
                                planned.push(true);
                            }
                            if tuning.contention {
                                let added = decode_load(&group[before..]);
                                observer.stretch_bystanders(&mut rest, added, boundary);
                            }
                        }
                    }
                }
            } else {
                let alone =
                    group.len() == 1 && rest.is_empty() && waiting.is_empty() && paused.is_empty();
                let next_at = arrivals.get(next_arrival).map(|a| a.at);
                price_decode(&mut group, &rest, alone, next_at, |_| true);
                planned = Vec::with_capacity(group.len());
                for a in &mut group {
                    let seg_start = a.started_at + a.run.clock();
                    planned.push(!a.run.plan_iteration(a.driver.as_mut())?.is_finished());
                    observer.decode(a, seg_start);
                }
            }

            // Phase 2 — gather: every run's verifier mirror work and the
            // prefill chunks still owed kernel time.
            let plans: Vec<Vec<VerifyChunk>> = group
                .iter_mut()
                .zip(&planned)
                .map(|(a, &p)| {
                    if p {
                        a.run.take_verify_batch().to_vec()
                    } else {
                        Vec::new()
                    }
                })
                .collect();

            // Phase 3 — cost: price the group's verifier sweeps over the
            // one shared accelerator (fused or serialized), recorded as
            // one verifier segment from the earliest member's
            // generation end.
            let mut charges: Vec<Vec<VerifyCharge>> = vec![Vec::new(); group.len()];
            let sweep =
                admission::cost_verify_sweeps(batch.fused_verify, &mut group, &plans, &mut charges);
            ver_sweeps += sweep.sweeps;
            ver_seqs += sweep.seqs;
            ver_busy_secs += sweep.busy_secs;
            if sweep.busy_secs > 0.0 {
                let verify_start = group
                    .iter()
                    .map(|a| a.started_at + a.run.clock())
                    .fold(f64::INFINITY, f64::min);
                observer.timeline.record(
                    verify_start,
                    sweep.busy_secs,
                    SegmentKind::Verify,
                    sweep.seqs as usize,
                );
            }

            // Phase 4 — commit: charge the sweeps, reveal scores, branch
            // survivors; apply the opt-in First Finish cut.
            for (i, a) in group.iter_mut().enumerate() {
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

            // Injected faults due this launch, popped once, in time
            // order, from the plan cursor. Kernel faults and throttle
            // windows hit the kernels launched now — the group — and
            // their time books to the `fault` bucket in proportion to
            // each member's busy seconds this launch. Device KV loss is
            // state damage and hits every device-resident request,
            // bystanders included; swapped-out requests survive in host
            // RAM and recover by deterministic recompute.
            let faults = LaunchFaults::at(&mut cursor, plan, &batch.robust, launch);
            if faults.fired() {
                kernel_faults += faults.kernel_faults;
                fault_retries += faults.retries;
                for a in group.iter_mut() {
                    let dt = (a.started_at + a.run.clock() - launch).max(0.0);
                    a.run
                        .stall_fault(dt * faults.busy_stretch + faults.backoff_secs);
                    if faults.kernel_faults > 0 {
                        a.run.note_kernel_faults(
                            faults.kernel_faults,
                            faults.retries,
                            faults.backoff_secs,
                        );
                    }
                    if faults.slowdown_stretch > 0.0 {
                        a.run.note_slowdown(dt * faults.slowdown_stretch);
                    }
                }
                if faults.kv_losses > 0 {
                    kv_loss_events += faults.kv_losses;
                    for a in group.iter_mut().chain(rest.iter_mut()) {
                        lost_blocks += a.run.lose_device_kv();
                    }
                }
                round_end = group
                    .iter()
                    .map(|a| a.started_at + a.run.clock())
                    .fold(launch, f64::max);
            }
            // In lockstep mode the round end *is* the barrier: nothing —
            // including the next admission — happens before it, and
            // finished members hold it. With a finite window the floor
            // stays at the launch: survivors and bystanders advance at
            // their own cadence.
            if lockstep {
                floor = floor.max(round_end);
            }

            // Completions leave the batch at their own finish instant.
            // The prompt prefix is offered to the host tier's shared
            // store on the way out (a no-op when the tier is disabled):
            // a later request for the same problem admits warm.
            for &i in finished.iter().rev() {
                let a = group.remove(i);
                pool.release(a.idx as u64);
                let prompt_tokens = arrivals[a.idx].problem.prompt_tokens;
                tier.publish_prefix(
                    arrivals[a.idx].problem.seed,
                    prompt_tokens,
                    prompt_tokens.saturating_mul(gen_bpt),
                );
                let stats = a.run.finish();
                let answer = ftts_metrics::top1_majority(&stats.answers());
                let finished_at = a.started_at + stats.latency();
                finish_max = finish_max.max(finished_at);
                served[a.idx] = Some(ServedRequest {
                    arrived_at: a.arrived_at,
                    started_at: a.started_at,
                    finished_at,
                    preemptions: a.preemptions,
                    preempted_secs: a.preempted_secs,
                    slo: a.slo,
                    deadline: a.deadline,
                    shed: false,
                    granted_n: a.granted_n,
                    outcome: ServeOutcome { stats, answer },
                });
            }

            // Completion boundary: re-share the surviving in-flight set.
            // Otherwise check demand drift: trees grow for many
            // iterations between boundaries, and shares frozen at an
            // early snapshot would shrink a growing request into
            // preemption.
            if !(group.is_empty() && rest.is_empty()) {
                if !finished.is_empty() {
                    admission::reshare(batch, &mut group, &mut rest, &mut pool);
                } else if admission::elastic(batch) && admission::demand_drifted(&group, &rest) {
                    admission::rebalance_elastic(batch, &mut group, &mut rest, &mut pool);
                }
            }

            // Return survivors to the in-flight set in admission order
            // (admit_seq is assigned monotonically).
            rest.append(&mut group);
            active = rest;
            active.sort_by_key(|a| a.admit_seq);
        }

        Ok(BatchRun {
            served: served
                .into_iter()
                .map(|r| r.expect("every request served"))
                .collect(),
            rounds,
            group_iters,
            preemptions,
            peak_reserved_bytes: pool.peak_reserved_bytes(),
            pool_bytes,
            ver_sweeps,
            ver_seqs,
            ver_busy_secs,
            kernel_faults,
            fault_retries,
            kv_loss_events,
            lost_blocks,
            shed,
            cancelled,
            degradations,
            final_reserved_bytes: pool.reserved_bytes(),
            kv_tier_hits: tier.stats().prefix_hits,
            kv_tier_demotions: tier.stats().demotions,
            kv_tier_parked_bytes: tier.stats().parked_bytes,
            kv_tier_dropped_bytes: tier_dropped + tier.stats().overflow_dropped_bytes,
            kv_tier_unparked_bytes: tier.stats().unparked_bytes,
            tenant_peak_bytes: pool
                .tenant_peaks()
                .into_iter()
                .map(|(t, b)| (t as u32, b))
                .collect(),
            timeline: observer.timeline.occupancy(),
        })
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

    #[test]
    fn config_presets() {
        let event = EventConfig::windowed(4, 0.0);
        let anchored = TimelineConfig::anchored(event);
        assert!(!anchored.tuning.contention && !anchored.tuning.token_joins);
        let honest = TimelineConfig::honest(event);
        assert!(honest.tuning.contention && !honest.tuning.token_joins);
        let joins = TimelineConfig::honest(event)
            .with_token_joins()
            .with_join_quantum(8);
        assert!(joins.tuning.token_joins);
        assert_eq!(joins.tuning.join_quantum, 8);
        assert_eq!(
            joins,
            TimelineTuning::honest()
                .with_token_joins()
                .with_join_quantum(8)
                .config(event)
        );
    }

    #[test]
    #[should_panic(expected = "join quantum must be at least one token")]
    fn zero_quantum_is_rejected() {
        let _ = TimelineConfig::anchored(EventConfig::windowed(4, 0.0)).with_join_quantum(0);
    }

    #[test]
    fn segment_union_handles_overlap() {
        let mut tl = DeviceTimeline::default();
        tl.record(0.0, 2.0, SegmentKind::Decode, 4);
        tl.record(1.0, 2.0, SegmentKind::Decode, 4);
        tl.record(4.0, 1.0, SegmentKind::Verify, 8);
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
        tl.record(0.0, 1.0, SegmentKind::Decode, 1);
        tl.record(1.0, 1.0, SegmentKind::Decode, 1);
        let occ = tl.occupancy();
        assert_eq!(occ.max_concurrency, 1);
        assert!((occ.busy_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_extends_segment_and_rollup() {
        let mut tl = DeviceTimeline::default();
        let id = tl.record(0.0, 1.0, SegmentKind::Decode, 2);
        tl.stretch(id, 0.5);
        assert!((tl.segments()[id].end - 1.5).abs() < 1e-12);
        let occ = tl.occupancy();
        assert!((occ.stretch_secs - 0.5).abs() < 1e-12);
        assert!((occ.busy_secs - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timeline_run_serves_everyone_and_records_segments() {
        let stream = arrivals(5, 41, 1.0);
        let run = TimelineServerSim::new(
            server(5, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineConfig::honest(EventConfig::windowed(4, 0.0)),
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
            TimelineConfig::honest(event),
        )
        .run(&stream)
        .expect("iteration run");
        let joins_run = TimelineServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineConfig::honest(event).with_token_joins(),
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
            TimelineConfig::honest(event),
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
            TimelineConfig::honest(event)
                .with_token_joins()
                .with_join_quantum(4),
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
