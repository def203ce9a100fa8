//! N-device fleet serving: routing, crash failover, hedged stragglers.
//!
//! A [`FleetSim`] runs one device timeline per replica behind a router:
//! each replica runs the timeline loop
//! ([`TimelineServerSim`](crate::TimelineServerSim)) under the fleet's
//! [`FleetConfig::policy`]. The edge "fleet" the paper targets is a
//! handful of flaky accelerators, so robustness is built into the
//! routing layer rather than bolted on:
//!
//! * **Pluggable routing** ([`RoutePolicy`]): round-robin, join-shortest
//!   -queue, prefix-affinity (follow the replica whose
//!   [`HostTier`](crate::HostTier) holds the warm prompt prefix), and
//!   health-aware EWMA-latency routing (sick replicas — slowdown
//!   windows, crash recoveries — report inflated completion latencies
//!   and shed new load).
//! * **Crash failover.** Device-scoped crash events
//!   ([`FaultKind::DeviceCrash`](crate::FaultKind)) are stripped from
//!   the per-device fault plan and handled here: every leg in flight or
//!   queued on the crashed replica is cancelled there (device KV lost —
//!   the PR 6 replay path; parked tier bytes unparked — nothing
//!   strands), and, with [`FleetConfig::failover`] on, re-routed to a
//!   surviving replica after a 2-second hand-off. A leg that had
//!   already prefilled hands its prompt prefix to the
//!   target's host tier ([`PrewarmPrefix`]) so the migrated attempt
//!   warm-starts (PR 7 `WarmStart`) instead of re-prefilling. The
//!   migration budget is booked into the winning record's
//!   `LatencyBreakdown::fault` (hand-off) and `swap` (warm swap-in,
//!   booked by the engine) buckets, so busy buckets stay comparable to
//!   a crash-free run. Without failover the crash events stay in the
//!   device plan: the naive baseline stalls out the outage and replays
//!   lost KV on the same replica.
//! * **Hedged stragglers.** Past a p99-based hedge delay
//!   ([`HedgeConfig`]), the router duplicates a still-running request on
//!   a second replica. First finisher wins; the loser is cancelled with
//!   full pool/tier reclaim ([`RunDirectives`]). Scheduling moves
//!   clocks, never outcomes — both replicas of a request compute the
//!   same answer from the same `(engine seed, problem seed)` — so a
//!   hedge can only move a completion earlier, never change it.
//!
//! # Determinism
//!
//! The routing decision loop is sequential over a merged, totally
//! ordered event timeline (arrivals, crashes, hedge checks, hedge
//! resolutions), and every router observable (queue depths, completed
//! latencies, EWMA health) is derived from per-device simulations that
//! are themselves deterministic.
//!
//! Each device keeps one live run of the timeline loop over its current
//! legs, stepped lazily. A router query at instant `t` steps each
//! device it reads until the device's next launch lies past `t` (`t`
//! may be a future instant, such as a migration's landing), then reads
//! only records sealed by `t` and the start of requests still in
//! flight. Only the hedge paths read a leg's final outcome (whether it
//! is shed, and when it finishes); they step that device until the leg
//! is sealed. When the event queue drains, every device runs to
//! completion in place: the fleet spawns no worker threads.
//!
//! An edit to a device's legs changes its inputs from an instant `e`
//! on: a new leg arrives at `e` (its warm-start prefix lands then too),
//! a cancel takes effect at `e`, or a revived hedge loser's old cancel
//! instant `e` goes away. Every step of the loop reports the instant up
//! to which it read its inputs, so the device resumes from the latest
//! state no step of which read anything at or after `e`, instead of
//! from t=0, and simulates nothing until a query steps it. There are
//! three paths:
//!
//! * **in place** — no executed step read that far: the live run takes
//!   the new inputs and goes on;
//! * **restored** — the device keeps at most one checkpoint, a copy of
//!   its run taken just before the first step that a later edit could
//!   still invalidate (one whose reads reach the fleet's event clock);
//!   when no step before the checkpoint read that far, the run goes on
//!   from it;
//! * **from scratch** — otherwise. Edits land at or after the event
//!   clock, with two exceptions that may precede what even the
//!   checkpoint read: a hedge loser's cancel lands at the winner's
//!   finish, which lies behind the clock when that finish moved earlier
//!   after the resolution was scheduled, and reviving a loser after a
//!   crash removes its cancel at that old instant.
//!
//! The output is bit-identical to re-simulating each device from t=0
//! after every edit. Debug builds check that claim on every query: each
//! time-bounded answer, each final outcome and each device's final run
//! must equal the same read of the device's full run, simulated from
//! scratch once per version of its legs.
//!
//! When only one candidate is alive, the router picks it without reading
//! any device. So a 1-device fleet steps nothing before its final run:
//! every edit resumes in place, the device runs once, and the fleet is
//! bit-identical to a bare
//! [`TimelineServerSim`](crate::TimelineServerSim) under the same
//! scheduling policy, whatever its routing policy, faulted and
//! fault-free (enforced in `crates/core/tests/fleet.rs`).

use std::rc::Rc;

use ftts_engine::EngineError;
use ftts_metrics::{FleetSummary, StreamRecord, StreamSummary};
use ftts_search::SearchKind;
use ftts_workload::RequestArrival;

use crate::batch_server::BatchRun;
use crate::event_server::{EventConfig, PrewarmPrefix, RunDirectives};
use crate::faults::FaultPlan;
use crate::server::{ServedRequest, TtsServer};
use crate::timeline::{LoopState, TimelineConfig, TimelineServerSim, TimelineTuning};

/// How the fleet router picks a replica for a fresh (or migrated, or
/// hedged) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Rotate over the alive replicas in device order.
    RoundRobin,
    /// Join-shortest-queue: the alive replica with the fewest
    /// outstanding legs (assigned, not yet finished), ties to the
    /// lowest device id.
    Jsq,
    /// Prefix affinity: route to the replica that most recently
    /// completed the same problem — its [`HostTier`](crate::HostTier)
    /// holds the published warm prefix, so the request admits warm.
    /// Falls back to a replica already working the problem, then to
    /// join-shortest-queue.
    PrefixAffinity,
    /// Health-aware routing: score each alive replica by its EWMA of
    /// observed completion latencies times (outstanding + 1), and pick
    /// the minimum. Degraded or recovering replicas report long
    /// latencies and organically shed new load.
    HealthEwma,
}

/// Hedged-execution knobs: when a request has been in flight longer
/// than `delay_factor` × the router-observed p99 latency, duplicate it
/// on a second replica; first finisher wins and the loser is cancelled
/// with full reclaim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Multiple of the observed p99 completion latency to wait before
    /// hedging.
    pub delay_factor: f64,
    /// Completions the router must have observed before it trusts its
    /// p99 estimate enough to hedge.
    pub min_samples: usize,
    /// Hedge delay floor, seconds.
    pub min_delay_secs: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            delay_factor: 1.0,
            min_samples: 3,
            min_delay_secs: 1.0,
        }
    }
}

/// Seconds a migrated leg spends in hand-off (re-route, host-path
/// transfer) before it re-arrives at the failover target. Booked to the
/// winning record's fault bucket.
const MIGRATION_DELAY_SECS: f64 = 2.0;

/// Fleet-level serving knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// The per-device scheduling policy: every replica runs the same
    /// scheduler (the servers themselves may differ).
    /// [`FleetConfig::new`] sets the anchored policy of its event
    /// config, under which the timeline only observes;
    /// [`FleetConfig::with_timeline`] turns on honesty features
    /// (retroactive contention pricing, token-granularity decode joins
    /// — see [`TimelineTuning`]).
    pub policy: TimelineConfig,
    /// The routing policy.
    pub route: RoutePolicy,
    /// Crash failover: when on, device-crash events are handled at the
    /// routing layer — interrupted legs migrate to surviving replicas
    /// after a 2-second hand-off, and the router steers around downtime
    /// windows. When off (the naive baseline) crashes stay in the device
    /// plan as outages.
    pub failover: bool,
    /// Hedged execution for stragglers; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
}

impl FleetConfig {
    /// The given event policy, anchored, with routing `route`, failover
    /// on and no hedging.
    pub fn new(event: EventConfig, route: RoutePolicy) -> Self {
        Self {
            policy: event.into(),
            route,
            failover: true,
            hedge: None,
        }
    }

    /// Enable hedged execution.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Run every device's timeline loop with the given honesty tuning.
    pub fn with_timeline(mut self, tuning: TimelineTuning) -> Self {
        self.policy.tuning = tuning;
        self
    }

    /// Disable crash failover (the naive baseline: crashes become
    /// on-device outages).
    pub fn without_failover(mut self) -> Self {
        self.failover = false;
        self
    }
}

/// Why a leg exists on its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LegRole {
    /// The request's original placement.
    Primary,
    /// A crash-failover re-route of an interrupted leg.
    Migrated,
    /// A hedged duplicate of a straggling leg.
    Hedge,
}

impl LegRole {
    /// Winner tie-break rank (primary beats migrated beats hedge at an
    /// equal finish instant).
    fn rank(self) -> u8 {
        match self {
            LegRole::Primary => 0,
            LegRole::Migrated => 1,
            LegRole::Hedge => 2,
        }
    }
}

/// One placement of a request on a device.
#[derive(Debug, Clone, Copy)]
struct Leg {
    req: usize,
    device: usize,
    at: f64,
    cancel_at: f64,
    prewarm: Option<PrewarmPrefix>,
    role: LegRole,
    /// The other half of a hedge pair (primary ↔ hedge).
    partner: Option<usize>,
}

/// One scheduled fleet event. Total order: `(at, rank, seq)` — crashes
/// resolve before hedges and arrivals at the same instant, and the
/// insertion sequence breaks exact ties deterministically.
#[derive(Debug, Clone, Copy)]
struct FleetEvent {
    at: f64,
    rank: u8,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    Crash { device: usize, down_for: f64 },
    Resolve { pair: usize },
    HedgeCheck { leg: usize },
    Arrival { req: usize },
}

impl PartialEq for FleetEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at.total_cmp(&other.at).is_eq() && self.rank == other.rank && self.seq == other.seq
    }
}
impl Eq for FleetEvent {}
impl PartialOrd for FleetEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FleetEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then(self.rank.cmp(&other.rank))
            .then(self.seq.cmp(&other.seq))
    }
}

/// What one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-device runs over the legs each device executed (including
    /// cancelled crash victims and hedge losers — the device-side view
    /// of wasted work).
    pub device_runs: Vec<BatchRun>,
    /// Per original request, in arrival order: the record of the leg
    /// that delivered the answer (migration budget folded in), or the
    /// primary leg's shed record when no leg completed.
    pub served: Vec<ServedRequest>,
    /// The device whose leg served each request (`None` when shed
    /// everywhere).
    pub serving_device: Vec<Option<usize>>,
    /// Legs re-routed to a surviving replica after a crash.
    pub migrations: u64,
    /// Hedged duplicates launched.
    pub hedges_launched: u64,
    /// Hedges that delivered the answer.
    pub hedges_won: u64,
    /// Hedges cancelled as losers (or lost to crashes).
    pub hedges_wasted: u64,
    /// Injected device downtime, summed across devices.
    pub crash_downtime_secs: f64,
}

impl FleetRun {
    /// Fleet-level per-request stream records (each original request
    /// exactly once, attributed to its winning leg).
    pub fn fleet_records(&self) -> Vec<StreamRecord> {
        self.served
            .iter()
            .map(ServedRequest::stream_record)
            .collect()
    }

    /// The fleet-level stream summary (deadline-hit rate, SLO goodput,
    /// warm hits summed across the fleet's tiers).
    pub fn fleet_summary(&self) -> StreamSummary {
        let records = self.fleet_records();
        let (sweeps, seqs) = self.device_runs.iter().fold((0u64, 0u64), |(sw, sq), r| {
            (sw + r.ver_sweeps, sq + r.ver_seqs)
        });
        let occupancy = if sweeps > 0 {
            seqs as f64 / sweeps as f64
        } else {
            0.0
        };
        let (hits, demotions) = self.device_runs.iter().fold((0u64, 0u64), |(h, d), r| {
            (h + r.kv_tier_hits, d + r.kv_tier_demotions)
        });
        StreamSummary::of(&records)
            .with_verifier_occupancy(occupancy)
            .with_kv_tier(hits, demotions)
    }

    /// The full cross-device summary.
    pub fn summary(&self) -> FleetSummary {
        FleetSummary {
            devices: self.device_runs.len(),
            per_device: self
                .device_runs
                .iter()
                .map(BatchRun::stream_summary)
                .collect(),
            fleet: self.fleet_summary(),
            migrations: self.migrations,
            hedges_launched: self.hedges_launched,
            hedges_won: self.hedges_won,
            hedges_wasted: self.hedges_wasted,
            crash_downtime_secs: self.crash_downtime_secs,
        }
    }

    /// Warm prefix hits summed across every device's host tier.
    pub fn warm_hits(&self) -> u64 {
        self.device_runs.iter().map(|r| r.kv_tier_hits).sum()
    }
}

/// Serves one arrival stream across N per-device timelines behind a
/// router. See the module docs for the execution and determinism model.
#[derive(Debug, Clone)]
pub struct FleetSim {
    devices: Vec<TtsServer>,
    n: usize,
    kind: SearchKind,
    config: FleetConfig,
}

impl FleetSim {
    /// A fleet of `devices` replicas (heterogeneous servers are fine),
    /// each answering with `n` beams under the shared event-driven
    /// policy in `config`.
    pub fn new(devices: Vec<TtsServer>, n: usize, kind: SearchKind, config: FleetConfig) -> Self {
        assert!(!devices.is_empty(), "a fleet needs at least one device");
        if let Some(h) = &config.hedge {
            assert!(h.delay_factor > 0.0, "hedge delay factor must be positive");
            assert!(h.min_delay_secs >= 0.0, "hedge floor must be non-negative");
        }
        Self {
            devices,
            n,
            kind,
            config,
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet has no devices (never true — construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Serve the stream with every device fault-free.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit a device's
    /// entire pool.
    pub fn run(&self, arrivals: &[RequestArrival]) -> Result<FleetRun, EngineError> {
        let plans = vec![FaultPlan::none(); self.devices.len()];
        self.run_faulted(arrivals, &plans)
    }

    /// Serve the stream while `plans[d]` injects faults into device
    /// `d`. Device-crash events are handled at the routing layer when
    /// [`FleetConfig::failover`] is on, and left in the device plan (an
    /// on-device outage) when it is off.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit a device's
    /// entire pool.
    pub fn run_faulted(
        &self,
        arrivals: &[RequestArrival],
        plans: &[FaultPlan],
    ) -> Result<FleetRun, EngineError> {
        self.simulate(arrivals, plans).map(|(run, _)| run)
    }

    /// [`FleetSim::run_faulted`], with how many edits took each resume
    /// path.
    fn simulate(
        &self,
        arrivals: &[RequestArrival],
        plans: &[FaultPlan],
    ) -> Result<(FleetRun, Resumes), EngineError> {
        assert_eq!(plans.len(), self.devices.len(), "one fault plan per device");
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival times must be non-decreasing"
        );
        // (`+ 0.0` normalizes the empty sum's -0.0 identity.)
        let crash_downtime_secs: f64 = plans
            .iter()
            .flat_map(|p| p.crash_windows())
            .map(|(_, d)| d)
            .sum::<f64>()
            + 0.0;
        // With failover, crashes are routing-layer events and the
        // device timeline never sees them; without it they stay put.
        let (device_plans, crash_windows): (Vec<FaultPlan>, Vec<Vec<(f64, f64)>>) =
            if self.config.failover {
                plans
                    .iter()
                    .map(|p| (p.without_crashes(), p.crash_windows()))
                    .unzip()
            } else {
                (plans.to_vec(), vec![Vec::new(); plans.len()])
            };

        // Every replica runs the same policy; build its scheduler once.
        let sims: Vec<TimelineServerSim> = self
            .devices
            .iter()
            .map(|server| {
                TimelineServerSim::new(server.clone(), self.n, self.kind, self.config.policy)
            })
            .collect();
        let mut engine = FleetEngine {
            sim: self,
            arrivals,
            crash_windows: &crash_windows,
            legs: Vec::new(),
            legs_by_device: vec![Vec::new(); self.devices.len()],
            slot: Vec::new(),
            replicas: sims
                .iter()
                .zip(&device_plans)
                .map(|(sim, plan)| Replica::new(sim, plan))
                .collect(),
            pairs: Vec::new(),
            events: std::collections::BinaryHeap::new(),
            event_seq: 0,
            clock: f64::NEG_INFINITY,
            rr_next: 0,
            migrations: 0,
            resumes: Resumes::default(),
        };
        // Seed the timeline: every arrival, plus (failover only) every
        // crash window start.
        for (req, a) in arrivals.iter().enumerate() {
            engine.push_event(a.at, EventKind::Arrival { req });
        }
        for (device, windows) in crash_windows.iter().enumerate() {
            for &(at, down_for) in windows {
                engine.push_event(at, EventKind::Crash { device, down_for });
            }
        }
        engine.drive()?;
        let resumes = engine.resumes;
        Ok((engine.finish(crash_downtime_secs)?, resumes))
    }
}

/// What the router can see of a leg at an instant `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Seen {
    /// `(finished_at, shed)` when the leg's record finished by `t`.
    finished: Option<(f64, bool)>,
    /// Whether the leg had been admitted with a beam width by `t`.
    started: bool,
}

impl Seen {
    /// A sealed record seen at `t`.
    fn of(rec: &ServedRequest, t: f64) -> Self {
        Self {
            finished: (rec.finished_at <= t).then_some((rec.finished_at, rec.shed)),
            started: rec.started_at <= t && rec.granted_n > 0,
        }
    }
}

/// How a replica resumed its run after an edit to its legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resume {
    /// No executed step read anything the edit changed: the live run
    /// goes on over the new legs.
    InPlace,
    /// The checkpoint read nothing the edit changed: the run goes on
    /// from there.
    Restored,
    /// Both read past the edit: the run starts over.
    Scratch,
}

/// How many edits took each [`Resume`] path.
#[derive(Debug, Clone, Copy, Default)]
struct Resumes {
    in_place: u64,
    restored: u64,
    scratch: u64,
}

impl Resumes {
    fn count(&mut self, path: Resume) {
        match path {
            Resume::InPlace => self.in_place += 1,
            Resume::Restored => self.restored += 1,
            Resume::Scratch => self.scratch += 1,
        }
    }
}

/// One device's live run over its current legs, stepped only as far as
/// the router has read it, and at most one checkpoint to resume from
/// after an edit.
struct Replica<'a> {
    state: LoopState<'a>,
    /// A copy of `state` taken just before the first step that a later
    /// edit could still invalidate, with the latest instant up to which
    /// any step since the copy read its inputs.
    checkpoint: Option<(LoopState<'a>, f64)>,
    /// The full run of this version of the device's legs, simulated
    /// from scratch once: the oracle every lazy answer is checked
    /// against in debug builds.
    #[cfg(debug_assertions)]
    reference: Option<Result<BatchRun, EngineError>>,
}

impl<'a> Replica<'a> {
    /// A replica with no legs.
    fn new(sim: &'a TimelineServerSim, plan: &'a FaultPlan) -> Self {
        Self {
            state: LoopState::new(sim, Rc::from([]), plan, Rc::default()),
            checkpoint: None,
            #[cfg(debug_assertions)]
            reference: None,
        }
    }

    /// The device's legs changed, and nothing at or before `edit`
    /// changed with them: resume on the new sub-stream and directives
    /// from the latest state in which no executed step read anything at
    /// or after `edit`. Nothing is simulated until a query steps it.
    fn resume(&mut self, sub: Vec<RequestArrival>, directives: RunDirectives, edit: f64) -> Resume {
        let (sub, directives) = (Rc::from(sub), Rc::new(directives));
        let path = if self.state.read_until < edit {
            Resume::InPlace
        } else if let Some((checkpoint, _)) = self
            .checkpoint
            .take()
            .filter(|(checkpoint, _)| checkpoint.read_until < edit)
        {
            self.state = checkpoint;
            Resume::Restored
        } else {
            Resume::Scratch
        };
        if path == Resume::Scratch {
            let (sim, plan) = (self.state.sim, self.state.plan);
            self.state = LoopState::new(sim, sub, plan, directives);
        } else {
            self.state.rebase(sub, directives);
        }
        #[cfg(debug_assertions)]
        {
            self.reference = None;
        }
        path
    }

    /// Drop the checkpoint once every step since it read its inputs
    /// only up to before `clock`: an edit at or after `clock` resumes
    /// the live run in place, or a checkpoint taken now, as well.
    fn drop_stale(&mut self, clock: f64) {
        if self
            .checkpoint
            .as_ref()
            .is_some_and(|&(_, since)| since < clock)
        {
            self.checkpoint = None;
        }
    }

    /// One step of the live run while the fleet handles an event at
    /// `clock`: a stale checkpoint is dropped first, and a copy of the
    /// run is kept as the checkpoint when none is held.
    fn step(&mut self, clock: f64) -> Result<Option<f64>, EngineError> {
        self.drop_stale(clock);
        let state = &self.state;
        let (_, since) = self
            .checkpoint
            .get_or_insert_with(|| (state.clone(), f64::NEG_INFINITY));
        let read = self.state.step()?;
        *since = since.max(read.unwrap_or(f64::INFINITY));
        Ok(read)
    }

    /// Arrival `slot` of this device as the router sees it at `t`.
    /// Steps until every record that finishes by `t` is sealed: until
    /// the next launch lies past `t`. Every record a later step seals
    /// finishes at or after its launch, except that a launch pads its
    /// members' clocks to the launch instant, which can land an ulp or
    /// two below it; the stop test allows for that rounding. Stepping
    /// further than strictly needed is always safe.
    fn seen(&mut self, slot: usize, t: f64, clock: f64) -> Result<Seen, EngineError> {
        let past = t + 1e-9 * t.abs().max(1.0);
        while self
            .state
            .peek_anchor()
            .is_some_and(|anchor| anchor <= past)
        {
            self.step(clock)?;
        }
        let seen = match &self.state.served[slot] {
            Some(rec) => Seen::of(rec, t),
            None => Seen {
                finished: None,
                started: self
                    .state
                    .live(slot)
                    .is_some_and(|a| a.started_at <= t && a.granted_n > 0),
            },
        };
        #[cfg(debug_assertions)]
        if let Ok(full) = self.reference() {
            assert_eq!(
                seen,
                Seen::of(&full.served[slot], t),
                "arrival {slot} at {t}: the lazy run disagrees with the full run"
            );
        }
        Ok(seen)
    }

    /// Arrival `slot`'s final record, stepping until it is sealed.
    fn outcome(&mut self, slot: usize, clock: f64) -> Result<&ServedRequest, EngineError> {
        while self.state.served[slot].is_none() {
            assert!(
                self.step(clock)?.is_some(),
                "a finished run seals every request"
            );
        }
        #[cfg(debug_assertions)]
        {
            let lazy = format!("{:?}", self.state.served[slot]);
            if let Ok(full) = self.reference() {
                assert_eq!(
                    lazy,
                    format!("{:?}", Some(&full.served[slot])),
                    "arrival {slot}: the lazy run disagrees with the full run"
                );
            }
        }
        Ok(self.state.served[slot].as_ref().expect("sealed"))
    }

    /// This version's full run, simulated once.
    #[cfg(debug_assertions)]
    fn reference(&mut self) -> &Result<BatchRun, EngineError> {
        let state = &self.state;
        self.reference.get_or_insert_with(|| {
            state
                .sim
                .run_directed(&state.arrivals, state.plan, &state.directives)
        })
    }

    /// Run to completion. Debug builds check the resumed run against a
    /// from-scratch run of the final legs, `{:?}` for `{:?}`.
    fn finish(mut self) -> Result<BatchRun, EngineError> {
        self.checkpoint = None;
        while self.state.step()?.is_some() {}
        #[cfg(debug_assertions)]
        let full = self.reference().as_ref().ok().map(|r| format!("{r:?}"));
        let run = self.state.finish();
        #[cfg(debug_assertions)]
        if let Some(full) = full {
            assert_eq!(
                format!("{run:?}"),
                full,
                "the resumed run disagrees with a from-scratch run of its legs"
            );
        }
        Ok(run)
    }
}

/// The sequential decision loop's working state.
struct FleetEngine<'a> {
    sim: &'a FleetSim,
    arrivals: &'a [RequestArrival],
    crash_windows: &'a [Vec<(f64, f64)>],
    legs: Vec<Leg>,
    legs_by_device: Vec<Vec<usize>>,
    /// Each leg's arrival index on its device's current run.
    slot: Vec<usize>,
    replicas: Vec<Replica<'a>>,
    /// Hedge pairs `(primary leg, hedge leg)`.
    pairs: Vec<(usize, usize)>,
    events: std::collections::BinaryHeap<std::cmp::Reverse<FleetEvent>>,
    event_seq: u64,
    /// The instant of the event being handled.
    clock: f64,
    rr_next: usize,
    migrations: u64,
    resumes: Resumes,
}

impl FleetEngine<'_> {
    fn push_event(&mut self, at: f64, kind: EventKind) {
        let rank = match kind {
            EventKind::Crash { .. } => 0,
            EventKind::Resolve { .. } => 1,
            EventKind::HedgeCheck { .. } => 2,
            EventKind::Arrival { .. } => 3,
        };
        self.events.push(std::cmp::Reverse(FleetEvent {
            at,
            rank,
            seq: self.event_seq,
            kind,
        }));
        self.event_seq += 1;
    }

    /// Device `d`'s legs or directives changed at instant `at`, and
    /// nothing before it: resume its run over its current legs, in
    /// arrival order. The instant is a new leg's arrival (its prewarm
    /// lands then too), a cancel's instant, or the old cancel instant of
    /// a revived leg.
    fn edit(&mut self, d: usize, at: f64) {
        let mut order = self.legs_by_device[d].clone();
        order.sort_by(|&a, &b| self.legs[a].at.total_cmp(&self.legs[b].at).then(a.cmp(&b)));
        let mut sub = Vec::with_capacity(order.len());
        let mut directives = RunDirectives::default();
        for (pos, &id) in order.iter().enumerate() {
            self.slot[id] = pos;
            let l = &self.legs[id];
            let base = &self.arrivals[l.req];
            sub.push(RequestArrival {
                at: l.at,
                problem: base.problem,
                slo: base.slo,
                deadline: base.deadline,
                tenant: base.tenant,
            });
            if l.cancel_at.is_finite() {
                directives.cancels.push((pos, l.cancel_at));
            }
            if let Some(p) = l.prewarm {
                directives.prewarms.push(p);
            }
        }
        let path = self.replicas[d].resume(sub, directives, at);
        self.resumes.count(path);
    }

    /// Leg `id` as the router sees it at `t`.
    fn seen(&mut self, id: usize, t: f64) -> Result<Seen, EngineError> {
        self.replicas[self.legs[id].device].seen(self.slot[id], t, self.clock)
    }

    /// Leg `id`'s final record.
    fn outcome(&mut self, id: usize) -> Result<&ServedRequest, EngineError> {
        self.replicas[self.legs[id].device].outcome(self.slot[id], self.clock)
    }

    /// When leg `id` delivers its answer: its final finish instant, or
    /// infinity when it is cancelled or shed.
    fn final_finish(&mut self, id: usize) -> Result<f64, EngineError> {
        if self.legs[id].cancel_at.is_finite() {
            return Ok(f64::INFINITY);
        }
        let rec = self.outcome(id)?;
        Ok(if rec.shed {
            f64::INFINITY
        } else {
            rec.finished_at
        })
    }

    /// Whether device `d` is inside a crash outage at `t`.
    fn down(&self, d: usize, t: f64) -> bool {
        self.crash_windows[d]
            .iter()
            .any(|&(at, dur)| t >= at && t < at + dur)
    }

    /// Legs assigned to `d` that pass `keep`, arrived, not cancelled and
    /// not finished at `t`.
    fn unfinished(
        &mut self,
        d: usize,
        t: f64,
        keep: impl Fn(&Leg) -> bool,
    ) -> Result<usize, EngineError> {
        let mut count = 0;
        for i in 0..self.legs_by_device[d].len() {
            let id = self.legs_by_device[d][i];
            let l = self.legs[id];
            if l.at <= t && l.cancel_at > t && keep(&l) && self.seen(id, t)?.finished.is_none() {
                count += 1;
            }
        }
        Ok(count)
    }

    /// Legs assigned to `d`, arrived, not cancelled and not finished at
    /// `t` — the router's queue-depth observable.
    fn outstanding(&mut self, d: usize, t: f64) -> Result<usize, EngineError> {
        self.unfinished(d, t, |_| true)
    }

    /// Completed legs the router has observed by `t`, as
    /// `(finished_at, device, leg id, service latency)` in completion
    /// order.
    fn completions(&mut self, t: f64) -> Result<Vec<(f64, usize, usize, f64)>, EngineError> {
        let mut out = Vec::new();
        for d in 0..self.legs_by_device.len() {
            for i in 0..self.legs_by_device[d].len() {
                let id = self.legs_by_device[d][i];
                let at = self.legs[id].at;
                if at > t {
                    continue;
                }
                if let Some((finished_at, false)) = self.seen(id, t)?.finished {
                    out.push((finished_at, d, id, finished_at - at));
                }
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        Ok(out)
    }

    /// Route a leg that wants to start at `t`: an alive replica under
    /// the configured policy (the only one, unread, when only one is
    /// alive), or — when every candidate is down — the one that
    /// recovers first, with the leg's start pushed to the recovery
    /// instant. `None` only when `exclude` rules out the whole fleet.
    fn route(
        &mut self,
        t: f64,
        exclude: Option<usize>,
        problem_seed: u64,
    ) -> Result<Option<(usize, f64)>, EngineError> {
        let all: Vec<usize> = (0..self.sim.devices.len())
            .filter(|&d| Some(d) != exclude)
            .collect();
        if all.is_empty() {
            return Ok(None);
        }
        let alive: Vec<usize> = all.iter().copied().filter(|&d| !self.down(d, t)).collect();
        if alive.is_empty() {
            // Buffer at the router until the earliest recovery.
            let best = all
                .iter()
                .copied()
                .map(|d| {
                    let up_at = self.crash_windows[d]
                        .iter()
                        .filter(|&&(at, dur)| t >= at && t < at + dur)
                        .map(|&(at, dur)| at + dur)
                        .fold(t, f64::max);
                    (d, up_at)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            return Ok(best);
        }
        let pick = match self.sim.config.route {
            RoutePolicy::RoundRobin => {
                let d = alive[self.rr_next % alive.len()];
                self.rr_next += 1;
                d
            }
            // A lone candidate needs no device read.
            _ if alive.len() == 1 => alive[0],
            RoutePolicy::Jsq => self.jsq(&alive, t)?,
            RoutePolicy::PrefixAffinity => {
                // Most recent completed publisher of this problem…
                let arrivals = self.arrivals;
                let same = |l: &Leg| arrivals[l.req].problem.seed == problem_seed;
                let publisher = self
                    .completions(t)?
                    .into_iter()
                    .rev()
                    .find(|&(_, d, id, _)| alive.contains(&d) && same(&self.legs[id]))
                    .map(|(_, d, _, _)| d);
                // …else a replica already working the problem…
                let mut working = publisher;
                for &d in &alive {
                    if working.is_some() {
                        break;
                    }
                    if self.unfinished(d, t, same)? > 0 {
                        working = Some(d);
                    }
                }
                // …else shortest queue.
                match working {
                    Some(d) => d,
                    None => self.jsq(&alive, t)?,
                }
            }
            RoutePolicy::HealthEwma => {
                let ewma = self.health_ewma(t)?;
                self.depths(&alive, t)?
                    .into_iter()
                    .map(|(d, depth)| (d, ewma[d] * (depth + 1) as f64))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .expect("alive non-empty")
                    .0
            }
        };
        Ok(Some((pick, t)))
    }

    fn jsq(&mut self, alive: &[usize], t: f64) -> Result<usize, EngineError> {
        let depths = self.depths(alive, t)?;
        let (d, _) = depths
            .into_iter()
            .min_by_key(|&(d, depth)| (depth, d))
            .expect("alive non-empty");
        Ok(d)
    }

    /// Each of `alive` with its queue depth at `t`.
    fn depths(&mut self, alive: &[usize], t: f64) -> Result<Vec<(usize, usize)>, EngineError> {
        alive
            .iter()
            .map(|&d| Ok((d, self.outstanding(d, t)?)))
            .collect()
    }

    /// Per-device EWMA of observed service latencies at `t` (α = 0.3,
    /// prior 1.0 — with no samples everywhere, health routing
    /// degenerates to join-shortest-queue).
    fn health_ewma(&mut self, t: f64) -> Result<Vec<f64>, EngineError> {
        const ALPHA: f64 = 0.3;
        let mut ewma = vec![1.0f64; self.sim.devices.len()];
        for (_, d, _, latency) in self.completions(t)? {
            ewma[d] = (1.0 - ALPHA) * ewma[d] + ALPHA * latency;
        }
        Ok(ewma)
    }

    /// The hedge delay the router would use for a leg starting at `t`,
    /// when it has enough observed completions to estimate a p99.
    fn hedge_delay(&mut self, t: f64) -> Result<Option<f64>, EngineError> {
        let Some(h) = self.sim.config.hedge else {
            return Ok(None);
        };
        let mut lats: Vec<f64> = self.completions(t)?.into_iter().map(|c| c.3).collect();
        if lats.len() < h.min_samples.max(1) {
            return Ok(None);
        }
        lats.sort_by(f64::total_cmp);
        let idx = ((lats.len() as f64 * 0.99).ceil() as usize)
            .saturating_sub(1)
            .min(lats.len() - 1);
        Ok(Some((h.delay_factor * lats[idx]).max(h.min_delay_secs)))
    }

    /// Place `leg` and resume its device.
    fn push_leg(&mut self, leg: Leg) -> usize {
        let id = self.legs.len();
        self.legs_by_device[leg.device].push(id);
        self.legs.push(leg);
        self.slot.push(usize::MAX);
        self.edit(leg.device, leg.at);
        id
    }

    /// Arm a hedge check for a freshly placed leg, if hedging is
    /// enabled and the router's p99 estimate is trustworthy.
    fn arm_hedge(&mut self, leg: usize, t: f64) -> Result<(), EngineError> {
        if self.sim.devices.len() < 2 {
            return Ok(());
        }
        if let Some(delay) = self.hedge_delay(t)? {
            self.push_event(t + delay, EventKind::HedgeCheck { leg });
        }
        Ok(())
    }

    fn drive(&mut self) -> Result<(), EngineError> {
        while let Some(std::cmp::Reverse(ev)) = self.events.pop() {
            self.clock = ev.at;
            for replica in &mut self.replicas {
                replica.drop_stale(ev.at);
            }
            match ev.kind {
                EventKind::Arrival { req } => self.on_arrival(req)?,
                EventKind::Crash { device, down_for } => self.on_crash(device, ev.at, down_for)?,
                EventKind::HedgeCheck { leg } => self.on_hedge_check(leg, ev.at)?,
                EventKind::Resolve { pair } => self.on_resolve(pair, ev.at)?,
            }
        }
        Ok(())
    }

    fn on_arrival(&mut self, req: usize) -> Result<(), EngineError> {
        let a = &self.arrivals[req];
        let (device, at) = self
            .route(a.at, None, a.problem.seed)?
            .expect("route with no exclusion always places");
        let id = self.push_leg(Leg {
            req,
            device,
            at,
            cancel_at: f64::INFINITY,
            prewarm: None,
            role: LegRole::Primary,
            partner: None,
        });
        self.arm_hedge(id, at)
    }

    fn on_crash(&mut self, d: usize, t: f64, down_for: f64) -> Result<(), EngineError> {
        // Every leg the outage interrupts: in flight or queued at the
        // crash, or arriving while the device is down.
        let mut interrupted: Vec<(usize, bool)> = Vec::new();
        for i in 0..self.legs_by_device[d].len() {
            let id = self.legs_by_device[d][i];
            let l = self.legs[id];
            if l.cancel_at <= t {
                continue;
            }
            let seen = self.seen(id, t)?;
            let active = l.at <= t && seen.finished.is_none();
            let lands_in_outage = l.at > t && l.at < t + down_for;
            if active || lands_in_outage {
                interrupted.push((id, seen.started));
            }
        }
        if interrupted.is_empty() {
            return Ok(());
        }
        for &(id, _) in &interrupted {
            self.legs[id].cancel_at = self.legs[id].cancel_at.min(t);
        }
        self.edit(d, t);

        for (id, had_started) in interrupted {
            let leg = self.legs[id];
            // A live partner on another replica already covers this
            // request: revive it if it was pending loser-cancellation,
            // and skip migration.
            if let Some(pid) = leg.partner {
                let p = self.legs[pid];
                if p.device != d && p.cancel_at > t {
                    if p.cancel_at.is_finite() {
                        self.legs[pid].cancel_at = f64::INFINITY;
                        self.edit(p.device, p.cancel_at);
                    }
                    continue;
                }
            }
            if leg.role == LegRole::Hedge {
                continue; // its primary is gone too (or on this device)
            }
            // Fail over to a surviving replica after the hand-off
            // delay; a leg that had already prefilled hands its prompt
            // prefix to the target's host tier and warm-starts.
            let at = t + MIGRATION_DELAY_SECS;
            let seed = self.arrivals[leg.req].problem.seed;
            let Some((target, at)) = self.route(at, Some(d), seed)? else {
                continue; // 1-device fleet: nowhere to go, stays shed
            };
            let prewarm = had_started.then(|| {
                let prompt_tokens = self.arrivals[leg.req].problem.prompt_tokens;
                let bpt = self.sim.devices[target]
                    .config()
                    .models
                    .gen_spec
                    .kv_bytes_per_token();
                PrewarmPrefix {
                    at,
                    key: seed,
                    tokens: prompt_tokens,
                    bytes: prompt_tokens.saturating_mul(bpt),
                }
            });
            let nid = self.push_leg(Leg {
                req: leg.req,
                device: target,
                at,
                cancel_at: f64::INFINITY,
                prewarm,
                role: LegRole::Migrated,
                partner: None,
            });
            self.migrations += 1;
            self.arm_hedge(nid, at)?;
        }
        Ok(())
    }

    fn on_hedge_check(&mut self, id: usize, t: f64) -> Result<(), EngineError> {
        let leg = self.legs[id];
        if leg.cancel_at.is_finite() || leg.partner.is_some() {
            return Ok(());
        }
        let rec = self.outcome(id)?;
        if rec.shed || rec.finished_at <= t {
            return Ok(()); // no longer a straggler
        }
        let seed = self.arrivals[leg.req].problem.seed;
        let Some((target, at)) = self.route(t, Some(leg.device), seed)? else {
            return Ok(());
        };
        let hid = self.push_leg(Leg {
            req: leg.req,
            device: target,
            at,
            cancel_at: f64::INFINITY,
            prewarm: None,
            role: LegRole::Hedge,
            partner: Some(id),
        });
        self.legs[id].partner = Some(hid);
        let pair = self.pairs.len();
        self.pairs.push((id, hid));
        if let Some(win) = self.pair_winner_finish(pair)? {
            self.push_event(win.max(at), EventKind::Resolve { pair });
        }
        Ok(())
    }

    /// The earlier projected finish of a hedge pair's live legs.
    fn pair_winner_finish(&mut self, pair: usize) -> Result<Option<f64>, EngineError> {
        let (p, h) = self.pairs[pair];
        let win = self.final_finish(p)?.min(self.final_finish(h)?);
        Ok(win.is_finite().then_some(win))
    }

    fn on_resolve(&mut self, pair: usize, t: f64) -> Result<(), EngineError> {
        let (p, h) = self.pairs[pair];
        if self.legs[p].cancel_at.is_finite() || self.legs[h].cancel_at.is_finite() {
            return Ok(()); // a crash already resolved the pair
        }
        let Some(win) = self.pair_winner_finish(pair)? else {
            return Ok(()); // both shed (deadlines) — nothing to cancel
        };
        if win > t + 1e-9 {
            // Timelines moved since this was scheduled (a crash freed
            // capacity, a migration added load): re-check at the new
            // winner instant.
            self.push_event(win, EventKind::Resolve { pair });
            return Ok(());
        }
        // First finisher wins; the loser is cancelled at the winner's
        // completion with full pool/tier reclaim. Ties go to the
        // primary — the hedge is pure insurance.
        let (p_fin, h_fin) = (self.final_finish(p)?, self.final_finish(h)?);
        let loser = if h_fin < p_fin { p } else { h };
        self.legs[loser].cancel_at = win;
        self.edit(self.legs[loser].device, win);
        Ok(())
    }

    /// Run every device to completion, then assemble the fleet-level
    /// records.
    fn finish(mut self, crash_downtime_secs: f64) -> Result<FleetRun, EngineError> {
        for replica in &mut self.replicas {
            replica.checkpoint = None;
        }
        let device_runs = self
            .replicas
            .into_iter()
            .map(Replica::finish)
            .collect::<Result<Vec<BatchRun>, EngineError>>()?;
        let record = |id: usize| &device_runs[self.legs[id].device].served[self.slot[id]];

        // Per-request winner selection and migration accounting.
        let mut served = Vec::with_capacity(self.arrivals.len());
        let mut serving_device = Vec::with_capacity(self.arrivals.len());
        let mut hedges_won = 0u64;
        let hedges_launched = self
            .legs
            .iter()
            .filter(|l| l.role == LegRole::Hedge)
            .count() as u64;
        for req in 0..self.arrivals.len() {
            let legs_of: Vec<usize> = (0..self.legs.len())
                .filter(|&id| self.legs[id].req == req)
                .collect();
            let winner = legs_of
                .iter()
                .copied()
                .filter(|&id| !record(id).shed)
                .min_by(|&a, &b| {
                    let (ra, rb) = (record(a), record(b));
                    ra.finished_at
                        .total_cmp(&rb.finished_at)
                        .then(self.legs[a].role.rank().cmp(&self.legs[b].role.rank()))
                        .then(a.cmp(&b))
                });
            match winner {
                Some(id) => {
                    let leg = self.legs[id];
                    let mut rec = record(id).clone();
                    rec.arrived_at = self.arrivals[req].at;
                    if leg.role == LegRole::Hedge {
                        hedges_won += 1;
                    }
                    // Book the migration hand-off(s) that led to this
                    // leg into the fault bucket: latency stretches by
                    // the hand-off, busy buckets stay comparable to the
                    // crash-free run.
                    let hops = legs_of
                        .iter()
                        .filter(|&&x| {
                            self.legs[x].role == LegRole::Migrated && self.legs[x].at <= leg.at
                        })
                        .count();
                    if hops > 0 {
                        let budget = hops as f64 * MIGRATION_DELAY_SECS;
                        rec.started_at -= budget;
                        rec.outcome.stats.completion.latency += budget;
                        rec.outcome.stats.completion.breakdown.fault += budget;
                    }
                    serving_device.push(Some(leg.device));
                    served.push(rec);
                }
                None => {
                    // Shed everywhere: report the primary leg's record
                    // against the original arrival.
                    let mut rec = record(legs_of[0]).clone();
                    rec.arrived_at = self.arrivals[req].at;
                    serving_device.push(None);
                    served.push(rec);
                }
            }
        }
        let hedges_wasted = hedges_launched - hedges_won;
        Ok(FleetRun {
            device_runs,
            served,
            serving_device,
            migrations: self.migrations,
            hedges_launched,
            hedges_won,
            hedges_wasted,
            crash_downtime_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_server::BatchConfig;
    use crate::faults::{FaultEvent, FaultKind, FaultPolicy, RobustConfig, StormConfig};
    use ftts_engine::ModelPairing;
    use ftts_hw::GpuDevice;
    use ftts_kv::KvTierConfig;
    use ftts_metrics::SloClass;
    use ftts_workload::{zipf_problems, ArrivalPattern, Dataset};

    fn server(device: GpuDevice) -> TtsServer {
        let mut s = TtsServer::fasttts(device, ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = 17;
        s.config_mut().memory_fraction = 0.55;
        s
    }

    /// One job of the sim-fleet workload's shape (the golden
    /// `fleet-sim-fleet-shape` fixtures): four replicas under prefix
    /// affinity with hedging, honest contention with 2-token joins, a
    /// host tier, Degrade SLOs, a storm on every device and a crash of
    /// device 1 at 25 s.
    fn sim_fleet_shape(seed: u64) -> (FleetSim, Vec<RequestArrival>, Vec<FaultPlan>) {
        let devices = [
            GpuDevice::rtx4090(),
            GpuDevice::jetson_orin(),
            GpuDevice::rtx4090(),
            GpuDevice::jetson_orin(),
        ]
        .into_iter()
        .map(server)
        .collect();
        let event = EventConfig::new(
            BatchConfig::continuous(4)
                .with_tier(KvTierConfig::with_capacity(1 << 33))
                .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade)),
            0.25,
        );
        let config = FleetConfig::new(event, RoutePolicy::PrefixAffinity)
            .with_hedge(HedgeConfig {
                delay_factor: 1.5,
                min_samples: 3,
                min_delay_secs: 5.0,
            })
            .with_timeline(
                TimelineTuning::honest()
                    .with_token_joins()
                    .with_join_quantum(2),
            );
        let slos = [
            (SloClass::Interactive, 90.0),
            (SloClass::Standard, 120.0),
            (SloClass::Batch, 180.0),
        ];
        let ranked = Dataset::Amc2023.problems(4, seed);
        let arrivals = ArrivalPattern::Uniform { interval: 4.0 }
            .schedule(&zipf_problems(&ranked, 12, 1.2, seed), seed)
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.with_slo(slos[i % 3].0, slos[i % 3].1))
            .collect();
        let plans = (0..4u64)
            .map(|d| {
                let storm = FaultPlan::storm(seed + d, 60.0, &StormConfig::default());
                let mut events = storm.events().to_vec();
                if d == 1 {
                    events.push(FaultEvent {
                        at: 25.0,
                        kind: FaultKind::DeviceCrash { down_for: 300.0 },
                    });
                }
                FaultPlan::new(events)
            })
            .collect();
        let fleet = FleetSim::new(devices, 16, SearchKind::BeamSearch, config);
        (fleet, arrivals, plans)
    }

    #[test]
    fn sim_fleet_edits_resume_in_place_and_from_checkpoints() {
        // The seeds of the golden `fleet-sim-fleet-shape` rows. Debug
        // builds check every lazy read, and each device's final run,
        // against a from-scratch run of its legs.
        for seed in [0, 16, 20, 22] {
            let (fleet, arrivals, plans) = sim_fleet_shape(seed);
            let (_, resumes) = fleet.simulate(&arrivals, &plans).expect("fleet run");
            assert!(
                resumes.in_place > 0 && resumes.restored > 0,
                "seed {seed}: {resumes:?}"
            );
        }
    }

    /// A replica over `base`, stepped by a router query at 10 s: its
    /// checkpoint then sits before the first step that read past 10 s.
    fn queried_replica<'a>(
        sim: &'a TimelineServerSim,
        plan: &'a FaultPlan,
        base: &[RequestArrival],
    ) -> Replica<'a> {
        let mut replica = Replica::new(sim, plan);
        replica.resume(base.to_vec(), RunDirectives::default(), 0.0);
        replica.seen(0, 10.0, 10.0).expect("query");
        replica
    }

    #[test]
    fn every_resume_path_reads_like_a_full_run() {
        let sim = TimelineServerSim::new(
            server(GpuDevice::rtx4090()),
            8,
            SearchKind::BeamSearch,
            TimelineTuning::honest()
                .with_token_joins()
                .with_join_quantum(8)
                .config(EventConfig::windowed(4, 0.0)),
        );
        let plan = FaultPlan::none();
        let problems = Dataset::Amc2023.problems(6, 3);
        let base = ArrivalPattern::Uniform { interval: 2.0 }.schedule(&problems[..5], 0);
        let extra = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems[5..], 0)[0].clone();
        let probe = queried_replica(&sim, &plan, &base);
        let live = probe.state.read_until;
        let (checkpoint, _) = probe.checkpoint.as_ref().expect("a checkpoint");
        let before = checkpoint.read_until;
        assert!(
            0.0 < before && before < 10.0 && 10.0 <= live,
            "{before} {live}"
        );
        // Each edit adds an arrival at `e` and cancels request 0 at `e`:
        // past every read, inside the checkpoint's future, and at the
        // checkpoint's own horizon, which no kept state can serve.
        for (e, path) in [
            (live + 1.0, Resume::InPlace),
            (10.0, Resume::Restored),
            (before, Resume::Scratch),
        ] {
            let mut sub = base.clone();
            let pos = sub.partition_point(|a| a.at <= e);
            sub.insert(
                pos,
                RequestArrival {
                    at: e,
                    ..extra.clone()
                },
            );
            let directives = RunDirectives {
                cancels: vec![(0, e)],
                prewarms: Vec::new(),
            };
            let full = sim
                .run_directed(&sub, &plan, &directives)
                .expect("full run");
            let mut replica = queried_replica(&sim, &plan, &base);
            assert_eq!(replica.resume(sub.clone(), directives, e), path);
            for step in 0..=400 {
                let t = f64::from(step) * 0.5;
                for (slot, rec) in full.served.iter().enumerate() {
                    let seen = replica.seen(slot, t, t).expect("query");
                    assert_eq!(seen, Seen::of(rec, t), "{path:?}: arrival {slot} at {t}");
                }
            }
            for (slot, rec) in full.served.iter().enumerate() {
                let lazy = replica.outcome(slot, 200.0).expect("outcome");
                assert_eq!(format!("{lazy:?}"), format!("{rec:?}"), "{path:?}: {slot}");
            }
            let run = replica.finish().expect("finish");
            assert_eq!(format!("{run:?}"), format!("{full:?}"), "{path:?}");
        }
    }

    #[test]
    fn one_device_fleets_resume_every_edit_in_place() {
        // With one device, no policy reads the device to route, so
        // nothing is stepped before the final run: each arrival's edit
        // resumes the untouched run in place.
        let stream =
            ArrivalPattern::Uniform { interval: 1.0 }.schedule(&Dataset::Amc2023.problems(6, 5), 0);
        let plan = FaultPlan::storm(3, 30.0, &StormConfig::default());
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::Jsq,
            RoutePolicy::PrefixAffinity,
            RoutePolicy::HealthEwma,
        ] {
            let fleet = FleetSim::new(
                vec![server(GpuDevice::rtx4090())],
                8,
                SearchKind::BeamSearch,
                FleetConfig::new(EventConfig::windowed(4, 0.2), route),
            );
            let (run, resumes) = fleet
                .simulate(&stream, std::slice::from_ref(&plan))
                .expect("fleet run");
            assert_eq!(run.served.len(), stream.len());
            assert_eq!(
                (resumes.in_place, resumes.restored, resumes.scratch),
                (stream.len() as u64, 0, 0),
                "{route:?}"
            );
        }
    }

    #[test]
    fn config_builders() {
        let cfg = FleetConfig::new(EventConfig::windowed(4, 0.2), RoutePolicy::PrefixAffinity)
            .with_hedge(HedgeConfig::default());
        assert_eq!(cfg.policy, EventConfig::windowed(4, 0.2).into());
        assert!(cfg.failover);
        assert!(cfg.hedge.is_some());
        let naive = cfg.without_failover();
        assert!(!naive.failover);
    }

    #[test]
    fn event_order_is_total_and_crashes_preempt_arrivals() {
        let crash = FleetEvent {
            at: 5.0,
            rank: 0,
            seq: 9,
            kind: EventKind::Crash {
                device: 0,
                down_for: 1.0,
            },
        };
        let arrival = FleetEvent {
            at: 5.0,
            rank: 3,
            seq: 1,
            kind: EventKind::Arrival { req: 0 },
        };
        assert!(crash < arrival, "same instant: crash resolves first");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleets_are_rejected() {
        let cfg = FleetConfig::new(
            EventConfig::new(BatchConfig::fifo(), 0.0),
            RoutePolicy::RoundRobin,
        );
        let _ = FleetSim::new(Vec::new(), 4, ftts_search::SearchKind::BeamSearch, cfg);
    }
}
