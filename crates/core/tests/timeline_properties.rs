//! Property tests for the global device timeline (PR 10):
//!
//! 1. **Segment conservation**: for any recorded segment set, the
//!    occupancy roll-up satisfies `busy + idle == span` exactly, the
//!    busy union never exceeds the span or the per-kind sums, and the
//!    per-kind sums partition the total recorded duration.
//! 2. **No negative overlap**: every segment has `end >= start`, the
//!    union is non-negative, and peak concurrency never exceeds the
//!    number of segments.
//! 3. **Stretch monotonicity**: retroactive contention stretch never
//!    shrinks a segment — ends only move right, and the roll-up's
//!    `stretch_secs` accounts every applied second.
//! 4. **Streaming equals stored**: the streaming [`DeviceTimeline`]
//!    rolls up, `{:?}`-identically, what a reference that stores every
//!    segment and sweeps them once computes, under any interleaving of
//!    records, stretches and closes of open segments, and `advance`
//!    calls that keep the horizon contract (each merges the newly
//!    recorded endpoints into the sorted ones), zero-length segments
//!    and endpoints tied at the horizon included. Properties 1–3 are
//!    checked on both.
//! 5. **Run determinism**: a `(workload seed, storm, mode)` triple
//!    fully determines a `TimelineServerSim` run — honest contention
//!    pricing and token-granularity joins replay bit-identically.
//! 6. **Conservation under honesty**: per served request,
//!    `queue_delay + breakdown.total()` equals arrival-to-completion
//!    wall-clock in every timeline mode; `join_wait` stays a slice of
//!    `idle`.
//! 7. **Prefix stability**: appending one arrival at instant `A`, later
//!    than every arrival of a stream, leaves every record that finished
//!    before `A` unchanged (`{:?}`-identical), on every front door. The
//!    loop's one lookahead is `price_decode` reading the next known
//!    arrival to stop a lone request's speculation, so the sparse
//!    streams put `A` inside a lone request's speculating iteration.
//!    Token joins hold it only on streams whose requests never overlap
//!    (see `honest_token_joins_are_prefix_stable`).

use ftts_core::{
    BatchConfig, BatchedServerSim, DeviceTimeline, EventConfig, EventServerSim, FaultPlan,
    FaultPolicy, FleetConfig, FleetSim, HedgeConfig, KvTierConfig, RobustConfig, RoutePolicy,
    SegmentKind, ServedRequest, StormConfig, TenantPolicy, TenantSpec, TimelineConfig,
    TimelineServerSim, TimelineTuning, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::{SloClass, TimelineOccupancy};
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};
use proptest::prelude::*;

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

fn kind_of(tag: u8) -> SegmentKind {
    match tag % 3 {
        0 => SegmentKind::Decode,
        1 => SegmentKind::Verify,
        _ => SegmentKind::Swap,
    }
}

/// Map centisecond integers (the shim has no float strategies) to
/// seconds.
fn secs(centi: u64) -> f64 {
    centi as f64 / 100.0
}

/// The stored-segment roll-up the streaming [`DeviceTimeline`] must
/// reproduce: every segment kept in record order and swept once, with
/// ends before starts at equal instants and no sweep endpoints for a
/// zero-length segment.
#[derive(Default)]
struct StoredTimeline {
    /// `(start, end, kind)` per segment, in record order.
    segments: Vec<(f64, f64, SegmentKind)>,
    stretch_secs: f64,
}

impl StoredTimeline {
    fn record(&mut self, start: f64, duration: f64, kind: SegmentKind) -> usize {
        self.segments.push((start, start + duration, kind));
        self.segments.len() - 1
    }

    fn stretch(&mut self, id: usize, extra: f64) {
        self.segments[id].1 += extra;
        self.stretch_secs += extra;
    }

    fn occupancy(&self) -> TimelineOccupancy {
        if self.segments.is_empty() {
            return TimelineOccupancy::default();
        }
        let mut occ = TimelineOccupancy {
            segments: self.segments.len() as u64,
            stretch_secs: self.stretch_secs,
            ..Default::default()
        };
        let (mut first, mut last) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut events: Vec<(f64, i32)> = Vec::new();
        for &(start, end, kind) in &self.segments {
            match kind {
                SegmentKind::Decode => occ.decode_secs += end - start,
                SegmentKind::Verify => occ.verify_secs += end - start,
                SegmentKind::Swap => occ.swap_secs += end - start,
            }
            first = first.min(start);
            last = last.max(end);
            if end > start {
                events.push((start, 1));
                events.push((end, -1));
            }
        }
        occ.span_secs = (last - first).max(0.0);
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let (mut depth, mut max_depth, mut open_at) = (0i32, 0i32, 0.0f64);
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

/// Both roll-ups must print identically.
fn assert_same_rollup(streaming: &DeviceTimeline, stored: &StoredTimeline) {
    assert_eq!(
        format!("{:?}", streaming.occupancy()),
        format!("{:?}", stored.occupancy())
    );
}

fn timeline_run(
    seed: u64,
    count: usize,
    storm: &StormConfig,
    config: TimelineConfig,
) -> ftts_core::BatchRun {
    let problems = Dataset::Amc2023.problems(count, seed);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    let plan = FaultPlan::storm(seed ^ 0xA11CE, 60.0, storm);
    TimelineServerSim::new(server(seed, 0.9), 8, SearchKind::BeamSearch, config)
        .run_faulted(&arrivals, &plan)
        .expect("timeline run completes")
}

/// A stream of `count` AMC requests `cadence` seconds apart, billed to
/// tenants 0 and 1 in turn with deadline slacks of 15 s, 40 s and none
/// in turn, plus the extra arrival `gap` seconds after the last one.
fn prefix_streams(
    seed: u64,
    count: usize,
    cadence: f64,
    gap: f64,
) -> (Vec<RequestArrival>, RequestArrival) {
    let slacks = [
        (SloClass::Interactive, 15.0),
        (SloClass::Standard, 40.0),
        (SloClass::Batch, f64::INFINITY),
    ];
    let mut all: Vec<RequestArrival> = ArrivalPattern::Uniform { interval: cadence }
        .schedule(&Dataset::Amc2023.problems(count + 1, seed), 0)
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            let (slo, slack) = slacks[i % slacks.len()];
            a.with_tenant(i as u32 % 2).with_slo(slo, slack)
        })
        .collect();
    let mut extra = all.pop().expect("count + 1 arrivals");
    let last = all.last().map_or(0.0, |a| a.at);
    extra.deadline += last + gap - extra.at;
    extra.at = last + gap;
    (all, extra)
}

/// Run `stream` and then `stream` plus `extra`; every record of the
/// first run that finished before `extra` arrived must be identical in
/// the second.
fn assert_prefix_stable(
    door: &str,
    run: impl Fn(&[RequestArrival]) -> Vec<ServedRequest>,
    stream: &[RequestArrival],
    extra: &RequestArrival,
) {
    let short = run(stream);
    let mut appended = stream.to_vec();
    appended.push(extra.clone());
    let long = run(&appended);
    assert_eq!(long.len(), short.len() + 1);
    for (i, (before, after)) in short.iter().zip(&long).enumerate() {
        if before.finished_at < extra.at {
            assert_eq!(
                format!("{before:?}"),
                format!("{after:?}"),
                "{door}: request {i} finished at {} before the arrival at {}, but changed",
                before.finished_at,
                extra.at
            );
        }
    }
}

/// Two tenants, the second capped at half the pool and two in flight.
fn two_tenants(server: &TtsServer) -> TenantPolicy {
    TenantPolicy::new(&[
        TenantSpec {
            id: 0,
            weight: 2,
            kv_cap_bytes: u64::MAX,
            max_in_flight: 0,
        },
        TenantSpec {
            id: 1,
            weight: 1,
            kv_cap_bytes: server.config().kv_budget_bytes() / 2,
            max_in_flight: 2,
        },
    ])
}

/// Dense (1 s) or sparse (10 s) cadence; the sparse streams leave the
/// last request alone on the device when the extra arrival lands.
fn cadence(sparse: bool) -> f64 {
    if sparse {
        10.0
    } else {
        1.0
    }
}

fn quiet_storm() -> StormConfig {
    StormConfig {
        kernel_faults: 0,
        slowdowns: 0,
        kv_losses: 0,
        ..StormConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn occupancy_conserves_span_and_partitions_kinds(
        segs in prop::collection::vec((0u64..10_000, 0u64..1_000, 0u8..6), 1..40),
    ) {
        let mut tl = DeviceTimeline::default();
        let mut stored = StoredTimeline::default();
        let mut total_dur = 0.0f64;
        for &(start, dur, tag) in &segs {
            let id = tl.record(secs(start), secs(dur), kind_of(tag));
            stored.record(secs(start), secs(dur), kind_of(tag));
            if kind_of(tag) == SegmentKind::Decode {
                tl.close(id);
            }
            total_dur += secs(dur);
        }
        assert_same_rollup(&tl, &stored);
        let occ = tl.occupancy();
        prop_assert_eq!(occ.segments, segs.len() as u64);
        // busy + idle == span, exactly (idle is defined as the clamped
        // difference).
        prop_assert!((occ.busy_secs + occ.idle_secs() - occ.span_secs).abs() <= 1e-9);
        // The union never exceeds the span nor the summed durations.
        prop_assert!(occ.busy_secs <= occ.span_secs + 1e-9);
        prop_assert!(occ.busy_secs <= total_dur + 1e-9);
        // Per-kind sums partition the total recorded duration.
        let kinds = occ.decode_secs + occ.verify_secs + occ.swap_secs;
        prop_assert!((kinds - total_dur).abs() <= 1e-6 * total_dur.max(1.0));
        // No negative overlap, bounded concurrency.
        prop_assert!(occ.busy_secs >= 0.0);
        prop_assert!(occ.max_concurrency >= 1);
        prop_assert!(occ.max_concurrency as usize <= segs.len());
        prop_assert!(occ.utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn stretch_never_shrinks_any_segment(
        segs in prop::collection::vec((0u64..5_000, 0u64..500), 1..20),
        stretches in prop::collection::vec((0usize..20, 0u64..300), 0..30),
    ) {
        let mut tl = DeviceTimeline::default();
        let mut stored = StoredTimeline::default();
        let mut ids = Vec::new();
        for &(start, dur) in &segs {
            ids.push(tl.record(secs(start), secs(dur), SegmentKind::Decode));
            stored.record(secs(start), secs(dur), SegmentKind::Decode);
        }
        let before: Vec<f64> = stored.segments.iter().map(|s| s.1).collect();
        let mut applied = 0.0f64;
        for &(i, extra) in &stretches {
            let i = i % segs.len();
            tl.stretch(ids[i], secs(extra));
            stored.stretch(i, secs(extra));
            applied += secs(extra);
        }
        for (&(start, end, _), &b) in stored.segments.iter().zip(&before) {
            prop_assert!(end >= b, "stretch moved an end left");
            prop_assert!(end >= start, "stretch broke segment ordering");
        }
        assert_same_rollup(&tl, &stored);
        let occ = tl.occupancy();
        prop_assert!((occ.stretch_secs - applied).abs() <= 1e-9 * applied.max(1.0));
        prop_assert!((tl.stretch_secs() - applied).abs() <= 1e-9 * applied.max(1.0));
    }

    /// Random records, stretches and closes of open decode segments,
    /// and horizon advances. Every record starts at or after the latest
    /// horizon, as the contract requires, and one kind of record starts
    /// exactly at it, so merged endpoints tie with swept and pending
    /// ones; durations and stretches are zero one time in four. In half
    /// the cases the other records start after every endpoint so far,
    /// so an advance after such records alone merges fresh endpoints
    /// that all sort after the pending ones; elsewhere they interleave.
    /// Cases run to 400 operations: long ones drop the timeline's swept
    /// prefix several times (up to about a dozen). The roll-ups must
    /// agree after every operation, open segments included, and after
    /// every advance, which merges the endpoints recorded since the
    /// last one into the unswept remainder, again after a second
    /// advance to the same horizon.
    #[test]
    fn streaming_rollup_equals_the_stored_sweep(
        ops in prop::collection::vec(((0u8..6, 0u64..2_000), (0u64..600, 0u8..6)), 1..400),
        past_all in any::<bool>(),
    ) {
        let mut tl = DeviceTimeline::default();
        let mut stored = StoredTimeline::default();
        let mut open: Vec<(usize, usize)> = Vec::new();
        let mut horizon = 0.0f64;
        // The latest end recorded or stretched so far.
        let mut latest = 0.0f64;
        let zero_or = |n: u64| if n.is_multiple_of(4) { 0.0 } else { secs(n) };
        for &((op, a), (b, tag)) in &ops {
            match op {
                0 | 1 | 5 => {
                    let (from, at) = match op {
                        5 => (horizon, 0),
                        _ if past_all => (horizon.max(latest), a % 100),
                        _ => (horizon, a),
                    };
                    let (start, dur, kind) = (from + secs(at), zero_or(b), kind_of(tag));
                    let id = tl.record(start, dur, kind);
                    let pos = stored.record(start, dur, kind);
                    latest = latest.max(start + dur);
                    if kind == SegmentKind::Decode {
                        open.push((id, pos));
                    }
                }
                2 if !open.is_empty() => {
                    let (id, pos) = open[a as usize % open.len()];
                    tl.stretch(id, zero_or(b));
                    stored.stretch(pos, zero_or(b));
                    latest = latest.max(stored.segments[pos].1);
                }
                3 if !open.is_empty() => {
                    let (id, _) = open.remove(a as usize % open.len());
                    tl.close(id);
                }
                _ => {
                    // Records past every endpoint would outrun short
                    // advances, and the sweep would never catch up.
                    horizon += secs(if past_all { a } else { a % 500 });
                    tl.advance(horizon);
                    assert_same_rollup(&tl, &stored);
                    tl.advance(horizon);
                }
            }
            assert_same_rollup(&tl, &stored);
        }
        for (id, _) in open {
            tl.close(id);
        }
        assert_same_rollup(&tl, &stored);
    }

    #[test]
    fn timeline_runs_are_bit_deterministic(
        count in 2usize..4,
        kernel_faults in 0usize..4,
        slowdowns in 0usize..2,
        seed in 0u64..500,
        joins in any::<bool>(),
    ) {
        // Faults stay launch-granularity; keep the faulted determinism
        // check on the iteration path and the joins check fault-free.
        let (honest, event) = (TimelineTuning::honest(), EventConfig::windowed(4, 0.0));
        let (config, storm) = if joins {
            (honest.with_token_joins().with_join_quantum(8).config(event), quiet_storm())
        } else {
            (honest.config(event), StormConfig {
                kernel_faults,
                slowdowns,
                kv_losses: 0,
                ..StormConfig::default()
            })
        };
        let a = timeline_run(seed, count, &storm, config);
        let b = timeline_run(seed, count, &storm, config);
        prop_assert_eq!(a.served.len(), b.served.len());
        for (x, y) in a.served.iter().zip(&b.served) {
            prop_assert_eq!(x.started_at, y.started_at);
            prop_assert_eq!(x.finished_at, y.finished_at);
            prop_assert_eq!(x.outcome.answer.clone(), y.outcome.answer.clone());
            prop_assert_eq!(
                &x.outcome.stats.completion.breakdown,
                &y.outcome.stats.completion.breakdown
            );
        }
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.group_iters, b.group_iters);
        prop_assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn honest_modes_conserve_wall_clock(
        count in 2usize..5,
        seed in 0u64..500,
        mode in 0u8..3,
    ) {
        let event = EventConfig::windowed(4, 0.0);
        let config = match mode {
            0 => TimelineConfig::from(event),
            1 => TimelineTuning::honest().config(event),
            _ => TimelineTuning::honest().with_token_joins().with_join_quantum(8).config(event),
        };
        let run = timeline_run(seed, count, &quiet_storm(), config);
        for (i, r) in run.served.iter().enumerate() {
            let b = r.outcome.stats.breakdown();
            let accounted = r.queue_delay() + b.total();
            let wall = r.finished_at - r.arrived_at;
            prop_assert!(
                (accounted - wall).abs() <= 1e-9 * wall.max(1.0),
                "request {} (mode {}): accounted {} != wall {}",
                i, mode, accounted, wall
            );
            prop_assert!(b.join_wait <= b.idle + 1e-9);
            prop_assert!(b.contention >= 0.0);
        }
        // The timeline roll-up stays internally consistent on real runs.
        let occ = run.timeline;
        prop_assert!(occ.busy_secs <= occ.span_secs + 1e-9);
        prop_assert!((occ.busy_secs + occ.idle_secs() - occ.span_secs).abs() <= 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lockstep_is_prefix_stable(
        seed in 0u64..500,
        count in 1usize..6,
        sparse in any::<bool>(),
        gap in prop_oneof![5u64..1_000, 1_000u64..4_000],
    ) {
        let (stream, extra) = prefix_streams(seed, count, cadence(sparse), secs(gap));
        let sim = BatchedServerSim::new(
            server(seed, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::continuous(4),
        );
        let run = |s: &[RequestArrival]| sim.run(s).expect("lockstep run").served;
        assert_prefix_stable("lockstep", run, &stream, &extra);
    }

    #[test]
    fn event_windows_with_tenants_and_degrade_are_prefix_stable(
        seed in 0u64..500,
        count in 1usize..6,
        sparse in any::<bool>(),
        gap in prop_oneof![5u64..1_000, 1_000u64..4_000],
        window in prop::sample::select(vec![0.0, 0.2]),
    ) {
        let (stream, extra) = prefix_streams(seed, count, cadence(sparse), secs(gap));
        let server = server(seed, 0.9);
        let batch = BatchConfig::fused(4)
            .with_tenants(two_tenants(&server))
            .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade));
        let sim = EventServerSim::new(
            server,
            8,
            SearchKind::BeamSearch,
            EventConfig::new(batch, window),
        );
        let run = |s: &[RequestArrival]| sim.run(s).expect("event run").served;
        assert_prefix_stable(&format!("event w={window}"), run, &stream, &extra);
    }

    /// Checked on isolated streams only: at a 30 s cadence no two
    /// requests overlap, and `A` often lands inside the lone request's
    /// run. With overlapping requests token joins are not prefix stable.
    /// The loop processes a launch's chunk boundaries, and admits an
    /// arrival at one of them, before it processes a bystander launch
    /// that starts earlier, so the bystander's decode is priced against
    /// the joiner's load. For example (seed 464, three requests 1 s
    /// apart, `A` = 14.78 s), request 1 finishes at 13.6533 s without
    /// the extra arrival and at 13.6596 s with it.
    #[test]
    fn honest_token_joins_are_prefix_stable(
        seed in 0u64..500,
        count in 1usize..6,
        gap in prop_oneof![5u64..1_000, 1_000u64..4_000],
    ) {
        let (stream, extra) = prefix_streams(seed, count, 30.0, secs(gap));
        let config = TimelineTuning::honest()
            .with_token_joins()
            .with_join_quantum(8)
            .config(EventConfig::windowed(4, 0.0));
        let sim = TimelineServerSim::new(server(seed, 0.9), 8, SearchKind::BeamSearch, config);
        let run = |s: &[RequestArrival]| sim.run(s).expect("timeline run").served;
        assert_prefix_stable("token joins", run, &stream, &extra);
    }

    #[test]
    fn fleets_are_prefix_stable(
        seed in 0u64..500,
        count in 1usize..6,
        sparse in any::<bool>(),
        gap in prop_oneof![5u64..1_000, 1_000u64..4_000],
        affinity in any::<bool>(),
    ) {
        let (stream, extra) = prefix_streams(seed, count, cadence(sparse), secs(gap));
        let event = EventConfig::new(
            BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30)),
            0.25,
        );
        let (door, config) = if affinity {
            let hedge = HedgeConfig {
                delay_factor: 0.5,
                min_samples: 1,
                min_delay_secs: 0.5,
            };
            let config = FleetConfig::new(event, RoutePolicy::PrefixAffinity).with_hedge(hedge);
            ("affinity+hedge fleet", config)
        } else {
            ("JSQ fleet", FleetConfig::new(event, RoutePolicy::Jsq))
        };
        let sim = FleetSim::new(vec![server(seed, 0.55); 2], 8, SearchKind::BeamSearch, config);
        let run = |s: &[RequestArrival]| sim.run(s).expect("fleet run").served;
        assert_prefix_stable(door, run, &stream, &extra);
    }
}
