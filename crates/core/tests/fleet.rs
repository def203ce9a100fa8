//! Fleet-serving anchors (PR 8).
//!
//! * A 1-device fleet is **bit-identical** to bare `EventServerSim`
//!   under every routing policy — answers, tokens, instants and
//!   breakdown buckets — fault-free, under a (crash-free) fault storm,
//!   and with a crash-bearing plan in no-failover mode (where the crash
//!   stays an on-device outage).
//! * N-device fleet results are deterministic. The router steps each
//!   device's run only as far as its queries read, and in a debug build
//!   (this suite's default) checks every answer against that device's
//!   full run, simulated from scratch once per version of its legs.
//!   Random small fleets exercise that query oracle under every routing
//!   policy, with and without failover.
//! * A hedged duplicate never changes the winning answer — scheduling
//!   moves clocks, never outcomes.
//! * Crash failover migrates interrupted requests to survivors and
//!   completes them.

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, EventServerSim, FaultEvent, FaultKind, FaultPlan,
    FaultPolicy, FleetConfig, FleetRun, FleetSim, HedgeConfig, KvTierConfig, RobustConfig,
    RoutePolicy, ServedRequest, StormConfig, TimelineTuning, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::SloClass;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};
use proptest::prelude::*;

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

fn arrivals(count: usize, problem_seed: u64, interval: f64) -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(count, problem_seed);
    ArrivalPattern::Uniform { interval }.schedule(&problems, 0)
}

fn event_config() -> EventConfig {
    EventConfig::new(
        BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30)),
        0.25,
    )
}

fn assert_served_identical(label: &str, a: &[ServedRequest], b: &[ServedRequest]) {
    assert_eq!(a.len(), b.len(), "{label}: request counts");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.arrived_at, y.arrived_at, "{label}[{i}]: arrivals");
        assert_eq!(x.started_at, y.started_at, "{label}[{i}]: admission");
        assert_eq!(x.finished_at, y.finished_at, "{label}[{i}]: completion");
        assert_eq!(x.shed, y.shed, "{label}[{i}]: shed");
        assert_eq!(x.granted_n, y.granted_n, "{label}[{i}]: granted width");
        assert_eq!(x.outcome.answer, y.outcome.answer, "{label}[{i}]: answers");
        assert_eq!(
            x.accepted_tokens(),
            y.accepted_tokens(),
            "{label}[{i}]: accepted tokens"
        );
        let (bx, by) = (x.outcome.stats.breakdown(), y.outcome.stats.breakdown());
        assert_eq!(bx.generator, by.generator, "{label}[{i}]: generator bucket");
        assert_eq!(bx.verifier, by.verifier, "{label}[{i}]: verifier bucket");
        assert_eq!(bx.recompute, by.recompute, "{label}[{i}]: recompute bucket");
        assert_eq!(bx.offload, by.offload, "{label}[{i}]: offload bucket");
        assert_eq!(bx.swap, by.swap, "{label}[{i}]: swap bucket");
        assert_eq!(bx.fault, by.fault, "{label}[{i}]: fault bucket");
        assert_eq!(bx.idle, by.idle, "{label}[{i}]: idle bucket");
    }
}

/// Every routing policy, in declaration order.
const ROUTES: [RoutePolicy; 4] = [
    RoutePolicy::RoundRobin,
    RoutePolicy::Jsq,
    RoutePolicy::PrefixAffinity,
    RoutePolicy::HealthEwma,
];

/// A 1-device fleet of `server(9, 0.55)` under `config` and each
/// routing policy, run over `stream` and `plan`, matches `bare`. Returns
/// the fleet runs, in [`ROUTES`] order.
fn assert_one_device_fleets_match_bare(
    label: &str,
    config: impl Fn(RoutePolicy) -> FleetConfig,
    stream: &[RequestArrival],
    plan: &FaultPlan,
    bare: &BatchRun,
) -> Vec<FleetRun> {
    ROUTES
        .iter()
        .map(|&route| {
            let fleet = FleetSim::new(
                vec![server(9, 0.55)],
                16,
                SearchKind::BeamSearch,
                config(route),
            )
            .run_faulted(stream, std::slice::from_ref(plan))
            .expect("fleet run");
            assert_run_matches_bare(&format!("{label}, {route:?}"), &fleet, bare);
            fleet
        })
        .collect()
}

fn assert_run_matches_bare(label: &str, fleet: &FleetRun, bare: &BatchRun) {
    assert_eq!(fleet.device_runs.len(), 1, "{label}: one device");
    let dev = &fleet.device_runs[0];
    assert_served_identical(label, &dev.served, &bare.served);
    assert_served_identical(
        &format!("{label} (fleet view)"),
        &fleet.served,
        &bare.served,
    );
    assert_eq!(dev.rounds, bare.rounds, "{label}: rounds");
    assert_eq!(dev.group_iters, bare.group_iters, "{label}: group iters");
    assert_eq!(dev.preemptions, bare.preemptions, "{label}: preemptions");
    assert_eq!(dev.ver_sweeps, bare.ver_sweeps, "{label}: verifier sweeps");
    assert_eq!(dev.ver_seqs, bare.ver_seqs, "{label}: verifier seqs");
    assert_eq!(
        dev.peak_reserved_bytes, bare.peak_reserved_bytes,
        "{label}: peak reservations"
    );
    assert_eq!(dev.kv_tier_hits, bare.kv_tier_hits, "{label}: warm hits");
    assert_eq!(fleet.migrations, 0, "{label}: no migrations on 1 device");
    assert_eq!(fleet.hedges_launched, 0, "{label}: no hedges on 1 device");
}

/// Anchor 1: a 1-device fleet under every routing policy is
/// bit-identical to bare `EventServerSim`, fault-free.
#[test]
fn one_device_fleet_is_bit_identical_fault_free() {
    let stream = arrivals(5, 31, 12.0);
    let config = event_config();
    let plan = FaultPlan::none();
    let bare = EventServerSim::new(server(9, 0.55), 16, SearchKind::BeamSearch, config)
        .run_faulted(&stream, &plan)
        .expect("bare run");
    let fleet = |route| FleetConfig::new(config, route);
    assert_one_device_fleets_match_bare("fault-free", fleet, &stream, &plan, &bare);
}

/// Anchor 2: the same equivalence under a fault storm (no crashes —
/// those are routing-layer events when failover is on).
#[test]
fn one_device_fleet_is_bit_identical_under_storm() {
    let stream = arrivals(5, 47, 12.0);
    let config = event_config();
    let storm = StormConfig {
        kernel_faults: 2,
        slowdowns: 2,
        kv_losses: 1,
        ..StormConfig::default()
    };
    let plan = FaultPlan::storm(0xF1EE7, 90.0, &storm);
    let bare = EventServerSim::new(server(9, 0.55), 16, SearchKind::BeamSearch, config)
        .run_faulted(&stream, &plan)
        .expect("bare run");
    let fleet = |route| FleetConfig::new(config, route);
    assert_one_device_fleets_match_bare("storm", fleet, &stream, &plan, &bare);
}

/// Anchor 3: with failover *off*, a crash-bearing plan stays an
/// on-device outage and the 1-device fleet still reproduces the bare
/// simulator bit-for-bit.
#[test]
fn one_device_no_failover_crash_matches_bare_outage() {
    let stream = arrivals(4, 63, 15.0);
    let config = event_config();
    let plan = FaultPlan::new(vec![FaultEvent {
        at: 20.0,
        kind: FaultKind::DeviceCrash { down_for: 30.0 },
    }]);
    let bare = EventServerSim::new(server(9, 0.55), 16, SearchKind::BeamSearch, config)
        .run_faulted(&stream, &plan)
        .expect("bare run");
    let fleet = |route| FleetConfig::new(config, route).without_failover();
    let runs =
        assert_one_device_fleets_match_bare("no-failover crash", fleet, &stream, &plan, &bare);
    assert!(
        runs.iter().all(|run| run.crash_downtime_secs > 0.0),
        "downtime is still reported in the naive mode"
    );
}

fn four_device_fleet(route: RoutePolicy, hedge: Option<HedgeConfig>) -> FleetSim {
    let devices: Vec<TtsServer> = (0..4).map(|_| server(9, 0.55)).collect();
    let mut config = FleetConfig::new(event_config(), route);
    config.hedge = hedge;
    FleetSim::new(devices, 16, SearchKind::BeamSearch, config)
}

fn crashy_plans() -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::none(); 4];
    plans[1] = FaultPlan::new(vec![FaultEvent {
        at: 25.0,
        kind: FaultKind::DeviceCrash { down_for: 200.0 },
    }]);
    plans
}

/// N-device fleets are deterministic run-to-run, and (via the
/// debug-build query oracle) every router read of a lazily stepped
/// device matches its full run.
#[test]
fn fleet_results_are_deterministic_across_reruns() {
    let stream = arrivals(8, 77, 6.0);
    let hedge = Some(HedgeConfig {
        delay_factor: 0.5,
        min_samples: 2,
        min_delay_secs: 1.0,
    });
    let runs: Vec<FleetRun> = (0..2)
        .map(|_| {
            four_device_fleet(RoutePolicy::Jsq, hedge)
                .run_faulted(&stream, &crashy_plans())
                .expect("fleet run")
        })
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    assert_served_identical("rerun", &a.served, &b.served);
    assert_eq!(a.serving_device, b.serving_device, "placements");
    assert_eq!(a.migrations, b.migrations, "migrations");
    assert_eq!(a.hedges_launched, b.hedges_launched, "hedges launched");
    assert_eq!(a.hedges_won, b.hedges_won, "hedges won");
    for (x, y) in a.device_runs.iter().zip(&b.device_runs) {
        assert_served_identical("rerun device", &x.served, &y.served);
    }
}

/// A hedged duplicate never changes the winning answer: every request
/// resolves to the same answer and token count with hedging on or off.
#[test]
fn hedged_duplicates_never_change_the_winning_answer() {
    let stream = arrivals(8, 91, 18.0);
    let hedged = four_device_fleet(
        RoutePolicy::RoundRobin,
        Some(HedgeConfig {
            delay_factor: 0.05,
            min_samples: 1,
            min_delay_secs: 0.5,
        }),
    )
    .run(&stream)
    .expect("hedged run");
    let plain = four_device_fleet(RoutePolicy::RoundRobin, None)
        .run(&stream)
        .expect("plain run");
    assert!(
        hedged.hedges_launched > 0,
        "the aggressive hedge config must actually hedge"
    );
    assert_eq!(
        hedged.hedges_launched,
        hedged.hedges_won + hedged.hedges_wasted,
        "every hedge is won or wasted"
    );
    for (i, (h, p)) in hedged.served.iter().zip(&plain.served).enumerate() {
        assert_eq!(h.shed, p.shed, "request {i}: completion");
        assert_eq!(
            h.outcome.answer, p.outcome.answer,
            "request {i}: hedging changed the answer"
        );
        assert_eq!(
            h.accepted_tokens(),
            p.accepted_tokens(),
            "request {i}: hedging changed the token count"
        );
    }
}

/// Crash failover migrates interrupted requests to survivors and
/// completes every request; the migration budget lands in the fault
/// bucket and the summary counters agree.
#[test]
fn crash_failover_migrates_and_completes_every_request() {
    let stream = arrivals(8, 105, 6.0);
    let run = four_device_fleet(RoutePolicy::Jsq, None)
        .run_faulted(&stream, &crashy_plans())
        .expect("fleet run");
    assert!(run.migrations > 0, "the crash must interrupt live requests");
    assert!(
        run.served.iter().all(|r| !r.shed),
        "every request completes on a survivor"
    );
    let migrated: Vec<&ServedRequest> = run
        .served
        .iter()
        .zip(&run.serving_device)
        .filter(|(_, d)| **d != Some(1))
        .map(|(r, _)| r)
        .collect();
    assert!(
        migrated
            .iter()
            .any(|r| r.outcome.stats.breakdown().fault > 0.0),
        "migrated winners book the hand-off into the fault bucket"
    );
    let summary = run.summary();
    assert_eq!(summary.devices, 4);
    assert_eq!(summary.migrations, run.migrations);
    assert!((summary.crash_downtime_secs - 200.0).abs() < 1e-9);
    assert!(
        summary.deadline_hit_rate() >= 0.0 && summary.slo_goodput() >= 0.0,
        "fleet summary is well-formed"
    );
    // The crashed device's own view shows the cancelled work.
    assert!(
        run.device_runs[1].cancelled > 0 || run.device_runs[1].served.is_empty(),
        "device 1 either had nothing routed or shows cancelled legs"
    );
}

/// PR 10: the honest timeline with token joins serves every request
/// with the same answers as the plain fleet — honesty moves clocks,
/// never outcomes.
#[test]
fn timeline_fleet_honest_joins_preserves_answers() {
    let stream = arrivals(6, 77, 4.0);
    let config = event_config();
    let devices = || vec![server(9, 0.55), server(9, 0.55)];
    let plain = FleetSim::new(
        devices(),
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::RoundRobin),
    )
    .run(&stream)
    .expect("plain fleet run");
    let honest = FleetSim::new(
        devices(),
        16,
        SearchKind::BeamSearch,
        FleetConfig::new(config, RoutePolicy::RoundRobin).with_timeline(
            TimelineTuning::honest()
                .with_token_joins()
                .with_join_quantum(8),
        ),
    )
    .run(&stream)
    .expect("honest fleet run");
    assert_eq!(honest.served.len(), plain.served.len());
    for (i, (h, p)) in honest.served.iter().zip(&plain.served).enumerate() {
        assert!(!h.shed, "request {i} completes under the honest timeline");
        assert_eq!(
            h.outcome.answer, p.outcome.answer,
            "request {i}: answers survive honest scheduling"
        );
        assert_eq!(
            h.accepted_tokens(),
            p.accepted_tokens(),
            "request {i}: token counts survive honest scheduling"
        );
    }
    assert!(
        honest.device_runs.iter().any(|r| r.timeline.segments > 0),
        "at least one device recorded timeline segments"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small random fleets: 2–3 replicas, a crash of device 1, hedging,
    /// failover on or off, every routing policy, and tight Degrade
    /// deadlines or none. In a debug build every time-bounded router
    /// query and every final outcome a hedge path reads is asserted
    /// equal to the same read of the device's full run; here the run
    /// must also serve each request exactly once.
    #[test]
    fn lazy_device_queries_match_full_runs(
        seed in 0u64..500,
        devices in 2usize..4,
        count in 3usize..8,
        route in 0u8..4,
        crash_at in 2u64..20,
        failover in any::<bool>(),
        joins in any::<bool>(),
        tight in any::<bool>(),
    ) {
        let mut batch = BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30));
        if tight {
            batch = batch.with_robust(RobustConfig::with_policy(FaultPolicy::Degrade));
        }
        let route = ROUTES[usize::from(route)];
        let mut config = FleetConfig::new(EventConfig::new(batch, 0.25), route).with_hedge(
            HedgeConfig {
                delay_factor: 0.5,
                min_samples: 2,
                min_delay_secs: 1.0,
            },
        );
        if !failover {
            config = config.without_failover();
        }
        if joins {
            config = config.with_timeline(
                TimelineTuning::honest()
                    .with_token_joins()
                    .with_join_quantum(8),
            );
        }
        let slos = [(SloClass::Interactive, 12.0), (SloClass::Standard, 30.0)];
        let stream: Vec<RequestArrival> = arrivals(count, seed, 2.0)
            .into_iter()
            .enumerate()
            .map(|(i, a)| if tight { a.with_slo(slos[i % 2].0, slos[i % 2].1) } else { a })
            .collect();
        let mut plans = vec![FaultPlan::none(); devices];
        plans[1] = FaultPlan::new(vec![FaultEvent {
            at: crash_at as f64,
            kind: FaultKind::DeviceCrash { down_for: 30.0 },
        }]);
        let run = FleetSim::new(vec![server(seed, 0.55); devices], 8, SearchKind::BeamSearch, config)
            .run_faulted(&stream, &plans)
            .expect("fleet run");
        prop_assert_eq!(run.served.len(), count);
        prop_assert_eq!(run.device_runs.len(), devices);
        prop_assert_eq!(run.hedges_launched, run.hedges_won + run.hedges_wasted);
    }
}
