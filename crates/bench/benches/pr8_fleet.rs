//! PR-8 benchmark: N-device fleet serving with crash failover, routing
//! policies and hedged stragglers — `BENCH_PR8.json` report.
//!
//! **Fixture: a skewed Zipf trace with one seeded mid-run crash.**
//! Twelve requests Zipf-drawn (skew 1.2) from four distinct AMC-2023
//! problems at a four-second cadence, n = 16 beam search, round-robin
//! SLO deadlines, served by a four-device fleet in which device 1
//! crashes at t = 25 s and stays down for 300 s. Replayed under:
//!
//! * `no_failover` — the naive baseline: the crash stays an on-device
//!   outage (stall + KV loss + replay), the router keeps sending work
//!   into the hole;
//! * `failover_hedge` — crash handled at the routing layer: interrupted
//!   legs migrate to survivors (warm-starting from the host tier when
//!   they had prefilled) and stragglers are hedged on a second replica;
//! * `jsq` vs `prefix_affinity` — crash-free routing comparison on the
//!   same Zipf trace: prefix-affinity follows published prompt prefixes
//!   into the host tier, join-shortest-queue spreads blindly;
//! * `single_device` vs `fleet4` — crash-free capacity scaling on a
//!   deadline-free copy of the trace;
//! * `edge_orin_only` vs `hetero_mixed` — heterogeneous device classes:
//!   four Jetson AGX Orins versus a mixed fleet that swaps two Orins for
//!   A100s, both under join-shortest-queue on the cadenced Zipf trace
//!   (a burst would tie every queue at t = 0 and erase the signal). The
//!   fast replicas drain their queues between arrivals and attract the
//!   tail of the trace, so the mixed fleet's goodput gain is gated.
//!
//! Asserted gates (the PR's acceptance criteria):
//!
//! * failover + hedging beats no-failover on deadline-hit rate **and**
//!   SLO goodput under the identical crash;
//! * prefix-affinity beats join-shortest-queue on warm prefix hits;
//! * the crash-free 4-device fleet delivers ≥ 3x the single device's
//!   stream goodput;
//! * a 1-device fleet reproduces the bare event simulator bit-for-bit
//!   (completion instants and answers) — the PR's equivalence anchor.
//!
//! Run with `cargo bench --bench pr8_fleet` (release profile).

use criterion::Criterion;
use ftts_bench::{wall, write_report};
use ftts_core::{
    BatchConfig, EventConfig, EventServerSim, FaultEvent, FaultKind, FaultPlan, FleetConfig,
    FleetRun, FleetSim, HedgeConfig, KvTierConfig, RoutePolicy, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::SloClass;
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::{zipf_problems, ArrivalPattern, Dataset, RequestArrival};

const N_BEAMS: usize = 16;
const MAX_BATCH: usize = 4;
const DEVICES: usize = 4;
const REQUESTS: usize = 12;
const SCALE_REQUESTS: usize = 16;
const DISTINCT_PROBLEMS: usize = 4;
const ZIPF_SKEW: f64 = 1.2;
const ARRIVAL_INTERVAL_S: f64 = 4.0;
const TIER_CAPACITY: u64 = 1 << 33;
const CRASH_DEVICE: usize = 1;
const CRASH_AT_S: f64 = 25.0;
const CRASH_DOWN_S: f64 = 300.0;

fn server(seed: u64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = 0.55;
    s
}

fn event_config() -> EventConfig {
    EventConfig::new(
        BatchConfig::continuous(MAX_BATCH).with_tier(KvTierConfig::with_capacity(TIER_CAPACITY)),
        0.25,
    )
}

/// Twelve Zipf draws over four distinct problems with round-robin SLO
/// deadlines — the head problem repeats enough that prefix routing has
/// something to follow, and the deadlines make failover measurable.
fn zipf_slo_arrivals() -> Vec<RequestArrival> {
    let slos = [
        (SloClass::Interactive, 90.0),
        (SloClass::Standard, 120.0),
        (SloClass::Batch, 180.0),
    ];
    zipf_arrivals()
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            let (class, slack) = slos[i % slos.len()];
            a.with_slo(class, slack)
        })
        .collect()
}

/// The same trace with no deadlines: the routing fixture.
fn zipf_arrivals() -> Vec<RequestArrival> {
    let ranked = Dataset::Amc2023.problems(DISTINCT_PROBLEMS, 47);
    let drawn = zipf_problems(&ranked, REQUESTS, ZIPF_SKEW, 29);
    ArrivalPattern::Uniform {
        interval: ARRIVAL_INTERVAL_S,
    }
    .schedule(&drawn, 0)
}

/// The capacity-scaling fixture: a deadline-free sixteen-request burst
/// at t = 0 — four full batches of work, so a single device must run
/// four sequential waves while the 4-device fleet runs one.
fn burst_arrivals() -> Vec<RequestArrival> {
    let ranked = Dataset::Amc2023.problems(DISTINCT_PROBLEMS, 47);
    let drawn = zipf_problems(&ranked, SCALE_REQUESTS, ZIPF_SKEW, 29);
    ArrivalPattern::Burst { at: 0.0 }.schedule(&drawn, 0)
}

fn fleet_with(devices: usize, config: FleetConfig) -> FleetSim {
    let servers: Vec<TtsServer> = (0..devices).map(|_| server(17)).collect();
    FleetSim::new(servers, N_BEAMS, SearchKind::BeamSearch, config)
}

/// A fleet over explicit (possibly heterogeneous) device specs.
fn hetero_fleet(specs: Vec<GpuDevice>) -> FleetSim {
    let servers: Vec<TtsServer> = specs
        .into_iter()
        .map(|dev| {
            let mut s = TtsServer::fasttts(dev, ModelPairing::pair_1_5b_1_5b());
            s.config_mut().seed = 17;
            s.config_mut().memory_fraction = 0.55;
            s
        })
        .collect();
    FleetSim::new(
        servers,
        N_BEAMS,
        SearchKind::BeamSearch,
        FleetConfig::new(event_config(), RoutePolicy::Jsq),
    )
}

/// Four embedded-edge Orins — the slow homogeneous baseline.
fn edge_orin_specs() -> Vec<GpuDevice> {
    (0..DEVICES).map(|_| GpuDevice::jetson_orin()).collect()
}

/// The mixed fleet: two Orins swapped for server-class A100s.
fn hetero_mixed_specs() -> Vec<GpuDevice> {
    vec![
        GpuDevice::a100_80g(),
        GpuDevice::jetson_orin(),
        GpuDevice::a100_80g(),
        GpuDevice::jetson_orin(),
    ]
}

fn fleet(devices: usize, route: RoutePolicy, hedge: Option<HedgeConfig>) -> FleetSim {
    let mut config = FleetConfig::new(event_config(), route);
    config.hedge = hedge;
    fleet_with(devices, config)
}

/// One crash on device 1, everything else clean.
fn crashy_plans() -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::none(); DEVICES];
    plans[CRASH_DEVICE] = FaultPlan::new(vec![FaultEvent {
        at: CRASH_AT_S,
        kind: FaultKind::DeviceCrash {
            down_for: CRASH_DOWN_S,
        },
    }]);
    plans
}

fn policy(run: &FleetRun) -> Json {
    let s = run.fleet_summary();
    Json::object([
        ("deadline_hit_rate", s.deadline_hit_rate.into()),
        ("slo_goodput_tok_per_s", s.slo_goodput.into()),
        ("stream_goodput_tok_per_s", s.stream_goodput.into()),
        ("makespan_s", s.makespan.into()),
        ("migrations", run.migrations.into()),
        ("hedges_launched", run.hedges_launched.into()),
        ("hedges_won", run.hedges_won.into()),
        ("hedges_wasted", run.hedges_wasted.into()),
        ("warm_hits", run.warm_hits().into()),
        ("crash_downtime_s", run.crash_downtime_secs.into()),
    ])
}

/// The PR's equivalence anchor: a 1-device fleet with the pass-through
/// router reproduces the bare event simulator bit-for-bit.
fn assert_one_device_anchor(arrivals: &[RequestArrival]) {
    let bare = EventServerSim::new(server(17), N_BEAMS, SearchKind::BeamSearch, event_config())
        .run_faulted(arrivals, &FaultPlan::none())
        .expect("bare run");
    let one = fleet(1, RoutePolicy::RoundRobin, None)
        .run(arrivals)
        .expect("1-device fleet");
    assert_eq!(one.served.len(), bare.served.len());
    for (f, b) in one.served.iter().zip(&bare.served) {
        assert_eq!(f.started_at, b.started_at, "anchor: admission instants");
        assert_eq!(f.finished_at, b.finished_at, "anchor: completion instants");
        assert_eq!(f.outcome.answer, b.outcome.answer, "anchor: answers");
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let slo_trace = zipf_slo_arrivals();
    let free_trace = zipf_arrivals();
    let scale_trace = burst_arrivals();
    let plans = crashy_plans();

    let hedge = HedgeConfig {
        delay_factor: 1.5,
        min_samples: 3,
        min_delay_secs: 5.0,
    };
    let no_failover = fleet_with(
        DEVICES,
        FleetConfig::new(event_config(), RoutePolicy::Jsq).without_failover(),
    )
    .run_faulted(&slo_trace, &plans)
    .expect("no-failover run");
    let failover_hedge = fleet(DEVICES, RoutePolicy::Jsq, Some(hedge))
        .run_faulted(&slo_trace, &plans)
        .expect("failover run");
    let jsq = fleet(DEVICES, RoutePolicy::Jsq, None)
        .run(&slo_trace)
        .expect("jsq run");
    let affinity = fleet(DEVICES, RoutePolicy::PrefixAffinity, None)
        .run(&slo_trace)
        .expect("affinity run");
    let single = fleet(1, RoutePolicy::RoundRobin, None)
        .run(&scale_trace)
        .expect("single-device run");
    let fleet4 = fleet(DEVICES, RoutePolicy::Jsq, None)
        .run(&scale_trace)
        .expect("fleet4 run");
    let edge_only = hetero_fleet(edge_orin_specs())
        .run(&free_trace)
        .expect("edge-orin run");
    let hetero = hetero_fleet(hetero_mixed_specs())
        .run(&free_trace)
        .expect("hetero run");

    println!("== pr8: fleet serving under the seeded crash ==");
    println!(
        "{REQUESTS} requests over {DISTINCT_PROBLEMS} AMC problems (zipf skew {ZIPF_SKEW}), \
         n={N_BEAMS} beam search, {DEVICES} devices, device {CRASH_DEVICE} down \
         [{CRASH_AT_S:.0}, {end:.0}] s",
        end = CRASH_AT_S + CRASH_DOWN_S
    );
    for (label, run) in [
        ("no_failover", &no_failover),
        ("failover_hedge", &failover_hedge),
        ("jsq", &jsq),
        ("prefix_affinity", &affinity),
        ("single_device", &single),
        ("fleet4", &fleet4),
        ("edge_orin_only", &edge_only),
        ("hetero_mixed", &hetero),
    ] {
        let s = run.fleet_summary();
        println!(
            "  {label:<16} hit {hit:>5.2} | slo_goodput {sg:>7.1} tok/s | goodput {gp:>7.1} tok/s | makespan {mk:>6.1} s | migrations {m} | hedges {hl}/{hw} | warm {w}",
            hit = s.deadline_hit_rate,
            sg = s.slo_goodput,
            gp = s.stream_goodput,
            mk = s.makespan,
            m = run.migrations,
            hl = run.hedges_launched,
            hw = run.hedges_won,
            w = run.warm_hits(),
        );
    }

    // The fixture must exercise the contested paths.
    assert!(
        failover_hedge.migrations > 0,
        "the crash must interrupt live requests"
    );
    assert!(
        failover_hedge.served.iter().all(|r| !r.shed),
        "failover must complete every request"
    );

    // Gate (a): failover + hedging beats the naive outage on
    // deadline-hit rate AND SLO goodput under the identical crash.
    let (nf, fh) = (no_failover.fleet_summary(), failover_hedge.fleet_summary());
    assert!(
        fh.deadline_hit_rate > nf.deadline_hit_rate,
        "failover must beat no-failover on deadline-hit rate ({:.3} vs {:.3})",
        fh.deadline_hit_rate,
        nf.deadline_hit_rate
    );
    assert!(
        fh.slo_goodput > nf.slo_goodput,
        "failover must beat no-failover on SLO goodput ({:.1} vs {:.1} tok/s)",
        fh.slo_goodput,
        nf.slo_goodput
    );

    // Gate (b): prefix-affinity routing beats join-shortest-queue on
    // warm prefix hits over the same Zipf trace.
    assert!(
        affinity.warm_hits() > jsq.warm_hits(),
        "prefix affinity must out-warm JSQ ({} vs {} hits)",
        affinity.warm_hits(),
        jsq.warm_hits()
    );

    // Gate (c): crash-free capacity scaling.
    let (s1, s4) = (single.fleet_summary(), fleet4.fleet_summary());
    let scaling = s4.stream_goodput / s1.stream_goodput.max(1e-12);
    assert!(
        scaling >= 3.0,
        "4-device crash-free goodput must be >= 3x single device (got {scaling:.2}x)"
    );

    // Gate (d): heterogeneous device classes. Swapping two Orins for
    // A100s must raise goodput — JSQ's queue-depth signal steers work
    // toward the fast replicas; every request still completes on the
    // slow fleet (capacity, not correctness, is what differs).
    let (se, sh) = (edge_only.fleet_summary(), hetero.fleet_summary());
    let hetero_gain = sh.stream_goodput / se.stream_goodput.max(1e-12);
    assert!(
        edge_only.served.iter().all(|r| !r.shed),
        "the all-Orin fleet must still complete every request"
    );
    assert!(
        hetero_gain >= 1.2,
        "the mixed fleet must out-serve all-Orin by >= 1.2x (got {hetero_gain:.2}x)"
    );

    // Answers are placement-invariant: routing moves time, not tokens.
    for (a, b) in jsq.served.iter().zip(&affinity.served) {
        assert_eq!(
            a.outcome.answer, b.outcome.answer,
            "routing-invariant answers"
        );
    }

    // The PR's 1-device bit-equivalence anchor.
    assert_one_device_anchor(&free_trace);

    println!("\n== pr8: scheduler wall-clock (failover + hedge replay) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall_stats = criterion.bench_stats("failover_hedge_replay", |b| {
        b.iter(|| {
            fleet(DEVICES, RoutePolicy::Jsq, Some(hedge))
                .run_faulted(&slo_trace, &plans)
                .expect("failover run")
        })
    });

    let hit_gain = fh.deadline_hit_rate / nf.deadline_hit_rate.max(1e-12);
    let slo_gain = fh.slo_goodput / nf.slo_goodput.max(1e-12);
    let warm_gain = affinity.warm_hits() as f64 / (jsq.warm_hits().max(1)) as f64;
    let workload = Json::object([
        ("requests", REQUESTS.into()),
        ("distinct_problems", DISTINCT_PROBLEMS.into()),
        ("zipf_skew", ZIPF_SKEW.into()),
        ("n_beams", N_BEAMS.into()),
        ("devices", DEVICES.into()),
        ("arrival_interval_s", ARRIVAL_INTERVAL_S.into()),
        ("crash_device", CRASH_DEVICE.into()),
        ("crash_at_s", CRASH_AT_S.into()),
        ("crash_down_s", CRASH_DOWN_S.into()),
        ("search", "beam".into()),
    ]);
    let policies = Json::object([
        ("no_failover", policy(&no_failover)),
        ("failover_hedge", policy(&failover_hedge)),
        ("jsq", policy(&jsq)),
        ("prefix_affinity", policy(&affinity)),
        ("single_device", policy(&single)),
        ("fleet4", policy(&fleet4)),
        ("edge_orin_only", policy(&edge_only)),
        ("hetero_mixed", policy(&hetero)),
    ]);
    let report = Json::object([
        ("bench", "pr8_fleet".into()),
        ("workload", workload),
        ("policies", policies),
        ("failover_deadline_hit_gain", hit_gain.into()),
        ("failover_slo_goodput_gain", slo_gain.into()),
        ("affinity_warm_hit_gain", warm_gain.into()),
        ("fleet4_goodput_scaling_x", scaling.into()),
        ("hetero_vs_edge_goodput_x", hetero_gain.into()),
        ("failover_wall_clock", wall(&wall_stats)),
    ]);
    write_report("BENCH_PR8.json", &report);
}
