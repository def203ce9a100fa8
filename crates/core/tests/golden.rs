//! Golden fingerprints of the scheduler anchor fixtures.
//!
//! Every fixture is a seeded arrival stream, a fault plan and one
//! scheduling policy. Its fingerprint is the 64-bit FNV-1a hash of the
//! run's `{:?}` rendering with the observer timeline
//! (`BatchRun::timeline`) reset to its default. `Debug` prints each f64
//! as the shortest string that round-trips, and no result type holds a
//! hash map, so the hash is bit-exact over every served record,
//! breakdown bucket and run counter.
//!
//! A second row per fixture, `<fixture>.timeline`, fingerprints the
//! observer timeline itself: the FNV-1a hash of the `{:?}` of the run's
//! `TimelineOccupancy`, or of the list of per-device occupancies for a
//! fleet.
//!
//! `golden/anchors.txt` holds one `<row> <fingerprint>` line per row.
//! Each fixture runs once and must reproduce both of its lines: a
//! single-device fixture through the one scheduler type,
//! `TimelineServerSim` (`BatchedServerSim` and `EventServerSim` are
//! other names for it), and a fleet fixture through `FleetSim`. The rows
//! were recorded when the lockstep, event-driven and timeline front
//! doors were separate loops that agreed bit for bit, so they still pin
//! what each of those loops computed.
//!
//! On a mismatch the test prints the line it computed. A deliberate
//! behaviour change edits `anchors.txt` by hand and records why in
//! CHANGES.md; there is no regeneration switch.

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, FaultPlan, FaultPolicy, FleetConfig, FleetRun, FleetSim,
    HedgeConfig, KvTierConfig, RobustConfig, RoutePolicy, StormConfig, TenantPolicy, TenantSpec,
    TimelineConfig, TimelineServerSim, TimelineTuning, TtsServer,
};
use ftts_core::{FaultEvent, FaultKind};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::{SloClass, TimelineOccupancy};
use ftts_search::SearchKind;
use ftts_workload::{zipf_problems, ArrivalPattern, Dataset, RequestArrival};

const ANCHORS: &str = include_str!("golden/anchors.txt");

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_debug(value: &impl std::fmt::Debug) -> String {
    format!("{:016x}", fnv1a(format!("{value:?}").as_bytes()))
}

fn fingerprint(run: &BatchRun) -> String {
    let mut run = run.clone();
    run.timeline = TimelineOccupancy::default();
    hash_debug(&run)
}

fn fleet_fingerprint(run: &FleetRun) -> String {
    let mut run = run.clone();
    for device in &mut run.device_runs {
        device.timeline = TimelineOccupancy::default();
    }
    hash_debug(&run)
}

fn fleet_timeline_fingerprint(run: &FleetRun) -> String {
    let timelines: Vec<&TimelineOccupancy> = run.device_runs.iter().map(|r| &r.timeline).collect();
    hash_debug(&timelines)
}

/// The name of a fixture's observer-timeline row.
fn timeline_row(fixture: &str) -> String {
    format!("{fixture}.timeline")
}

fn golden(fixture: &str) -> &'static str {
    ANCHORS
        .lines()
        .find_map(|line| {
            let (name, fp) = line.split_once(' ')?;
            (name == fixture).then_some(fp)
        })
        .unwrap_or_else(|| panic!("anchors.txt has no row for fixture {fixture}"))
}

/// Compare a computed fingerprint with its golden row; on a mismatch,
/// fail with the line the run computed.
fn check(row: &str, computed: &str) {
    let want = golden(row);
    assert!(
        computed == want,
        "row {row} drifted from its golden line `{row} {want}`; computed:\n{row} {computed}"
    );
}

/// An anchored policy's observer timeline records segments and never
/// stretches them.
fn assert_observer(label: &str, occ: &TimelineOccupancy) {
    assert!(occ.segments > 0, "{label}: the observer records segments");
    assert_eq!(occ.stretch_secs, 0.0, "{label}: anchored never stretches");
}

// ---------------------------------------------------------------------
// Single-device fixtures.
// ---------------------------------------------------------------------

struct Fixture {
    name: &'static str,
    seed: u64,
    memory_fraction: f64,
    n: usize,
    arrivals: Vec<RequestArrival>,
    plan: FaultPlan,
    config: TimelineConfig,
}

impl Fixture {
    fn new(
        name: &'static str,
        (seed, memory_fraction, n): (u64, f64, usize),
        arrivals: Vec<RequestArrival>,
        config: impl Into<TimelineConfig>,
    ) -> Self {
        Self {
            name,
            seed,
            memory_fraction,
            n,
            arrivals,
            plan: FaultPlan::none(),
            config: config.into(),
        }
    }

    fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    fn check(&self) {
        let server = server(self.seed, self.memory_fraction);
        let run = TimelineServerSim::new(server, self.n, SearchKind::BeamSearch, self.config)
            .run_faulted(&self.arrivals, &self.plan)
            .expect("scheduler run");
        if self.config.tuning == TimelineTuning::anchored() {
            assert_observer(self.name, &run.timeline);
        } else {
            assert!(run.timeline.segments > 0, "{}: segments", self.name);
        }
        check(self.name, &fingerprint(&run));
        check(&timeline_row(self.name), &hash_debug(&run.timeline));
    }
}

fn uniform(dataset: Dataset, count: usize, seed: u64, interval: f64) -> Vec<RequestArrival> {
    ArrivalPattern::Uniform { interval }.schedule(&dataset.problems(count, seed), 0)
}

/// Four deep AIME searches bursting into a tight pool.
fn pressured() -> Vec<RequestArrival> {
    ArrivalPattern::Burst { at: 0.0 }.schedule(&Dataset::Aime2024.problems(4, 51), 0)
}

/// Tenant 1 dumps deep AIME searches at t=0; tenant 0 trickles shallow
/// AMC requests in behind them.
fn noisy_neighbour() -> Vec<RequestArrival> {
    let mut arrivals: Vec<RequestArrival> = ArrivalPattern::Burst { at: 0.0 }
        .schedule(&Dataset::Aime2024.problems(3, 13), 0)
        .into_iter()
        .map(|a| a.with_tenant(1))
        .collect();
    arrivals.extend(
        uniform(Dataset::Amc2023, 4, 11, 2.0)
            .into_iter()
            .map(|a| a.with_tenant(0)),
    );
    arrivals.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite arrival times"));
    arrivals
}

fn lockstep_fixtures() -> Vec<Fixture> {
    let amc6 = || uniform(Dataset::Amc2023, 6, 41, 1.0);
    let storm = || FaultPlan::storm(7, 60.0, &StormConfig::default());
    let tiered = BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 28));
    let tenants = TenantPolicy::new(&[
        TenantSpec {
            id: 0,
            weight: 1,
            kv_cap_bytes: u64::MAX,
            max_in_flight: 0,
        },
        TenantSpec {
            id: 1,
            weight: 1,
            kv_cap_bytes: server(7, 0.45).config().kv_budget_bytes() / 4,
            max_in_flight: 0,
        },
    ]);
    let mut deadlines = pressured();
    for a in &mut deadlines {
        *a = a.clone().with_slo(SloClass::Batch, f64::INFINITY);
    }
    deadlines[2] = deadlines[2].clone().with_slo(SloClass::Batch, 60.0);
    vec![
        Fixture::new(
            "lockstep-continuous-4",
            (5, 0.9, 8),
            amc6(),
            BatchConfig::continuous(4),
        ),
        Fixture::new(
            "lockstep-fused-8",
            (17, 0.9, 16),
            uniform(Dataset::Amc2023, 5, 29, 1.0),
            BatchConfig::fused(8),
        ),
        Fixture::new(
            "lockstep-gang-3",
            (3, 0.9, 8),
            uniform(Dataset::Amc2023, 5, 31, 1.0),
            BatchConfig::gang(3),
        ),
        Fixture::new(
            "lockstep-pressure",
            (13, 0.30, 24),
            pressured(),
            BatchConfig::continuous(4),
        ),
        Fixture::new(
            "lockstep-storm",
            (5, 0.9, 8),
            amc6(),
            BatchConfig::continuous(4),
        )
        .with_plan(storm()),
        Fixture::new("lockstep-tiered", (13, 0.30, 24), pressured(), tiered),
        Fixture::new("lockstep-tiered-storm", (13, 0.30, 24), pressured(), tiered)
            .with_plan(storm()),
        Fixture::new(
            "lockstep-noisy-neighbour",
            (7, 0.45, 12),
            noisy_neighbour(),
            BatchConfig::fused(4).with_tenants(tenants),
        ),
        Fixture::new(
            "lockstep-degrade-deadline",
            (13, 0.30, 24),
            deadlines,
            BatchConfig::continuous(4)
                .with_tier(KvTierConfig::with_capacity(1 << 30))
                .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade)),
        ),
    ]
}

fn windowed_fixtures() -> Vec<Fixture> {
    let amc6 = || uniform(Dataset::Amc2023, 6, 41, 1.0);
    let anchored = |window| EventConfig::windowed(8, window);
    let tiered = BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30));
    vec![
        Fixture::new("anchored-window-0", (5, 0.9, 16), amc6(), anchored(0.0)),
        Fixture::new("anchored-window-0.1", (5, 0.9, 16), amc6(), anchored(0.1)),
        Fixture::new("anchored-window-1", (5, 0.9, 16), amc6(), anchored(1.0)),
        Fixture::new(
            "anchored-fault-storm",
            (17, 0.9, 16),
            uniform(Dataset::Amc2023, 5, 29, 1.0),
            anchored(0.1),
        )
        .with_plan(FaultPlan::storm(0xBEEF, 80.0, &StormConfig::default())),
        Fixture::new(
            "anchored-host-tier",
            (13, 0.30, 24),
            pressured(),
            EventConfig::new(tiered, 0.2),
        ),
    ]
}

fn honest_fixtures() -> Vec<Fixture> {
    let amc6 = || uniform(Dataset::Amc2023, 6, 41, 0.5);
    let (honest, event) = (TimelineTuning::honest(), EventConfig::windowed(6, 0.0));
    vec![
        Fixture::new(
            "honest-window-0",
            (5, 0.9, 16),
            amc6(),
            honest.config(event),
        ),
        Fixture::new(
            "token-joins-q8",
            (5, 0.9, 16),
            amc6(),
            honest.with_token_joins().with_join_quantum(8).config(event),
        ),
    ]
}

// ---------------------------------------------------------------------
// Fleet fixtures.
// ---------------------------------------------------------------------

struct FleetFixture {
    name: &'static str,
    servers: Vec<TtsServer>,
    /// Beam width of every request.
    beams: usize,
    arrivals: Vec<RequestArrival>,
    plans: Vec<FaultPlan>,
    config: FleetConfig,
    /// Asserts the run exercises the paths the fixture is for.
    covers: fn(&FleetRun),
}

impl FleetFixture {
    fn check(&self) {
        let run = FleetSim::new(
            self.servers.clone(),
            self.beams,
            SearchKind::BeamSearch,
            self.config,
        )
        .run_faulted(&self.arrivals, &self.plans)
        .expect("fleet run");
        (self.covers)(&run);
        if self.config.policy.tuning == TimelineTuning::anchored() {
            for (d, device) in run.device_runs.iter().enumerate() {
                if !device.served.is_empty() {
                    assert_observer(&format!("{} device {d}", self.name), &device.timeline);
                }
            }
        } else {
            assert!(
                run.device_runs.iter().any(|r| r.timeline.segments > 0),
                "{}: segments",
                self.name
            );
        }
        check(self.name, &fleet_fingerprint(&run));
        check(&timeline_row(self.name), &fleet_timeline_fingerprint(&run));
    }
}

fn fleet_fixtures() -> Vec<FleetFixture> {
    let event = EventConfig::new(
        BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30)),
        0.25,
    );
    let amc = |count, seed, interval| uniform(Dataset::Amc2023, count, seed, interval);
    let mut crashy = vec![FaultPlan::none(); 4];
    crashy[1] = FaultPlan::new(vec![FaultEvent {
        at: 25.0,
        kind: FaultKind::DeviceCrash { down_for: 200.0 },
    }]);
    vec![
        FleetFixture {
            name: "fleet-anchored-jsq",
            servers: vec![server(9, 0.55); 2],
            beams: 16,
            arrivals: amc(6, 77, 4.0),
            plans: vec![FaultPlan::none(); 2],
            config: FleetConfig::new(event, RoutePolicy::Jsq),
            covers: |_| {},
        },
        FleetFixture {
            name: "fleet-anchored-failover-hedge",
            servers: vec![server(9, 0.55); 4],
            beams: 16,
            arrivals: amc(8, 77, 6.0),
            plans: crashy,
            config: FleetConfig::new(event, RoutePolicy::PrefixAffinity).with_hedge(HedgeConfig {
                delay_factor: 0.5,
                min_samples: 2,
                min_delay_secs: 1.0,
            }),
            covers: |_| {},
        },
        FleetFixture {
            name: "fleet-honest-joins-rr",
            servers: vec![server(9, 0.55); 2],
            beams: 16,
            arrivals: amc(6, 77, 4.0),
            plans: vec![FaultPlan::none(); 2],
            config: FleetConfig::new(event, RoutePolicy::RoundRobin).with_timeline(
                TimelineTuning::honest()
                    .with_token_joins()
                    .with_join_quantum(8),
            ),
            covers: |_| {},
        },
        FleetFixture {
            name: "fleet-health-ewma",
            servers: vec![server(9, 0.55); 3],
            beams: 16,
            arrivals: amc(10, 79, 3.0),
            plans: vec![
                FaultPlan::storm(5, 40.0, &StormConfig::default()),
                FaultPlan::none(),
                FaultPlan::storm(6, 40.0, &StormConfig::default()),
            ],
            config: FleetConfig::new(event, RoutePolicy::HealthEwma),
            covers: |run| {
                let used: Vec<usize> = run.serving_device.iter().flatten().copied().collect();
                assert!(
                    used.iter().any(|&d| d != used[0]),
                    "health-EWMA routing spreads the stream over replicas"
                );
            },
        },
        sim_fleet_shape("fleet-sim-fleet-shape", 0),
        sim_fleet_shape("fleet-sim-fleet-shape-seed-16", 16),
        sim_fleet_shape("fleet-sim-fleet-shape-seed-20", 20),
        sim_fleet_shape("fleet-sim-fleet-shape-seed-22", 22),
        // A hedge pair resolves at its projected winner finish, but by
        // then the winner finishes earlier: the loser is cancelled
        // retroactively, at the winner's new finish.
        hedged_trio(
            "fleet-retroactive-loser-cancel",
            48,
            RoutePolicy::Jsq,
            TimelineTuning::honest()
                .with_token_joins()
                .with_join_quantum(8),
        ),
        // A hedge check finds its leg still running, but the leg's run
        // sheds it later (a deadline cancel), so no hedge launches.
        hedged_trio(
            "fleet-hedge-check-shed-later",
            5,
            RoutePolicy::PrefixAffinity,
            TimelineTuning::anchored(),
        ),
    ]
}

/// Three replicas behind aggressive hedging (half the observed p99,
/// after two completions) with tight Degrade deadlines, and device 1
/// down for 40 s from `6 + seed % 7` seconds: eight AMC requests 2 s
/// apart at 8 beams. The seeds come from a scan of such streams for
/// runs that take the router path each fixture names.
fn hedged_trio(
    name: &'static str,
    seed: u64,
    route: RoutePolicy,
    tuning: TimelineTuning,
) -> FleetFixture {
    let event = EventConfig::new(
        BatchConfig::continuous(4)
            .with_tier(KvTierConfig::with_capacity(1 << 30))
            .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade)),
        0.25,
    );
    let slos = [
        (SloClass::Interactive, 12.0),
        (SloClass::Standard, 30.0),
        (SloClass::Batch, 60.0),
    ];
    let arrivals = uniform(Dataset::Amc2023, 8, seed, 2.0)
        .into_iter()
        .enumerate()
        .map(|(i, a)| a.with_slo(slos[i % 3].0, slos[i % 3].1))
        .collect();
    let mut plans = vec![FaultPlan::none(); 3];
    plans[1] = FaultPlan::new(vec![FaultEvent {
        at: 6.0 + (seed % 7) as f64,
        kind: FaultKind::DeviceCrash { down_for: 40.0 },
    }]);
    FleetFixture {
        name,
        servers: vec![server(9, 0.55); 3],
        beams: 8,
        arrivals,
        plans,
        config: FleetConfig::new(event, route)
            .with_hedge(HedgeConfig {
                delay_factor: 0.5,
                min_samples: 2,
                min_delay_secs: 1.0,
            })
            .with_timeline(tuning),
        covers: |run| {
            assert!(run.migrations > 0, "crash failover migrates");
            assert!(run.hedges_launched > 0, "a straggler is hedged");
        },
    }
}

/// The shape of perfbench's `sim-fleet` workload
/// (`perfbench/src/fleet.rs`, whose constants are copied here): four
/// RTX 4090 / Jetson Orin replicas under prefix affinity with hedging,
/// honest contention with 2-token joins, a host tier, Degrade SLOs,
/// twelve Zipf draws over four problems, a fault storm on every device
/// and a crash of device 1 at 25 s. One job, at a uniform 4 s cadence
/// instead of Poisson gaps, seeded by `seed`. Every seed's run migrates
/// and hedges; seed 0's also sheds, degrades, warm-starts and
/// stretches. The other seeds resume their devices' runs in place and
/// from checkpoints after the router's edits (see the `fleet` module
/// docs), so together the rows pin every resume path the sim-fleet
/// workload takes.
fn sim_fleet_shape(name: &'static str, seed: u64) -> FleetFixture {
    let servers = [
        GpuDevice::rtx4090(),
        GpuDevice::jetson_orin(),
        GpuDevice::rtx4090(),
        GpuDevice::jetson_orin(),
    ]
    .into_iter()
    .map(|device| {
        let mut s = TtsServer::fasttts(device, ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = 17;
        s.config_mut().memory_fraction = 0.55;
        s
    })
    .collect();
    let event = EventConfig::new(
        BatchConfig::continuous(4)
            .with_tier(KvTierConfig::with_capacity(1 << 33))
            .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade)),
        0.25,
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
    FleetFixture {
        name,
        servers,
        beams: 16,
        arrivals,
        plans,
        config: FleetConfig::new(event, RoutePolicy::PrefixAffinity)
            .with_hedge(HedgeConfig {
                delay_factor: 1.5,
                min_samples: 3,
                min_delay_secs: 5.0,
            })
            .with_timeline(
                TimelineTuning::honest()
                    .with_token_joins()
                    .with_join_quantum(2),
            ),
        covers: if seed == 0 {
            sim_fleet_covers_all
        } else {
            |run| {
                assert!(run.migrations > 0, "crash failover migrates");
                assert!(run.hedges_launched > 0, "a straggler is hedged");
            }
        },
    }
}

/// What seed 0 of the sim-fleet shape exercises.
fn sim_fleet_covers_all(run: &FleetRun) {
    let devices = &run.device_runs;
    assert!(run.migrations > 0, "crash failover migrates");
    assert!(run.hedges_launched > 0, "a straggler is hedged");
    assert!(devices.iter().any(|r| r.shed > 0), "an arrival is shed");
    assert!(run.served.iter().any(|r| r.shed), "a request ends shed");
    assert!(
        devices.iter().any(|r| r.degradations > 0),
        "Degrade narrows"
    );
    assert!(devices.iter().any(|r| r.kv_tier_hits > 0), "a warm start");
    assert!(
        devices.iter().any(|r| r.timeline.stretch_secs > 0.0),
        "contention stretches"
    );
}

// ---------------------------------------------------------------------
// Tests: one per golden row.
// ---------------------------------------------------------------------

/// Build the named fixture and check its two rows.
fn check_fixture(name: &str) {
    if let Some(f) = single_fixtures().into_iter().find(|f| f.name == name) {
        return f.check();
    }
    fleet_fixtures()
        .into_iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no fixture named {name}"))
        .check();
}

fn single_fixtures() -> Vec<Fixture> {
    let mut all = lockstep_fixtures();
    all.extend(windowed_fixtures());
    all.extend(honest_fixtures());
    all
}

macro_rules! golden_tests {
    ($($test:ident => $fixture:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check_fixture($fixture);
            }
        )*

        /// Every fixture a test checks, in declaration order.
        const TESTED: &[&str] = &[$($fixture),*];
    };
}

golden_tests! {
    lockstep_continuous_4 => "lockstep-continuous-4",
    lockstep_fused_8 => "lockstep-fused-8",
    lockstep_gang_3 => "lockstep-gang-3",
    lockstep_pressure => "lockstep-pressure",
    lockstep_storm => "lockstep-storm",
    lockstep_tiered => "lockstep-tiered",
    lockstep_tiered_storm => "lockstep-tiered-storm",
    lockstep_noisy_neighbour => "lockstep-noisy-neighbour",
    lockstep_degrade_deadline => "lockstep-degrade-deadline",
    anchored_window_0 => "anchored-window-0",
    anchored_window_0_1 => "anchored-window-0.1",
    anchored_window_1 => "anchored-window-1",
    anchored_fault_storm => "anchored-fault-storm",
    anchored_host_tier => "anchored-host-tier",
    honest_window_0 => "honest-window-0",
    token_joins_q8 => "token-joins-q8",
    fleet_anchored_jsq => "fleet-anchored-jsq",
    fleet_anchored_failover_hedge => "fleet-anchored-failover-hedge",
    fleet_honest_joins_rr => "fleet-honest-joins-rr",
    fleet_health_ewma => "fleet-health-ewma",
    fleet_sim_fleet_shape => "fleet-sim-fleet-shape",
    fleet_sim_fleet_shape_seed_16 => "fleet-sim-fleet-shape-seed-16",
    fleet_sim_fleet_shape_seed_20 => "fleet-sim-fleet-shape-seed-20",
    fleet_sim_fleet_shape_seed_22 => "fleet-sim-fleet-shape-seed-22",
    fleet_retroactive_loser_cancel => "fleet-retroactive-loser-cancel",
    fleet_hedge_check_shed_later => "fleet-hedge-check-shed-later",
}

#[test]
fn every_golden_row_has_one_fixture_and_one_test() {
    /// Each fixture's two row names, sorted.
    fn rows_of<'a>(fixtures: impl Iterator<Item = &'a str>) -> Vec<String> {
        let mut rows: Vec<String> = fixtures
            .flat_map(|name| [name.to_string(), timeline_row(name)])
            .collect();
        rows.sort_unstable();
        rows
    }
    let mut rows: Vec<String> = ANCHORS
        .lines()
        .map(|line| {
            line.split_once(' ')
                .map_or(line, |(name, _)| name)
                .to_string()
        })
        .collect();
    rows.sort_unstable();
    let built = rows_of(
        single_fixtures()
            .iter()
            .map(|f| f.name)
            .chain(fleet_fixtures().iter().map(|f| f.name)),
    );
    assert_eq!(rows, built, "anchors.txt rows and fixtures must match 2:1");
    assert_eq!(
        rows,
        rows_of(TESTED.iter().copied()),
        "every fixture has one test"
    );
}
