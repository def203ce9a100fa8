//! Event-driven scheduling anchors against the independent FIFO loop,
//! plus the idle-attribution audit.
//!
//! * **Batch 1**: `EventServerSim` with `BatchConfig::fifo()` (and the
//!   anchored timeline at any window) must reproduce `ServerSim::run`
//!   bit-for-bit, the same anchor the lockstep preset carries.
//! * **Observer timeline**: every front door of the one run loop records
//!   its launches on the device timeline; the anchored presets never
//!   stretch a segment. The lockstep, windowed and honest fixtures
//!   themselves are frozen as golden fingerprints in `golden.rs`.
//! * **Idle attribution**: per request, `queue_delay + generator +
//!   verifier + recompute + offload + idle` must equal arrival-to-
//!   completion wall-clock under lockstep rounds and finite windows;
//!   `barrier_idle` is a slice of `idle` that only lockstep rounds may
//!   book — a finite event window never does.

use ftts_core::{
    BatchConfig, BatchedServerSim, EventConfig, EventServerSim, ServedRequest, ServerSim,
    TimelineConfig, TimelineServerSim, TimelineTuning, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

fn assert_served_identical(label: &str, a: &[ServedRequest], b: &[ServedRequest]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.arrived_at, y.arrived_at, "{label}: arrivals");
        assert_eq!(x.started_at, y.started_at, "{label}: admission instants");
        assert_eq!(x.finished_at, y.finished_at, "{label}: completion instants");
        assert_eq!(x.preemptions, y.preemptions, "{label}: preemption counts");
        assert_eq!(x.preempted_secs, y.preempted_secs, "{label}: pause time");
        let (xs, ys) = (&x.outcome.stats, &y.outcome.stats);
        assert_eq!(x.outcome.answer, y.outcome.answer, "{label}: answers");
        assert_eq!(
            xs.completion.latency, ys.completion.latency,
            "{label}: latency"
        );
        assert_eq!(
            xs.completion.breakdown, ys.completion.breakdown,
            "{label}: breakdown (incl. barrier_idle)"
        );
        assert_eq!(xs.iterations, ys.iterations, "{label}: iterations");
        assert_eq!(xs.decoded_tokens, ys.decoded_tokens, "{label}: decoded");
        assert_eq!(xs.verified_tokens, ys.verified_tokens, "{label}: verified");
        assert_eq!(xs.spec, ys.spec, "{label}: speculation counters");
        assert_eq!(xs.gen_cache, ys.gen_cache, "{label}: gen eviction stats");
        assert_eq!(xs.ver_cache, ys.ver_cache, "{label}: ver eviction stats");
        assert_eq!(xs.beams.len(), ys.beams.len(), "{label}: beam counts");
        for (bx, by) in xs.beams.iter().zip(&ys.beams) {
            assert_eq!(bx.tokens, by.tokens);
            assert_eq!(bx.completion_time, by.completion_time);
            assert_eq!(bx.answer, by.answer);
            assert_eq!(bx.score, by.score);
        }
    }
}

// ---------------------------------------------------------------------
// Anchor 1: batch-1 event-driven == ServerSim, bit for bit.
// ---------------------------------------------------------------------

fn check_batch1(label: &str, seed: u64, arrivals: &[RequestArrival], n: usize) {
    let fifo = ServerSim::new(server(seed, 0.9), n, SearchKind::BeamSearch)
        .run(arrivals)
        .expect("fifo run");
    // Any finite window (and the infinite one) must degenerate at batch
    // 1: groups are singletons either way.
    for window in [0.0, 0.5, f64::INFINITY] {
        let event = EventServerSim::new(
            server(seed, 0.9),
            n,
            SearchKind::BeamSearch,
            EventConfig::new(BatchConfig::fifo(), window),
        )
        .run(arrivals)
        .expect("event run");
        assert_served_identical(&format!("{label} (window {window})"), &fifo, &event.served);
        assert_eq!(event.preemptions, 0);
        assert!(event.peak_reserved_bytes <= event.pool_bytes);
        for r in &event.served {
            assert_eq!(
                r.outcome.stats.breakdown().barrier_idle,
                0.0,
                "a singleton group has no one to wait for"
            );
        }
    }
}

#[test]
fn batch1_matches_serversim_on_burst() {
    let problems = Dataset::Amc2023.problems(3, 9);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    check_batch1("burst", 0, &arrivals, 8);
}

#[test]
fn batch1_matches_serversim_on_poisson() {
    let problems = Dataset::Amc2023.problems(4, 21);
    let arrivals = ArrivalPattern::Poisson { rate: 0.05 }.schedule(&problems, 5);
    check_batch1("poisson", 3, &arrivals, 8);
}

#[test]
fn batch1_matches_serversim_on_uniform_overload() {
    let problems = Dataset::Amc2023.problems(3, 33);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    check_batch1("uniform", 11, &arrivals, 8);
}

// ---------------------------------------------------------------------
// Observer timeline: every front door records launches, anchored
// presets never stretch.
// ---------------------------------------------------------------------

#[test]
fn every_front_door_records_the_observer_timeline() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    let lockstep = BatchedServerSim::new(
        server(5, 0.9),
        8,
        SearchKind::BeamSearch,
        BatchConfig::continuous(4),
    )
    .run(&arrivals)
    .expect("lockstep run");
    let event = EventServerSim::new(
        server(5, 0.9),
        16,
        SearchKind::BeamSearch,
        EventConfig::windowed(8, 0.1),
    )
    .run(&arrivals)
    .expect("event run");
    for (label, run) in [("lockstep", &lockstep), ("event", &event)] {
        assert!(run.timeline.segments > 0, "{label}: segments recorded");
        assert!(run.timeline.busy_secs > 0.0, "{label}: busy time recorded");
        assert_eq!(run.timeline.stretch_secs, 0.0, "{label}: never stretches");
    }
}

// ---------------------------------------------------------------------
// Idle attribution.
// ---------------------------------------------------------------------

/// `queue + decode + verifier + recompute + offload + idle` must equal
/// arrival-to-completion wall-clock for every request, under any
/// scheduler. (`barrier_idle` is inside `idle`, not a sixth bucket.)
fn assert_time_conserved(label: &str, served: &[ServedRequest]) {
    for (i, r) in served.iter().enumerate() {
        let b = r.outcome.stats.breakdown();
        let accounted = r.queue_delay() + b.total();
        let wall = r.finished_at - r.arrived_at;
        assert!(
            (accounted - wall).abs() <= 1e-9 * wall.max(1.0),
            "{label} request {i}: accounted {accounted} != wall-clock {wall}"
        );
        assert!(
            b.barrier_idle <= b.idle + 1e-12,
            "{label} request {i}: barrier idle must be a slice of idle"
        );
    }
}

#[test]
fn idle_attribution_sums_to_wall_clock_under_lockstep() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    let run = BatchedServerSim::new(
        server(5, 0.9),
        16,
        SearchKind::BeamSearch,
        BatchConfig::fused(8),
    )
    .run(&arrivals)
    .expect("lockstep run");
    assert_time_conserved("lockstep fused-8", &run.served);
    // Multi-request lockstep rounds must actually wait at barriers —
    // the idle source event-driven scheduling drains.
    let barrier: f64 = run
        .served
        .iter()
        .map(|r| r.outcome.stats.breakdown().barrier_idle)
        .sum();
    assert!(barrier > 0.0, "lockstep rounds must book barrier idle");
}

#[test]
fn idle_attribution_sums_to_wall_clock_under_event_scheduling() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    for window in [0.0, 0.1, 1.0] {
        let run = EventServerSim::new(
            server(5, 0.9),
            16,
            SearchKind::BeamSearch,
            EventConfig::windowed(8, window),
        )
        .run(&arrivals)
        .expect("event run");
        assert_time_conserved(&format!("event window {window}"), &run.served);
        // The headline attribution guarantee: no finite-window launch
        // ever waits at a round barrier.
        for r in &run.served {
            assert_eq!(
                r.outcome.stats.breakdown().barrier_idle,
                0.0,
                "event-driven scheduling never reports barrier idle"
            );
        }
    }
}

#[test]
fn preempted_requests_conserve_time_too() {
    let problems = Dataset::Aime2024.problems(4, 51);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let run = EventServerSim::new(
        server(13, 0.30),
        24,
        SearchKind::BeamSearch,
        EventConfig::new(BatchConfig::continuous(4), 0.2),
    )
    .run(&arrivals)
    .expect("pressured event run");
    assert!(run.preemptions > 0, "fixture must preempt");
    assert_time_conserved("event under pressure", &run.served);
}

// ---------------------------------------------------------------------
// Admission-order determinism.
// ---------------------------------------------------------------------

#[test]
fn simultaneous_arrivals_admit_in_stream_order_on_lockstep_and_windowed_presets() {
    // A burst delivers every request at t = 0: admission must take them
    // in arrival-index order on the lockstep and the windowed presets
    // alike, giving identical, deterministic admission instants.
    let problems = Dataset::Amc2023.problems(5, 77);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let lockstep = BatchedServerSim::new(
        server(2, 0.9),
        8,
        SearchKind::BeamSearch,
        BatchConfig::continuous(3),
    )
    .run(&arrivals)
    .expect("lockstep");
    let event = EventServerSim::new(
        server(2, 0.9),
        8,
        SearchKind::BeamSearch,
        EventConfig::new(BatchConfig::continuous(3), 0.1),
    )
    .run(&arrivals)
    .expect("event");
    for run in [&lockstep, &event] {
        // The first `max_batch` requests admit at t = 0 in stream
        // order; the rest queue behind them, also in stream order.
        assert!(run
            .served
            .windows(2)
            .all(|w| w[0].started_at <= w[1].started_at));
        for r in &run.served[..3] {
            assert_eq!(r.started_at, 0.0, "first wave admits at the burst");
        }
        for r in &run.served[3..] {
            assert!(r.queue_delay() > 0.0, "overflow waits for capacity");
        }
    }
}

#[test]
fn timeline_batch1_matches_serversim() {
    // Batch 1 collapses the whole stack: called directly, the anchored
    // timeline loop must reproduce the FIFO `ServerSim` exactly, as it
    // does behind the lockstep and event front doors.
    let problems = Dataset::Amc2023.problems(3, 33);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    let fifo = ServerSim::new(server(11, 0.9), 8, SearchKind::BeamSearch)
        .run(&arrivals)
        .expect("fifo run");
    for window in [0.0, 0.5, f64::INFINITY] {
        let timeline = TimelineServerSim::new(
            server(11, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineConfig::from(EventConfig::new(BatchConfig::fifo(), window)),
        )
        .run(&arrivals)
        .expect("timeline run");
        assert_served_identical(
            &format!("timeline batch-1 (window {window})"),
            &fifo,
            &timeline.served,
        );
    }
}

// ---------------------------------------------------------------------
// Honest-mode attribution: contention joins the conservation identity,
// join waits stay a slice of idle.
// ---------------------------------------------------------------------

#[test]
fn honest_timeline_conserves_time_and_prices_overlap() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    let event = EventConfig::windowed(6, 0.0);
    let honest = TimelineServerSim::new(
        server(5, 0.9),
        16,
        SearchKind::BeamSearch,
        TimelineTuning::honest().config(event),
    )
    .run(&arrivals)
    .expect("honest run");
    assert_time_conserved("honest timeline", &honest.served);
    let stretched: f64 = honest
        .served
        .iter()
        .map(|r| r.outcome.stats.breakdown().contention)
        .sum();
    assert!(
        stretched > 0.0,
        "window-0 overlap under load must book contention stretch"
    );
    assert!(
        honest.timeline.stretch_secs > 0.0,
        "segments already on the timeline must stretch retroactively"
    );
    // The iteration-granularity reference books none.
    let anchored = TimelineServerSim::new(
        server(5, 0.9),
        16,
        SearchKind::BeamSearch,
        TimelineConfig::from(event),
    )
    .run(&arrivals)
    .expect("anchored run");
    for r in &anchored.served {
        assert_eq!(r.outcome.stats.breakdown().contention, 0.0);
    }
}

#[test]
fn token_join_timeline_conserves_time() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    let joins = TimelineServerSim::new(
        server(5, 0.9),
        16,
        SearchKind::BeamSearch,
        TimelineTuning::honest()
            .with_token_joins()
            .with_join_quantum(8)
            .config(EventConfig::windowed(6, 0.0)),
    )
    .run(&arrivals)
    .expect("joins run");
    assert_time_conserved("token-join timeline", &joins.served);
    for r in &joins.served {
        let b = r.outcome.stats.breakdown();
        assert!(
            b.join_wait <= b.idle + 1e-9,
            "join_wait must stay a slice of idle"
        );
    }
}
