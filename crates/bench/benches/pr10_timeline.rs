//! PR-10 benchmark: the global device timeline with token-granularity
//! decode joins, against iteration-granularity event scheduling —
//! `BENCH_PR10.json` report.
//!
//! **Fixtures.** The goodput fixture is a straggler-heavy overload at
//! window = 0: twelve requests (shallow AMC-2023 mixed with deep
//! AIME-2024 stragglers) arriving every 1.5 s into a fused-6 scheduler,
//! n = 16 beam search. The join-wait fixture is one deep AIME
//! straggler holding the device plus shallow AMC arrivals trickling in
//! every 6 s with free batch seats: iteration-granularity scheduling
//! holds them (and their co-batch) to *launch boundaries*; token joins
//! admit and resync at *chunk boundaries*, so the late arrivals finish
//! sooner. (Under overload the admission wait is slot-bound — a seat
//! frees at launch end in both modes — so the boundary granularity
//! only shows in goodput there.)
//!
//! Every timeline policy here runs with **honest contention pricing**
//! on ([`TimelineTuning::honest`]): overlapping launches retroactively
//! stretch each other on the shared device timeline, so window = 0 no
//! longer gets free overlap. That keeps the comparison fair — the PR's
//! speedup is *scheduling* (joining sooner), not optimistic costing.
//!
//! Asserted gates (the PR's acceptance criteria):
//!
//! * token joins beat iteration-granularity joins at window = 0 on
//!   stream goodput **and** the late arrivals' mean join latency (the
//!   end-to-end latency of requests that join an in-flight decode);
//! * retroactive contention is real: the honest window-0 run books
//!   stretch seconds > 0 and no longer coincides with the
//!   infinite-window (lockstep) run — the overlap-pricing gap is > 0;
//! * the anchored event scheduler (contention off, joins off) records
//!   segments on the timeline but never stretches them;
//! * answers are schedule-invariant across all policies.
//!
//! `EventServerSim` is the one scheduler type under the anchored
//! policy, so the golden `anchored-*` rows in
//! `crates/core/tests/golden/anchors.txt` pin its bit-equivalence with
//! the event-driven loop those rows were recorded from.
//!
//! Run with `cargo bench --bench pr10_timeline` (release profile).

use criterion::Criterion;
use ftts_bench::{wall, write_report};
use ftts_core::{
    BatchRun, EventConfig, EventServerSim, FaultPlan, TimelineServerSim, TimelineTuning, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

const N_BEAMS: usize = 16;
const MAX_BATCH: usize = 6;
const ARRIVAL_INTERVAL_S: f64 = 1.5;
/// Arrival cadence of the sparse join-wait fixture.
const SPARSE_INTERVAL_S: f64 = 6.0;
/// Decode tokens per sequence between token-join chunk boundaries.
const JOIN_QUANTUM: u64 = 2;
/// Gate: token joins must beat iteration joins on goodput by this much.
const JOIN_GOODPUT_TARGET: f64 = 1.01;
/// Gate: and cut the late arrivals' mean join latency by this factor.
const JOIN_WAIT_TARGET: f64 = 1.01;

fn server(seed: u64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = 0.9;
    s
}

/// Shallow AMC requests interleaved with deep AIME stragglers at a
/// 1.5 s cadence — arrivals almost always land mid-launch.
fn straggler_arrivals() -> Vec<RequestArrival> {
    let shallow = Dataset::Amc2023.problems(7, 29);
    let deep = Dataset::Aime2024.problems(5, 43);
    let problems = vec![
        shallow[0], deep[0], shallow[1], shallow[2], deep[1], shallow[3], deep[2], shallow[4],
        deep[3], shallow[5], deep[4], shallow[6],
    ];
    ArrivalPattern::Uniform {
        interval: ARRIVAL_INTERVAL_S,
    }
    .schedule(&problems, 0)
}

/// The join-wait fixture: one deep AIME straggler holds the device
/// from t = 0, then shallow AMC requests trickle in with free batch
/// seats and join its in-flight decode. Iteration-granularity
/// scheduling holds each late arrival (and the co-batch it joins) to
/// *launch boundaries*; token joins admit at the next *chunk boundary*
/// and resync there, so the late arrivals finish sooner. The admission
/// instant itself is booked at arrival in both modes (the boundary
/// wait lands in the idle bucket), so the observable is the late
/// arrivals' completion latency, not `queue_delay`.
fn sparse_arrivals() -> Vec<RequestArrival> {
    let shallow = Dataset::Amc2023.problems(5, 29);
    let deep = Dataset::Aime2024.problems(1, 43);
    let problems = vec![
        deep[0], shallow[0], shallow[1], shallow[2], shallow[3], shallow[4],
    ];
    ArrivalPattern::Uniform {
        interval: SPARSE_INTERVAL_S,
    }
    .schedule(&problems, 0)
}

fn event_config(window: f64) -> EventConfig {
    EventConfig::windowed(MAX_BATCH, window)
}

fn run_event(arrivals: &[RequestArrival], window: f64) -> BatchRun {
    EventServerSim::new(
        server(17),
        N_BEAMS,
        SearchKind::BeamSearch,
        event_config(window),
    )
    .run(arrivals)
    .expect("event run")
}

fn run_timeline(arrivals: &[RequestArrival], tuning: TimelineTuning, window: f64) -> BatchRun {
    let config = tuning.config(event_config(window));
    TimelineServerSim::new(server(17), N_BEAMS, SearchKind::BeamSearch, config)
        .run_faulted(arrivals, &FaultPlan::none())
        .expect("timeline run")
}

/// Honest contention pricing with token joins every `JOIN_QUANTUM`
/// decode tokens.
fn token_joins() -> TimelineTuning {
    TimelineTuning::honest()
        .with_token_joins()
        .with_join_quantum(JOIN_QUANTUM)
}

/// Mean seconds an arrival waited before entering the decode batch.
fn mean_admission_wait(run: &BatchRun) -> f64 {
    let total: f64 = run
        .served
        .iter()
        .map(ftts_core::ServedRequest::queue_delay)
        .sum();
    total / run.served.len().max(1) as f64
}

/// Mean end-to-end latency of the *late* arrivals (`arrived_at > 0`) —
/// the requests that join an in-flight decode. The launch-boundary
/// wait iteration scheduling imposes on them shows up here.
fn mean_late_latency(run: &BatchRun) -> f64 {
    let late: Vec<f64> = run
        .served
        .iter()
        .filter(|r| r.arrived_at > 0.0)
        .map(ftts_core::ServedRequest::total_latency)
        .collect();
    late.iter().sum::<f64>() / late.len().max(1) as f64
}

/// (contention seconds, join-wait seconds) summed over a run.
fn honesty_profile(run: &BatchRun) -> (f64, f64) {
    run.served.iter().fold((0.0, 0.0), |(c, j), r| {
        let b = r.outcome.stats.breakdown();
        (c + b.contention, j + b.join_wait)
    })
}

fn policy(run: &BatchRun) -> Json {
    let s = run.stream_summary();
    let (contention, join_wait) = honesty_profile(run);
    Json::object([
        ("stream_goodput_tok_per_s", s.stream_goodput.into()),
        ("makespan_s", s.makespan.into()),
        ("total_accepted_tokens", s.total_accepted_tokens.into()),
        ("latency_mean_s", s.latency.mean.into()),
        ("latency_p95_s", s.latency.p95.into()),
        ("mean_admission_wait_s", mean_admission_wait(run).into()),
        ("late_arrival_latency_mean_s", mean_late_latency(run).into()),
        ("contention_s", contention.into()),
        ("join_wait_s", join_wait.into()),
        ("launches", run.rounds.into()),
        ("timeline_segments", run.timeline.segments.into()),
        ("timeline_busy_s", run.timeline.busy_secs.into()),
        ("timeline_stretch_s", run.timeline.stretch_secs.into()),
        ("timeline_utilization", run.timeline.utilization().into()),
        (
            "timeline_max_concurrency",
            run.timeline.max_concurrency.into(),
        ),
    ])
}

#[allow(clippy::too_many_lines)]
fn main() {
    let arrivals = straggler_arrivals();
    let event_w0 = run_event(&arrivals, 0.0);
    let iter_w0 = run_timeline(&arrivals, TimelineTuning::honest(), 0.0);
    let joins_w0 = run_timeline(&arrivals, token_joins(), 0.0);
    let iter_winf = run_timeline(&arrivals, TimelineTuning::honest(), f64::INFINITY);

    println!("== pr10: global device timeline on the straggler overload ==");
    println!(
        "{} requests (AMC + AIME mix), n={N_BEAMS} beam search, one arrival per \
         {ARRIVAL_INTERVAL_S} s, fused-{MAX_BATCH}, join quantum {JOIN_QUANTUM} tokens",
        arrivals.len()
    );
    for (label, run) in [
        ("event w=0 (pr4)", &event_w0),
        ("timeline iter w=0", &iter_w0),
        ("timeline joins w=0", &joins_w0),
        ("timeline iter w=inf", &iter_winf),
    ] {
        let s = run.stream_summary();
        let (contention, join_wait) = honesty_profile(run);
        println!(
            "  {label:<20} goodput {goodput:>8.1} tok/s | makespan {makespan:>6.1} s | wait {wait:>6.3} s | contention {contention:>7.2} s | join_wait {join_wait:>6.2} s | stretch {stretch:>7.2} s | {launches:>4} launches",
            goodput = s.stream_goodput,
            makespan = s.makespan,
            wait = mean_admission_wait(run),
            stretch = run.timeline.stretch_secs,
            launches = run.rounds,
        );
    }

    // Gate (a): the anchored event scheduler only observes: it records
    // segments on the timeline and never stretches them.
    assert!(
        event_w0.timeline.segments > 0 && event_w0.timeline.stretch_secs == 0.0,
        "the anchor records segments but never stretches"
    );

    // Gate (b): token joins beat iteration-granularity joins at w=0 on
    // goodput (overload fixture) AND mean admission wait (sparse
    // fixture, where the wait IS the launch-boundary wait), both under
    // honest pricing.
    let (gi, gj) = (iter_w0.stream_summary(), joins_w0.stream_summary());
    let join_speedup = gj.stream_goodput / gi.stream_goodput.max(1e-12);
    let sparse = sparse_arrivals();
    let sparse_iter = run_timeline(&sparse, TimelineTuning::honest(), 0.0);
    let sparse_joins = run_timeline(&sparse, token_joins(), 0.0);
    let (late_iter, late_joins) = (
        mean_late_latency(&sparse_iter),
        mean_late_latency(&sparse_joins),
    );
    let wait_reduction = late_iter / late_joins.max(1e-12);
    println!(
        "  token joins vs iteration joins: goodput {join_speedup:.3}x (overload), \
         late-arrival latency {late_joins:.3} vs {late_iter:.3} s = {wait_reduction:.3}x cut (sparse)"
    );
    assert!(
        join_speedup >= JOIN_GOODPUT_TARGET,
        "token joins must beat iteration joins on goodput ({:.1} vs {:.1} tok/s, {join_speedup:.3}x < {JOIN_GOODPUT_TARGET}x)",
        gj.stream_goodput,
        gi.stream_goodput
    );
    assert!(
        wait_reduction >= JOIN_WAIT_TARGET,
        "token joins must cut the late arrivals' mean join latency ({late_joins:.3} vs {late_iter:.3} s, {wait_reduction:.3}x < {JOIN_WAIT_TARGET}x)"
    );
    for (i, (a, b)) in sparse_iter
        .served
        .iter()
        .zip(&sparse_joins.served)
        .enumerate()
    {
        assert_eq!(
            a.outcome.answer, b.outcome.answer,
            "sparse request {i}: answers are schedule-invariant"
        );
    }
    let (_, joins_join_wait) = honesty_profile(&joins_w0);
    assert!(
        joins_join_wait > 0.0,
        "token joins must book join_wait seconds (in-flight members waiting at chunk boundaries)"
    );

    // Gate (c): retroactive contention is real — the honest window-0
    // run stretches in-flight segments and no longer coincides with the
    // infinite-window lockstep run.
    assert!(
        iter_w0.timeline.stretch_secs > 0.0,
        "honest w=0 must retroactively stretch overlapped launches"
    );
    let gap_frac = (gi.stream_goodput - iter_winf.stream_summary().stream_goodput).abs()
        / iter_winf.stream_summary().stream_goodput.max(1e-12);
    assert!(
        gap_frac > 0.0,
        "honest pricing must keep w=0 distinct from the infinite window"
    );

    // Answers are schedule-invariant across every policy.
    for other in [&iter_w0, &joins_w0, &iter_winf] {
        for (e, o) in event_w0.served.iter().zip(&other.served) {
            assert_eq!(
                e.outcome.answer, o.outcome.answer,
                "answers are schedule-invariant"
            );
        }
    }

    println!("\n== pr10: scheduler wall-clock (token-join replay) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall_stats = criterion.bench_stats("timeline_joins_replay", |b| {
        b.iter(|| run_timeline(&arrivals, token_joins(), 0.0))
    });

    let stretch = iter_w0.timeline.stretch_secs;
    let workload = Json::object([
        ("requests", arrivals.len().into()),
        ("n_beams", N_BEAMS.into()),
        ("max_batch", MAX_BATCH.into()),
        ("arrival_interval_s", ARRIVAL_INTERVAL_S.into()),
        ("sparse_requests", sparse.len().into()),
        ("sparse_interval_s", SPARSE_INTERVAL_S.into()),
        ("join_quantum_tokens", JOIN_QUANTUM.into()),
        ("mix", "amc2023+aime2024 stragglers".into()),
        ("search", "beam".into()),
    ]);
    let policies = Json::object([
        ("event_w0", policy(&event_w0)),
        ("timeline_iter_w0", policy(&iter_w0)),
        ("timeline_joins_w0", policy(&joins_w0)),
        ("timeline_iter_winf", policy(&iter_winf)),
        ("sparse_iter_w0", policy(&sparse_iter)),
        ("sparse_joins_w0", policy(&sparse_joins)),
    ]);
    let report = Json::object([
        ("bench", "pr10_timeline".into()),
        ("workload", workload),
        ("policies", policies),
        (
            "token_join_goodput_speedup_vs_iteration_joins",
            join_speedup.into(),
        ),
        ("join_wait_reduction_x", wait_reduction.into()),
        ("retroactive_stretch_secs", stretch.into()),
        ("w0_vs_winf_goodput_gap_frac", gap_frac.into()),
        ("timeline_wall_clock", wall(&wall_stats)),
    ]);
    write_report("BENCH_PR10.json", &report);
}
