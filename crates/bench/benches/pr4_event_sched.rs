//! PR-4 benchmark: event-driven (iteration-granularity) scheduling vs
//! lockstep rounds, with a machine-readable `BENCH_PR4.json` report.
//!
//! **Fixture: straggler-heavy overload.** Shallow AMC-2023 requests
//! interleaved with deep AIME-2024 stragglers, one arrival per second,
//! n = 16 beam search — the workload where the lockstep round barrier
//! hurts most: every round waits for the deepest search while shallow
//! requests burn `barrier_idle`. The PR-3 policy (lockstep fused-8) is
//! the baseline; the PR-4 policy (`EventServerSim`, fused-8, finite
//! co-batch window) removes the barrier.
//!
//! Asserted gates (the PR's acceptance criteria):
//!
//! * event-driven stream goodput ≥ [`GOODPUT_TARGET`] × lockstep
//!   fused-8 on this fixture;
//! * event-driven idle *fraction* (idle seconds over total attributed
//!   seconds) strictly below lockstep's, with **zero** barrier idle —
//!   the wait the scheduler exists to drain;
//! * answers are schedule-invariant (the reasoning trees match
//!   request-for-request).
//!
//! A window sweep (0 / 0.1 / 0.5 seconds) shows the dial between
//! "never wait" and "wait a little"; an infinite window is the lockstep
//! policy itself (`BatchConfig::fused` converts into it), so the
//! lockstep row is that end of the dial. Wall-clock of the event
//! scheduler itself is reported through the criterion shim's
//! IQR-filtered statistics.
//!
//! Run with `cargo bench --bench pr4_event_sched` (release profile).

use criterion::Criterion;
use ftts_bench::{wall, write_report};
use ftts_core::{BatchConfig, BatchRun, BatchedServerSim, EventConfig, EventServerSim, TtsServer};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

const N_BEAMS: usize = 16;
const ARRIVAL_INTERVAL_S: f64 = 1.0;
const MAX_BATCH: usize = 8;
/// The PR-4 co-batch window, seconds.
const WINDOW_S: f64 = 0.1;
const GOODPUT_TARGET: f64 = 1.3;

fn server(seed: u64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = 0.9;
    s
}

/// Shallow AMC requests interleaved with deep AIME stragglers: the
/// heterogeneity that makes lockstep rounds straggler-bound.
fn straggler_arrivals() -> Vec<RequestArrival> {
    let shallow = Dataset::Amc2023.problems(5, 29);
    let deep = Dataset::Aime2024.problems(3, 43);
    let problems = vec![
        shallow[0], deep[0], shallow[1], shallow[2], deep[1], shallow[3], deep[2], shallow[4],
    ];
    ArrivalPattern::Uniform {
        interval: ARRIVAL_INTERVAL_S,
    }
    .schedule(&problems, 0)
}

fn run_lockstep(arrivals: &[RequestArrival]) -> BatchRun {
    BatchedServerSim::new(
        server(17),
        N_BEAMS,
        SearchKind::BeamSearch,
        BatchConfig::fused(MAX_BATCH),
    )
    .run(arrivals)
    .expect("lockstep run")
}

fn run_event(arrivals: &[RequestArrival], window: f64) -> BatchRun {
    EventServerSim::new(
        server(17),
        N_BEAMS,
        SearchKind::BeamSearch,
        EventConfig::windowed(MAX_BATCH, window),
    )
    .run(arrivals)
    .expect("event run")
}

/// (idle fraction, barrier-idle seconds) over a run's attributed time.
fn idle_profile(run: &BatchRun) -> (f64, f64) {
    let mut idle = 0.0f64;
    let mut barrier = 0.0f64;
    let mut total = 0.0f64;
    for r in &run.served {
        let b = r.outcome.stats.breakdown();
        idle += b.idle;
        barrier += b.barrier_idle;
        total += b.total();
    }
    (idle / total.max(1e-12), barrier)
}

fn policy(run: &BatchRun) -> Json {
    let s = run.stream_summary();
    let (idle_fraction, barrier_idle) = idle_profile(run);
    Json::object([
        ("stream_goodput_tok_per_s", s.stream_goodput.into()),
        ("makespan_s", s.makespan.into()),
        ("total_accepted_tokens", s.total_accepted_tokens.into()),
        ("latency_mean_s", s.latency.mean.into()),
        ("latency_p95_s", s.latency.p95.into()),
        ("queue_delay_mean_s", s.queue_delay.mean.into()),
        ("idle_fraction", idle_fraction.into()),
        ("barrier_idle_s", barrier_idle.into()),
        ("launches", run.rounds.into()),
        (
            "mean_cobatch_width",
            (run.group_iters as f64 / run.rounds.max(1) as f64).into(),
        ),
        ("verifier_sweeps", run.ver_sweeps.into()),
        (
            "verifier_occupancy_seqs_per_sweep",
            s.verifier_occupancy.into(),
        ),
        ("preemptions", run.preemptions.into()),
        ("peak_reserved_bytes", run.peak_reserved_bytes.into()),
        ("pool_bytes", run.pool_bytes.into()),
    ])
}

fn main() {
    let arrivals = straggler_arrivals();
    let lockstep = run_lockstep(&arrivals);
    let event = run_event(&arrivals, WINDOW_S);

    println!("== pr4: event-driven scheduling on the straggler-heavy overload ==");
    println!(
        "{} requests (AMC + AIME mix), n={N_BEAMS} beam search, one arrival per {ARRIVAL_INTERVAL_S:.1} s",
        arrivals.len()
    );
    let windows = [0.0, 0.1, 0.5];
    let window_sweep: Vec<(String, BatchRun)> = windows
        .into_iter()
        .map(|w| (format!("event window {w:>4}s"), run_event(&arrivals, w)))
        .collect();
    let mut rows: Vec<(String, &BatchRun)> =
        vec![("lockstep fused-8 (pr3)".to_string(), &lockstep)];
    rows.extend(window_sweep.iter().map(|(l, r)| (l.clone(), r)));
    for (label, run) in &rows {
        let s = run.stream_summary();
        let (idle_fraction, barrier) = idle_profile(run);
        println!(
            "  {label:<24} goodput {goodput:>8.1} tok/s | makespan {makespan:>6.1} s | idle {idle:>5.1}% (barrier {barrier:>6.1} s) | {launches:>3} launches x {width:>4.1} wide",
            goodput = s.stream_goodput,
            makespan = s.makespan,
            idle = idle_fraction * 100.0,
            launches = run.rounds,
            width = run.group_iters as f64 / run.rounds.max(1) as f64,
        );
    }

    let (ls, es) = (lockstep.stream_summary(), event.stream_summary());
    let speedup = es.stream_goodput / ls.stream_goodput.max(1e-12);
    let (lock_idle, lock_barrier) = idle_profile(&lockstep);
    let (event_idle, event_barrier) = idle_profile(&event);
    println!("  event vs lockstep goodput: {speedup:.3}x");
    assert!(
        speedup >= GOODPUT_TARGET,
        "acceptance criterion: event-driven scheduling must deliver >= {GOODPUT_TARGET}x \
         stream goodput over lockstep fused-8 on the straggler fixture ({} vs {} tok/s)",
        es.stream_goodput,
        ls.stream_goodput
    );
    assert!(
        event_idle < lock_idle,
        "event-driven scheduling must lower the idle fraction ({event_idle:.4} vs {lock_idle:.4})"
    );
    assert!(
        lock_barrier > 0.0,
        "the lockstep baseline must actually wait at barriers on this fixture"
    );
    assert!(
        event_barrier == 0.0,
        "event-driven scheduling must never book barrier idle ({event_barrier} s)"
    );
    // Scheduling moves clocks, never outcomes.
    for (l, e) in lockstep.served.iter().zip(&event.served) {
        assert_eq!(
            l.outcome.answer, e.outcome.answer,
            "answers are schedule-invariant"
        );
        assert_eq!(l.accepted_tokens(), e.accepted_tokens());
    }

    // Wall-clock of the event scheduler itself (IQR-robust).
    println!("\n== pr4: scheduler wall-clock (simulator hot path) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall_stats = criterion.bench_stats("event_window_replay", |b| {
        b.iter(|| run_event(&arrivals, WINDOW_S))
    });

    let sweep = windows
        .iter()
        .zip(&window_sweep)
        .map(|(&w, (_, run))| {
            Json::object([
                ("window_s", w.into()),
                (
                    "stream_goodput_tok_per_s",
                    run.stream_summary().stream_goodput.into(),
                ),
                ("idle_fraction", idle_profile(run).0.into()),
            ])
        })
        .collect();
    let workload = Json::object([
        ("requests", arrivals.len().into()),
        ("n_beams", N_BEAMS.into()),
        ("arrival_interval_s", ARRIVAL_INTERVAL_S.into()),
        ("mix", "amc2023+aime2024 stragglers".into()),
        ("search", "beam".into()),
    ]);
    let policies = Json::object([
        ("lockstep_fused8", policy(&lockstep)),
        ("event_fused8_window", policy(&event)),
    ]);
    let report = Json::object([
        ("bench", "pr4_event_sched".into()),
        ("workload", workload),
        ("policies", policies),
        ("event_goodput_speedup_vs_lockstep_fused8", speedup.into()),
        ("lockstep_idle_fraction", lock_idle.into()),
        ("event_idle_fraction", event_idle.into()),
        ("lockstep_barrier_idle_s", lock_barrier.into()),
        ("event_barrier_idle_s", event_barrier.into()),
        ("window_sweep", Json::Array(sweep)),
        ("event_wall_clock", wall(&wall_stats)),
    ]);
    write_report("BENCH_PR4.json", &report);
}
