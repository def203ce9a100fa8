//! PR-3 benchmark: cross-request verifier co-batching and
//! demand-proportional elastic KV shares, with a machine-readable
//! `BENCH_PR3.json` report.
//!
//! Two fixtures:
//!
//! 1. **Overload stream** (8 requests, one arrival per second, n = 16
//!    beam search — PR 2's fixture): the PR-2 policy
//!    (`BatchConfig::continuous(4)`, per-request verifier sweeps
//!    serialized on the shared device) against the PR-3 policy
//!    (`BatchConfig::fused(8)`: one fused verifier sweep per round plus
//!    demand-proportional shares). The run asserts the acceptance
//!    criterion — **≥ 1.15x stream goodput over PR 2's
//!    `continuous_batch4`**, identical answers — and, to attribute the
//!    win honestly, reports an equal-share/per-request-sweep
//!    `continuous(8)` control and gates the fusion itself on it: fused
//!    sweeps must collapse kernel launches (≥ 4x fewer sweeps, higher
//!    occupancy) at no goodput tax (≥ 0.98x of the control) — on this
//!    roofline, verifier prefill is compute-bound, so fusion's win is
//!    the launch collapse and the amortized weight sweep, not kernel
//!    seconds. An opt-in First Finish variant is reported alongside.
//! 2. **Asymmetric pressure** (shallow MATH-500 and deep AIME requests
//!    bursting into a tight pool): demand-proportional shares must
//!    reduce preemptions vs the equal split at the same pool size —
//!    deep searches stop starving behind shallow hoarders.
//!
//! The JSON also records verifier-sweep occupancy and per-phase goodput
//! (`ftts_metrics::StreamSummary`) and the wall-clock distribution of
//! the fused scheduler itself through the criterion shim's IQR-filtered
//! statistics.
//!
//! Run with `cargo bench --bench pr3_fused_verify` (release profile).

use criterion::Criterion;
use ftts_bench::{wall, write_report};
use ftts_core::{BatchConfig, BatchRun, BatchedServerSim, TtsServer};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

const REQUESTS: usize = 8;
const N_BEAMS: usize = 16;
const ARRIVAL_INTERVAL_S: f64 = 1.0;
const GOODPUT_TARGET: f64 = 1.15;

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

fn overload_arrivals() -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(REQUESTS, 29);
    ArrivalPattern::Uniform {
        interval: ARRIVAL_INTERVAL_S,
    }
    .schedule(&problems, 0)
}

/// Shallow MATH-500 interleaved with deep AIME: the demand asymmetry
/// the elastic shares exploit.
fn mixed_pressure_arrivals() -> Vec<RequestArrival> {
    let shallow = Dataset::Math500.problems(2, 51);
    let deep = Dataset::Aime2024.problems(2, 51);
    let problems = vec![shallow[0], deep[0], shallow[1], deep[1]];
    ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0)
}

fn run_policy(
    config: BatchConfig,
    arrivals: &[RequestArrival],
    n: usize,
    seed: u64,
    memory_fraction: f64,
) -> BatchRun {
    BatchedServerSim::new(
        server(seed, memory_fraction),
        n,
        SearchKind::BeamSearch,
        config,
    )
    .run(arrivals)
    .expect("policy run")
}

fn policy(run: &BatchRun) -> Json {
    let s = run.stream_summary();
    Json::object([
        ("stream_goodput_tok_per_s", s.stream_goodput.into()),
        ("makespan_s", s.makespan.into()),
        ("total_accepted_tokens", s.total_accepted_tokens.into()),
        ("latency_mean_s", s.latency.mean.into()),
        ("latency_p95_s", s.latency.p95.into()),
        ("queue_delay_mean_s", s.queue_delay.mean.into()),
        ("generator_goodput_tok_per_s", s.generator_goodput.into()),
        ("verifier_goodput_tok_per_s", s.verifier_goodput.into()),
        (
            "verifier_occupancy_seqs_per_sweep",
            s.verifier_occupancy.into(),
        ),
        ("verifier_sweeps", run.ver_sweeps.into()),
        ("verifier_busy_s", run.ver_busy_secs.into()),
        ("preemptions", run.preemptions.into()),
        ("rounds", run.rounds.into()),
        ("peak_reserved_bytes", run.peak_reserved_bytes.into()),
        ("pool_bytes", run.pool_bytes.into()),
    ])
}

fn main() {
    // Fixture 1: the overload stream.
    let arrivals = overload_arrivals();
    let cont4 = run_policy(BatchConfig::continuous(4), &arrivals, N_BEAMS, 17, 0.9);
    let cont8 = run_policy(BatchConfig::continuous(8), &arrivals, N_BEAMS, 17, 0.9);
    let fused8 = run_policy(BatchConfig::fused(8), &arrivals, N_BEAMS, 17, 0.9);
    let first_finish = run_policy(
        BatchConfig::fused(8).with_first_finish(0.62),
        &arrivals,
        N_BEAMS,
        17,
        0.9,
    );

    println!("== pr3: cross-request verifier co-batching under overload ==");
    println!(
        "{REQUESTS} requests, n={N_BEAMS} beam search, one arrival per {ARRIVAL_INTERVAL_S:.1} s"
    );
    for (label, run) in [
        ("continuous-4 (pr2)", &cont4),
        ("continuous-8", &cont8),
        ("fused-8 (pr3)", &fused8),
        ("fused-8 + first-finish", &first_finish),
    ] {
        let s = run.stream_summary();
        println!(
            "  {label:<22} goodput {goodput:>8.1} tok/s | makespan {makespan:>6.1} s | ver sweeps {sweeps:>4} | occupancy {occ:>5.1} seq/sweep",
            goodput = s.stream_goodput,
            makespan = s.makespan,
            sweeps = run.ver_sweeps,
            occ = s.verifier_occupancy,
        );
    }
    let (c4, f8) = (cont4.stream_summary(), fused8.stream_summary());
    let speedup = f8.stream_goodput / c4.stream_goodput.max(1e-12);
    println!("  fused-8 vs continuous-4 goodput: {speedup:.3}x");
    assert!(
        speedup >= GOODPUT_TARGET,
        "acceptance criterion: fused verifier co-batching + elastic shares must deliver \
         >= {GOODPUT_TARGET}x stream goodput over PR 2's continuous_batch4 ({} vs {} tok/s)",
        f8.stream_goodput,
        c4.stream_goodput
    );
    // Gate the fusion itself against the equal-width control, not just
    // the narrower PR-2 policy: the fused sweep must collapse kernel
    // launches without taxing goodput.
    let c8 = cont8.stream_summary();
    assert!(
        f8.stream_goodput >= 0.98 * c8.stream_goodput,
        "fused sweeps must not tax the wider batch ({} vs {} tok/s)",
        f8.stream_goodput,
        c8.stream_goodput
    );
    assert!(
        fused8.ver_sweeps * 4 <= cont8.ver_sweeps,
        "one fused sweep per wave must collapse kernel launches >= 4x ({} vs {})",
        fused8.ver_sweeps,
        cont8.ver_sweeps
    );
    assert!(
        f8.verifier_occupancy > c8.verifier_occupancy,
        "fused sweeps must raise verifier occupancy"
    );
    // Co-batching and elastic shares move clocks, never outcomes.
    for (a, b) in cont4.served.iter().zip(&fused8.served) {
        assert_eq!(
            a.outcome.answer, b.outcome.answer,
            "answers are schedule-invariant"
        );
    }

    // Fixture 2: asymmetric pressure — elastic shares vs the equal split.
    let pressure = mixed_pressure_arrivals();
    let equal = run_policy(BatchConfig::continuous(4), &pressure, 24, 13, 0.295);
    let demand = run_policy(
        BatchConfig {
            demand_shares: true,
            ..BatchConfig::continuous(4)
        },
        &pressure,
        24,
        13,
        0.295,
    );
    println!("\n== pr3: demand-proportional shares under asymmetric pressure ==");
    println!(
        "  equal-share  : {} preemptions, {:.1} tok/s",
        equal.preemptions,
        equal.stream_summary().stream_goodput
    );
    println!(
        "  demand-shares: {} preemptions, {:.1} tok/s",
        demand.preemptions,
        demand.stream_summary().stream_goodput
    );
    assert!(
        equal.preemptions > 0,
        "the pressure fixture must actually preempt under equal shares"
    );
    assert!(
        demand.preemptions < equal.preemptions,
        "demand-proportional shares must reduce preemptions at the same pool size \
         ({} vs {})",
        demand.preemptions,
        equal.preemptions
    );

    // Wall-clock distribution of the fused scheduler itself (IQR-robust).
    println!("\n== pr3: scheduler wall-clock (simulator hot path) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall_stats = criterion.bench_stats("fused_batch8_replay", |b| {
        b.iter(|| run_policy(BatchConfig::fused(8), &arrivals, N_BEAMS, 17, 0.9))
    });

    let ff_cut = f8.makespan / first_finish.stream_summary().makespan.max(1e-12);
    let workload = Json::object([
        ("requests", REQUESTS.into()),
        ("n_beams", N_BEAMS.into()),
        ("arrival_interval_s", ARRIVAL_INTERVAL_S.into()),
        ("search", "beam".into()),
    ]);
    let policies = Json::object([
        ("continuous_batch4", policy(&cont4)),
        ("continuous_batch8", policy(&cont8)),
        ("fused_batch8", policy(&fused8)),
        ("fused_batch8_first_finish", policy(&first_finish)),
    ]);
    let pressure_fixture = Json::object([
        ("equal_share_preemptions", equal.preemptions.into()),
        ("demand_share_preemptions", demand.preemptions.into()),
        (
            "equal_share_goodput",
            equal.stream_summary().stream_goodput.into(),
        ),
        (
            "demand_share_goodput",
            demand.stream_summary().stream_goodput.into(),
        ),
    ]);
    let report = Json::object([
        ("bench", "pr3_fused_verify".into()),
        ("workload", workload),
        ("policies", policies),
        ("fused8_goodput_speedup_vs_continuous4", speedup.into()),
        ("first_finish_makespan_reduction_vs_fused8", ff_cut.into()),
        ("pressure_fixture", pressure_fixture),
        ("fused8_wall_clock", wall(&wall_stats)),
    ]);
    write_report("BENCH_PR3.json", &report);
}
