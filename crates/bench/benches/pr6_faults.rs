//! PR-6 benchmark: fault-injected serving under deadlines, with a
//! machine-readable `BENCH_PR6.json` report.
//!
//! **Fixture: seeded fault storm over an SLO-mixed overload.** Nine
//! AMC-2023 requests at a one-second cadence, n = 16 beam search,
//! round-robin SLO classes (Interactive 25 s / Standard 50 s /
//! Batch 90 s deadlines), and a deterministic fault storm — kernel
//! faults, a slowdown window, device KV loss — replayed identically
//! under three policies:
//!
//! * `no_handling` — blind re-execution: every kernel fault re-runs the
//!   whole launch a configured number of times, no backoff, no SLO
//!   enforcement;
//! * `naive_retry` — checkpointed retry with exponential backoff from
//!   the last committed iteration, but still no SLO enforcement;
//! * `degrade` — retry plus the full SLO stack: working-set-aware
//!   admission, EDF ordering, deadline cancellation, and graceful
//!   TTS-budget degradation (beam-width shrink before shedding).
//!
//! Asserted gates (the PR's acceptance criteria):
//!
//! * `degrade` strictly dominates *both* baselines on deadline-hit rate
//!   **and** SLO goodput (accepted tokens of deadline-hitting requests
//!   per second — work delivered late or never does not count);
//! * the storm actually fires identically under every policy (same
//!   kernel-fault count), so the comparison is apples-to-apples;
//! * answers that survive under `naive_retry` match the fault-free
//!   run's answers request-for-request (retries move time, not tokens).
//!
//! Run with `cargo bench --bench pr6_faults` (release profile).

use criterion::Criterion;
use ftts_bench::{wall, write_report};
use ftts_core::{
    BatchConfig, BatchRun, BatchedServerSim, FaultPlan, FaultPolicy, RobustConfig, StormConfig,
    TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::SloClass;
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

const N_BEAMS: usize = 16;
const MAX_BATCH: usize = 4;
const ARRIVAL_INTERVAL_S: f64 = 1.0;
const STORM_SEED: u64 = 101;
const STORM_HORIZON_S: f64 = 60.0;

fn server(seed: u64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = 0.9;
    s
}

/// Nine-request overload with round-robin SLO classes: the mix where
/// deadline-blind fault handling visibly starves interactive traffic.
fn slo_arrivals() -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(9, 47);
    let slos = [
        (SloClass::Interactive, 25.0),
        (SloClass::Standard, 50.0),
        (SloClass::Batch, 90.0),
    ];
    ArrivalPattern::Uniform {
        interval: ARRIVAL_INTERVAL_S,
    }
    .schedule(&problems, 0)
    .into_iter()
    .enumerate()
    .map(|(i, a)| {
        let (class, slack) = slos[i % slos.len()];
        a.with_slo(class, slack)
    })
    .collect()
}

fn run_policy(arrivals: &[RequestArrival], plan: &FaultPlan, policy: FaultPolicy) -> BatchRun {
    let cfg = BatchConfig::continuous(MAX_BATCH).with_robust(RobustConfig::with_policy(policy));
    BatchedServerSim::new(server(17), N_BEAMS, SearchKind::BeamSearch, cfg)
        .run_faulted(arrivals, plan)
        .expect("faulted run")
}

fn policy(run: &BatchRun) -> Json {
    let s = run.stream_summary();
    let per_class = SloClass::ALL.iter().map(|c| {
        let cs = &s.per_class[c.index()];
        (
            c.name(),
            Json::object([
                ("requests", cs.requests.into()),
                ("completed", cs.completed.into()),
                ("deadline_misses", cs.deadline_misses.into()),
                ("shed", cs.shed.into()),
                ("latency_p50_s", cs.latency_p50.into()),
                ("latency_p99_s", cs.latency_p99.into()),
            ]),
        )
    });
    Json::object([
        ("deadline_hit_rate", s.deadline_hit_rate.into()),
        ("slo_goodput_tok_per_s", s.slo_goodput.into()),
        ("stream_goodput_tok_per_s", s.stream_goodput.into()),
        ("makespan_s", s.makespan.into()),
        ("deadline_misses", s.deadline_misses.into()),
        ("shed", run.shed.into()),
        ("cancelled", run.cancelled.into()),
        ("degradations", run.degradations.into()),
        ("kernel_faults", run.kernel_faults.into()),
        ("fault_retries", run.fault_retries.into()),
        ("kv_loss_events", run.kv_loss_events.into()),
        ("lost_blocks", run.lost_blocks.into()),
        ("per_class", Json::object(per_class)),
    ])
}

fn main() {
    let arrivals = slo_arrivals();
    let plan = FaultPlan::storm(STORM_SEED, STORM_HORIZON_S, &StormConfig::default());
    let blind = run_policy(&arrivals, &plan, FaultPolicy::NoHandling);
    let retry = run_policy(&arrivals, &plan, FaultPolicy::Retry);
    let degrade = run_policy(&arrivals, &plan, FaultPolicy::Degrade);

    println!("== pr6: fault storm over the SLO-mixed overload ==");
    println!(
        "{} requests (AMC-2023), n={N_BEAMS} beam search, one arrival per {ARRIVAL_INTERVAL_S:.1} s, \
         storm seed {STORM_SEED} over {STORM_HORIZON_S:.0} s",
        arrivals.len()
    );
    for (label, run) in [
        ("no_handling", &blind),
        ("naive_retry", &retry),
        ("degrade", &degrade),
    ] {
        let s = run.stream_summary();
        println!(
            "  {label:<12} hit-rate {hit:>5.1}% | slo-goodput {slo:>7.1} tok/s | goodput {gp:>7.1} tok/s | makespan {mk:>6.1} s | shed {shed} cancelled {cancelled} degradations {deg}",
            hit = s.deadline_hit_rate * 100.0,
            slo = s.slo_goodput,
            gp = s.stream_goodput,
            mk = s.makespan,
            shed = run.shed,
            cancelled = run.cancelled,
            deg = run.degradations,
        );
    }

    // The storm must replay identically under every policy.
    assert!(blind.kernel_faults > 0, "the storm must actually fire");
    assert_eq!(blind.kernel_faults, retry.kernel_faults);
    assert_eq!(retry.kernel_faults, degrade.kernel_faults);
    assert!(degrade.kv_loss_events > 0, "the storm must lose KV");

    // Acceptance criterion: graceful degradation strictly dominates
    // both baselines on deadline-hit rate AND SLO goodput.
    let (bs, rs, ds) = (
        blind.stream_summary(),
        retry.stream_summary(),
        degrade.stream_summary(),
    );
    assert!(
        ds.deadline_hit_rate > bs.deadline_hit_rate && ds.deadline_hit_rate > rs.deadline_hit_rate,
        "degrade must dominate on deadline-hit rate ({:.3} vs blind {:.3} / retry {:.3})",
        ds.deadline_hit_rate,
        bs.deadline_hit_rate,
        rs.deadline_hit_rate
    );
    assert!(
        ds.slo_goodput > bs.slo_goodput && ds.slo_goodput > rs.slo_goodput,
        "degrade must dominate on SLO goodput ({:.1} vs blind {:.1} / retry {:.1})",
        ds.slo_goodput,
        bs.slo_goodput,
        rs.slo_goodput
    );
    // Checkpointed retry must beat blind re-execution on makespan: the
    // same storm, strictly less wasted device time.
    assert!(
        retry.stream_summary().makespan < blind.stream_summary().makespan,
        "backoff retry must finish before blind re-execution"
    );
    // Retries move time, never tokens: the retry run's answers match
    // the fault-free run request-for-request.
    let clean = run_policy(&arrivals, &FaultPlan::none(), FaultPolicy::Retry);
    for (c, f) in clean.served.iter().zip(&retry.served) {
        assert_eq!(
            c.outcome.answer, f.outcome.answer,
            "answers are fault-schedule-invariant under retry"
        );
    }

    println!("\n== pr6: scheduler wall-clock (degrade policy, storm replay) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall_stats = criterion.bench_stats("degrade_storm_replay", |b| {
        b.iter(|| run_policy(&arrivals, &plan, FaultPolicy::Degrade))
    });

    let hit_gain_vs_retry = ds.deadline_hit_rate / rs.deadline_hit_rate.max(1e-12);
    let slo_gain_vs_retry = ds.slo_goodput / rs.slo_goodput.max(1e-12);
    let mk_speedup = bs.makespan / rs.makespan.max(1e-12);
    let workload = Json::object([
        ("requests", arrivals.len().into()),
        ("n_beams", N_BEAMS.into()),
        ("arrival_interval_s", ARRIVAL_INTERVAL_S.into()),
        (
            "slo_mix",
            "interactive25s/standard50s/batch90s round-robin".into(),
        ),
        ("storm_seed", STORM_SEED.into()),
        ("storm_horizon_s", STORM_HORIZON_S.into()),
        ("search", "beam".into()),
    ]);
    let policies = Json::object([
        ("no_handling", policy(&blind)),
        ("naive_retry", policy(&retry)),
        ("degrade", policy(&degrade)),
    ]);
    let report = Json::object([
        ("bench", "pr6_faults".into()),
        ("workload", workload),
        ("policies", policies),
        ("degrade_deadline_hit_rate", ds.deadline_hit_rate.into()),
        ("degrade_slo_goodput_tok_per_s", ds.slo_goodput.into()),
        (
            "degrade_hit_rate_gain_vs_naive_retry",
            hit_gain_vs_retry.into(),
        ),
        (
            "degrade_slo_goodput_gain_vs_naive_retry",
            slo_gain_vs_retry.into(),
        ),
        ("retry_makespan_speedup_vs_no_handling", mk_speedup.into()),
        ("degrade_wall_clock", wall(&wall_stats)),
    ]);
    write_report("BENCH_PR6.json", &report);
}
