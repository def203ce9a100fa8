//! Correctness anchors for fault-injected serving (PR 6).
//!
//! * **Zero-fault inertness**: `run_faulted(&FaultPlan::none())` must
//!   reproduce `run()` bit-for-bit under every policy, so the fault
//!   layer provably costs nothing when no faults fire.
//! * **Determinism**: a `(seed, FaultPlan)` pair fully determines the
//!   run; replaying it yields identical bytes. The lockstep storm
//!   itself is frozen as the `lockstep-storm` row in `golden.rs`.
//! * **Answer invariance**: with the `Retry` policy, answers and
//!   accepted-token counts are fault-schedule-invariant — faults move
//!   time, never tokens.
//! * **Deadlines × preemption**: a swapped-out request whose deadline
//!   expires while paused is cancelled and its KV reservation fully
//!   reclaimed (no `PoolBudget` leak).

use ftts_core::{
    BatchConfig, BatchRun, BatchedServerSim, FaultPlan, FaultPolicy, RobustConfig, StormConfig,
    TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::SloClass;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

/// The overload fixture from the PR-4 anchors: six AMC problems at a
/// one-second cadence against a batch window of four.
fn overload_arrivals() -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(6, 41);
    ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0)
}

fn assert_runs_identical(label: &str, a: &BatchRun, b: &BatchRun) {
    assert_eq!(a.served.len(), b.served.len(), "{label}: request counts");
    for (x, y) in a.served.iter().zip(&b.served) {
        assert_eq!(x.arrived_at, y.arrived_at, "{label}: arrivals");
        assert_eq!(x.started_at, y.started_at, "{label}: admission instants");
        assert_eq!(x.finished_at, y.finished_at, "{label}: completion instants");
        assert_eq!(x.preemptions, y.preemptions, "{label}: preemption counts");
        assert_eq!(x.preempted_secs, y.preempted_secs, "{label}: pause time");
        assert_eq!(x.slo, y.slo, "{label}: SLO classes");
        assert_eq!(x.deadline, y.deadline, "{label}: deadlines");
        assert_eq!(x.shed, y.shed, "{label}: shed flags");
        assert_eq!(x.granted_n, y.granted_n, "{label}: granted beam widths");
        assert_eq!(x.outcome.answer, y.outcome.answer, "{label}: answers");
        let (xs, ys) = (&x.outcome.stats, &y.outcome.stats);
        assert_eq!(
            xs.completion.latency, ys.completion.latency,
            "{label}: latency"
        );
        assert_eq!(
            xs.completion.breakdown, ys.completion.breakdown,
            "{label}: breakdown (incl. fault bucket)"
        );
        assert_eq!(xs.iterations, ys.iterations, "{label}: iterations");
        assert_eq!(xs.decoded_tokens, ys.decoded_tokens, "{label}: decoded");
        assert_eq!(xs.verified_tokens, ys.verified_tokens, "{label}: verified");
        assert_eq!(xs.faults, ys.faults, "{label}: per-request fault stats");
    }
    assert_eq!(a.rounds, b.rounds, "{label}: round counts");
    assert_eq!(a.group_iters, b.group_iters, "{label}: group iterations");
    assert_eq!(a.preemptions, b.preemptions, "{label}: preemptions");
    assert_eq!(
        a.peak_reserved_bytes, b.peak_reserved_bytes,
        "{label}: peak reservations"
    );
    assert_eq!(a.kernel_faults, b.kernel_faults, "{label}: kernel faults");
    assert_eq!(a.fault_retries, b.fault_retries, "{label}: retries");
    assert_eq!(
        a.kv_loss_events, b.kv_loss_events,
        "{label}: KV-loss events"
    );
    assert_eq!(a.lost_blocks, b.lost_blocks, "{label}: lost blocks");
    assert_eq!(a.shed, b.shed, "{label}: shed counts");
    assert_eq!(a.cancelled, b.cancelled, "{label}: cancellations");
    assert_eq!(a.degradations, b.degradations, "{label}: degradations");
    assert_eq!(
        a.final_reserved_bytes, b.final_reserved_bytes,
        "{label}: residual reservations"
    );
}

// ---------------------------------------------------------------------
// Anchor 1: an empty fault plan is bit-inert under every policy.
// ---------------------------------------------------------------------

#[test]
fn zero_fault_plan_is_bit_inert() {
    let arrivals = overload_arrivals();
    for policy in [
        FaultPolicy::NoHandling,
        FaultPolicy::Retry,
        FaultPolicy::Degrade,
    ] {
        let cfg = BatchConfig::continuous(4).with_robust(RobustConfig::with_policy(policy));
        let plain = BatchedServerSim::new(server(5, 0.9), 8, SearchKind::BeamSearch, cfg)
            .run(&arrivals)
            .expect("plain run");
        let faulted = BatchedServerSim::new(server(5, 0.9), 8, SearchKind::BeamSearch, cfg)
            .run_faulted(&arrivals, &FaultPlan::none())
            .expect("faulted run");
        assert_runs_identical(&format!("{policy:?}"), &plain, &faulted);
        assert_eq!(faulted.kernel_faults, 0);
        assert_eq!(faulted.kv_loss_events, 0);
        for r in &faulted.served {
            assert_eq!(r.outcome.stats.breakdown().fault, 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// Anchor 3: (seed, plan) fully determines the run.
// ---------------------------------------------------------------------

#[test]
fn fault_runs_are_deterministic() {
    let arrivals = overload_arrivals();
    let storm = StormConfig::default();
    let once = FaultPlan::storm(9, 50.0, &storm);
    let twice = FaultPlan::storm(9, 50.0, &storm);
    assert_eq!(once.events(), twice.events(), "storm synthesis");
    let run = |plan: &FaultPlan| {
        BatchedServerSim::new(
            server(5, 0.9),
            8,
            SearchKind::BeamSearch,
            BatchConfig::continuous(4),
        )
        .run_faulted(&arrivals, plan)
        .expect("run")
    };
    assert_runs_identical("replay", &run(&once), &run(&twice));
}

// ---------------------------------------------------------------------
// Anchor 4: under Retry, faults move time but never tokens.
// ---------------------------------------------------------------------

#[test]
fn answers_and_accepted_tokens_survive_faults() {
    // Burst admission with max_batch >= count keeps the scheduling
    // structure independent of absolute time, so the faulty run decodes
    // the exact token stream of the fault-free one — only later.
    let problems = Dataset::Amc2023.problems(5, 23);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let cfg = BatchConfig::continuous(8);
    let clean = BatchedServerSim::new(server(3, 0.9), 8, SearchKind::BeamSearch, cfg)
        .run(&arrivals)
        .expect("clean run");

    // Compute-only storm (no KV loss): the faulty run is the clean run
    // shifted in time — every token counter matches exactly.
    let compute_only = StormConfig {
        kv_losses: 0,
        ..StormConfig::default()
    };
    let plan = FaultPlan::storm(17, 40.0, &compute_only);
    let faulty = BatchedServerSim::new(server(3, 0.9), 8, SearchKind::BeamSearch, cfg)
        .run_faulted(&arrivals, &plan)
        .expect("faulty run");
    assert!(faulty.kernel_faults > 0, "storm must actually fire");
    for (c, f) in clean.served.iter().zip(&faulty.served) {
        assert_eq!(c.outcome.answer, f.outcome.answer, "answers");
        let (cs, fs) = (&c.outcome.stats, &f.outcome.stats);
        assert_eq!(cs.decoded_tokens, fs.decoded_tokens, "accepted tokens");
        assert_eq!(cs.verified_tokens, fs.verified_tokens, "verified tokens");
        assert_eq!(cs.spec, fs.spec, "speculation counters");
        assert_eq!(cs.iterations, fs.iterations, "iterations");
    }
    assert!(
        faulty.makespan() > clean.makespan(),
        "faults must cost wall-clock time"
    );

    // Full storm with KV loss: recovery is deterministic replay, so
    // answers and accepted tokens are still invariant; the verifier
    // merely re-does work for the lost prefixes.
    let plan = FaultPlan::storm(17, 40.0, &StormConfig::default());
    let replayed = BatchedServerSim::new(server(3, 0.9), 8, SearchKind::BeamSearch, cfg)
        .run_faulted(&arrivals, &plan)
        .expect("replayed run");
    assert!(replayed.kv_loss_events > 0, "storm must lose KV");
    for (c, f) in clean.served.iter().zip(&replayed.served) {
        assert_eq!(c.outcome.answer, f.outcome.answer, "answers after replay");
        let (cs, fs) = (&c.outcome.stats, &f.outcome.stats);
        assert_eq!(cs.decoded_tokens, fs.decoded_tokens, "accepted tokens");
        assert!(
            fs.verified_tokens >= cs.verified_tokens,
            "replay can only add verifier work"
        );
    }
}

// ---------------------------------------------------------------------
// Anchor 5: costed retry beats blind re-execution.
// ---------------------------------------------------------------------

#[test]
fn retry_with_backoff_beats_blind_reexecution() {
    let arrivals = overload_arrivals();
    let storm = StormConfig {
        kernel_faults: 10,
        slowdowns: 0,
        kv_losses: 0,
        ..StormConfig::default()
    };
    let plan = FaultPlan::storm(29, 45.0, &storm);
    let run = |policy: FaultPolicy| {
        let cfg = BatchConfig::continuous(4).with_robust(RobustConfig::with_policy(policy));
        BatchedServerSim::new(server(5, 0.9), 8, SearchKind::BeamSearch, cfg)
            .run_faulted(&arrivals, &plan)
            .expect("run")
    };
    let blind = run(FaultPolicy::NoHandling);
    let retry = run(FaultPolicy::Retry);
    assert!(blind.kernel_faults > 0);
    assert_eq!(blind.kernel_faults, retry.kernel_faults, "same schedule");
    assert!(
        blind.makespan() > retry.makespan(),
        "blind re-execution ({:.2}s) must cost more than checkpointed \
         retry ({:.2}s)",
        blind.makespan(),
        retry.makespan()
    );
}

// ---------------------------------------------------------------------
// Anchor 6 (satellite d): deadline expiry while swapped out.
// ---------------------------------------------------------------------

#[test]
fn preempted_request_past_deadline_is_cancelled_and_reclaimed() {
    // The PR-4 pressure fixture: four AIME problems bursting into a
    // 30% memory budget forces a preemption cascade. A 100s deadline
    // lands inside the loser's swap-out window, so SLO enforcement must
    // cancel it while it is host-resident and reclaim every byte. The
    // Batch class never degrades, which isolates deadline enforcement
    // from budget degradation: every request keeps the full beam width,
    // so the preemption cascade actually happens.
    let problems = Dataset::Aime2024.problems(4, 51);
    let arrivals: Vec<RequestArrival> = ArrivalPattern::Burst { at: 0.0 }
        .schedule(&problems, 0)
        .into_iter()
        .map(|a| a.with_slo(SloClass::Batch, 100.0))
        .collect();
    let cfg =
        BatchConfig::continuous(4).with_robust(RobustConfig::with_policy(FaultPolicy::Degrade));
    let run = BatchedServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch, cfg)
        .run_faulted(&arrivals, &FaultPlan::none())
        .expect("run");

    assert!(run.preemptions >= 1, "fixture must preempt");
    assert!(run.cancelled >= 1, "expired requests must be cancelled");
    assert_eq!(
        run.final_reserved_bytes, 0,
        "cancellation must reclaim every reserved byte"
    );
    let paused_victim = run
        .served
        .iter()
        .find(|r| r.shed && r.preemptions >= 1)
        .expect("a swapped-out request must be cancelled at its deadline");
    assert_eq!(paused_victim.outcome.answer, None, "no answer after cancel");
    assert!(paused_victim.deadline_missed());
    let finished = run.served.iter().filter(|r| !r.shed).count();
    assert!(finished >= 1, "at least one request must still finish");
    let summary = run.stream_summary();
    assert_eq!(summary.shed, (run.shed + run.cancelled) as usize);
    assert_eq!(
        summary.deadline_misses,
        run.served.iter().filter(|r| r.deadline_missed()).count()
    );
}

// ---------------------------------------------------------------------
// Anchor 7: degradation sheds beams before it sheds requests.
// ---------------------------------------------------------------------

#[test]
fn degradation_shrinks_beam_width_under_backlog() {
    let problems = Dataset::Aime2024.problems(4, 51);
    let arrivals: Vec<RequestArrival> = ArrivalPattern::Burst { at: 0.0 }
        .schedule(&problems, 0)
        .into_iter()
        .map(|a| a.with_slo(SloClass::Interactive, f64::INFINITY))
        .collect();
    let cfg =
        BatchConfig::continuous(4).with_robust(RobustConfig::with_policy(FaultPolicy::Degrade));
    let run = BatchedServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch, cfg)
        .run_faulted(&arrivals, &FaultPlan::none())
        .expect("run");
    assert!(
        run.degradations >= 1,
        "burst backlog must trigger degradation"
    );
    assert_eq!(run.shed, 0, "infinite deadlines shed nothing");
    assert_eq!(run.cancelled, 0);
    assert!(
        run.served.iter().any(|r| r.granted_n < 24),
        "some request must run with a shrunken beam budget"
    );
    assert!(
        run.served
            .iter()
            .all(|r| !r.shed && r.outcome.answer.is_some()),
        "degraded requests still finish with answers"
    );
}
