//! Correctness anchors for the host-RAM KV tier (PR 7).
//!
//! * **Capacity-0 inertness**: a disabled tier (`host_capacity_bytes ==
//!   0`, any other knob values) reproduces the tier-free run
//!   bit-for-bit on the scheduler's lockstep and windowed-event
//!   presets, fault-free and faulted — its legacy code paths are gated
//!   on `HostTier::enabled` alone, and every tier counter stays zero.
//! * **Swap-down conserves tokens**: with an ample tier, preempted KV
//!   parks in host RAM and restores on readmission; answers and
//!   accepted-token counts match the preemption-free FIFO replay
//!   exactly, and no bytes are dropped.
//! * **Tiny tier degrades to drop-and-recompute**: a starved tier
//!   forces preemption overflow to drop; the run still serves everyone
//!   with the same answers (recompute is deterministic replay), it just
//!   pays recompute instead of swap traffic.
//!
//! The tiered lockstep fixture, fault-free and under a storm, is frozen
//! as the `lockstep-tiered` and `lockstep-tiered-storm` rows in
//! `golden.rs`.

use ftts_core::{
    BatchConfig, BatchRun, BatchedServerSim, EventConfig, EventServerSim, FaultPlan, FaultPolicy,
    KvTierConfig, RobustConfig, RunDirectives, ServerSim, StormConfig, TtsServer,
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

/// The PR-2 preemption fixture: four deep AIME searches bursting into a
/// tight pool, so equal shares shrink until someone swaps out.
fn pressured_arrivals() -> Vec<RequestArrival> {
    let problems = Dataset::Aime2024.problems(4, 51);
    ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0)
}

fn assert_runs_identical(label: &str, a: &BatchRun, b: &BatchRun) {
    assert_eq!(a.served.len(), b.served.len(), "{label}: request counts");
    for (x, y) in a.served.iter().zip(&b.served) {
        assert_eq!(x.started_at, y.started_at, "{label}: admission instants");
        assert_eq!(x.finished_at, y.finished_at, "{label}: completion instants");
        assert_eq!(x.preemptions, y.preemptions, "{label}: preemption counts");
        assert_eq!(x.preempted_secs, y.preempted_secs, "{label}: pause time");
        assert_eq!(x.shed, y.shed, "{label}: shed flags");
        assert_eq!(x.outcome.answer, y.outcome.answer, "{label}: answers");
        let (xs, ys) = (&x.outcome.stats, &y.outcome.stats);
        assert_eq!(
            xs.completion.latency, ys.completion.latency,
            "{label}: latency"
        );
        assert_eq!(
            xs.completion.breakdown, ys.completion.breakdown,
            "{label}: breakdown (incl. swap bucket)"
        );
        assert_eq!(xs.decoded_tokens, ys.decoded_tokens, "{label}: decoded");
        assert_eq!(xs.verified_tokens, ys.verified_tokens, "{label}: verified");
    }
    assert_eq!(a.rounds, b.rounds, "{label}: round counts");
    assert_eq!(a.group_iters, b.group_iters, "{label}: group iterations");
    assert_eq!(a.preemptions, b.preemptions, "{label}: preemptions");
    assert_eq!(
        a.peak_reserved_bytes, b.peak_reserved_bytes,
        "{label}: peak reservations"
    );
    assert_eq!(a.kernel_faults, b.kernel_faults, "{label}: kernel faults");
    assert_eq!(a.lost_blocks, b.lost_blocks, "{label}: lost blocks");
    assert_eq!(a.shed, b.shed, "{label}: shed counts");
    assert_eq!(a.cancelled, b.cancelled, "{label}: cancellations");
    assert_eq!(a.kv_tier_hits, b.kv_tier_hits, "{label}: tier hits");
    assert_eq!(
        a.kv_tier_demotions, b.kv_tier_demotions,
        "{label}: tier demotions"
    );
    assert_eq!(
        a.kv_tier_parked_bytes, b.kv_tier_parked_bytes,
        "{label}: tier parked bytes"
    );
    assert_eq!(
        a.kv_tier_dropped_bytes, b.kv_tier_dropped_bytes,
        "{label}: tier dropped bytes"
    );
    assert_eq!(
        a.final_reserved_bytes, b.final_reserved_bytes,
        "{label}: residual reservations"
    );
}

// ---------------------------------------------------------------------
// Anchor 1: a zero-capacity tier is bit-inert on the lockstep and
// windowed-event presets, fault-free and faulted.
// ---------------------------------------------------------------------

#[test]
fn capacity_zero_tier_is_bit_inert() {
    let arrivals = pressured_arrivals();
    // Disabled tier with non-default secondary knobs: still capacity 0,
    // so every scheduler must take its legacy path unchanged.
    let disabled = KvTierConfig {
        host_capacity_bytes: 0,
        pin_hot_after: 7,
    };
    let base = BatchConfig::continuous(4);
    let tiered = base.with_tier(disabled);
    let plan = FaultPlan::storm(7, 60.0, &StormConfig::default());

    for (label, plan) in [("fault-free", FaultPlan::none()), ("faulted", plan)] {
        let plain = BatchedServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch, base)
            .run_faulted(&arrivals, &plan)
            .expect("plain run");
        let gated = BatchedServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch, tiered)
            .run_faulted(&arrivals, &plan)
            .expect("tiered run");
        assert_runs_identical(&format!("lockstep {label}"), &plain, &gated);
        assert_eq!(gated.kv_tier_hits, 0, "{label}: no hits on a disabled tier");
        assert_eq!(gated.kv_tier_parked_bytes, 0, "{label}: nothing parks");
        assert_eq!(gated.kv_tier_dropped_bytes, 0, "{label}: nothing drops");

        let plain_ev = EventServerSim::new(
            server(13, 0.30),
            24,
            SearchKind::BeamSearch,
            EventConfig::new(base, 0.2),
        )
        .run_faulted(&arrivals, &plan)
        .expect("plain event run");
        let gated_ev = EventServerSim::new(
            server(13, 0.30),
            24,
            SearchKind::BeamSearch,
            EventConfig::new(tiered, 0.2),
        )
        .run_faulted(&arrivals, &plan)
        .expect("tiered event run");
        assert_runs_identical(&format!("event {label}"), &plain_ev, &gated_ev);
    }
}

// ---------------------------------------------------------------------
// Anchor 2: ample-tier swap-down conserves every accepted token.
// ---------------------------------------------------------------------

#[test]
fn ample_tier_parks_preempted_kv_and_conserves_tokens() {
    let arrivals = pressured_arrivals();
    let cfg = BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30));
    let run = BatchedServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch, cfg)
        .run(&arrivals)
        .expect("pressured run completes");
    assert!(run.preemptions > 0, "pressure must trigger preemption");
    assert!(
        run.kv_tier_parked_bytes > 0,
        "preempted KV must park in the host tier"
    );
    assert_eq!(
        run.kv_tier_dropped_bytes, 0,
        "an ample tier never drops preempted KV"
    );
    // Every byte offered to the tier was accepted or returned: the run
    // drained, so nothing stays parked.
    let fifo = ServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch)
        .run(&arrivals)
        .expect("fifo replay");
    for (r, f) in run.served.iter().zip(&fifo) {
        assert_eq!(
            r.accepted_tokens(),
            f.accepted_tokens(),
            "swap-down/restore must not lose generated tokens"
        );
        assert_eq!(r.outcome.answer, f.outcome.answer, "answers");
    }
}

// ---------------------------------------------------------------------
// Anchor 3: a starved tier degrades to drop-and-recompute, correctly.
// ---------------------------------------------------------------------

#[test]
fn starved_tier_drops_overflow_but_still_serves_everyone() {
    let arrivals = pressured_arrivals();
    // One KV block of host capacity: parks are all but rejected, so
    // preemption overflow genuinely drops and readmission recomputes.
    let cfg = BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(4096));
    let run = BatchedServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch, cfg)
        .run(&arrivals)
        .expect("starved run completes");
    assert!(run.preemptions > 0, "pressure must trigger preemption");
    assert!(
        run.kv_tier_dropped_bytes > 0,
        "a starved tier must drop preemption overflow"
    );
    let fifo = ServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch)
        .run(&arrivals)
        .expect("fifo replay");
    for (r, f) in run.served.iter().zip(&fifo) {
        assert_eq!(
            r.accepted_tokens(),
            f.accepted_tokens(),
            "recompute is deterministic replay — tokens survive the drop"
        );
        assert_eq!(r.outcome.answer, f.outcome.answer, "answers");
    }
}

// ---------------------------------------------------------------------
// Regression (PR 8): a request cancelled while its KV is parked in the
// host tier must unpark-and-drop — tier usage returns to its
// pre-request level instead of stranding parked bytes forever.
// ---------------------------------------------------------------------

#[test]
fn directive_cancel_while_parked_reclaims_tier_bytes() {
    let arrivals = pressured_arrivals();
    let cfg = BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30));
    // The burst preempts the youngest request almost immediately; its
    // KV parks in the tier and stays parked until a completion frees
    // device share — hundreds of seconds away. Cancelling it at t=60
    // (a hedge-loser / crash-failover directive) hits the parked
    // window.
    let directives = RunDirectives {
        cancels: vec![(2, 60.0)],
        prewarms: Vec::new(),
    };
    let run = EventServerSim::new(
        server(13, 0.30),
        24,
        SearchKind::BeamSearch,
        EventConfig::lockstep(cfg),
    )
    .run_directed(&arrivals, &FaultPlan::none(), &directives)
    .expect("directed run");
    assert!(run.preemptions > 0, "fixture must preempt");
    assert!(run.kv_tier_parked_bytes > 0, "preempted KV must park");
    let victim = &run.served[2];
    assert!(victim.shed, "the directed cancel must shed request 2");
    assert!(
        victim.preemptions >= 1,
        "request 2 must have been preempted (parked) before its cancel"
    );
    assert_eq!(
        run.kv_tier_unparked_bytes, run.kv_tier_parked_bytes,
        "every parked byte must be reclaimed — cancellation unparks-and-drops"
    );
    assert_eq!(run.final_reserved_bytes, 0, "device pool fully released");
    // Survivors are untouched: same answers as the directive-free run.
    let base = EventServerSim::new(
        server(13, 0.30),
        24,
        SearchKind::BeamSearch,
        EventConfig::lockstep(cfg),
    )
    .run(&arrivals)
    .expect("baseline run");
    for idx in [0usize, 1, 3] {
        assert_eq!(
            run.served[idx].outcome.answer, base.served[idx].outcome.answer,
            "cancelling a parked bystander must not change survivor answers"
        );
    }
}

#[test]
fn deadline_cancel_while_parked_reclaims_tier_bytes() {
    // Same parked window, but the cancellation comes from the Degrade
    // policy's deadline sweep instead of an external directive. The
    // whole burst runs in the Batch class (full beam widths — the
    // degradation controller never shrinks the working set away from
    // the preemption pressure) and only the victim carries a deadline
    // that expires inside its parked window.
    let mut arrivals = pressured_arrivals();
    for a in arrivals.iter_mut() {
        *a = a.clone().with_slo(SloClass::Batch, f64::INFINITY);
    }
    arrivals[2] = arrivals[2].clone().with_slo(SloClass::Batch, 60.0);
    let cfg = BatchConfig::continuous(4)
        .with_tier(KvTierConfig::with_capacity(1 << 30))
        .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade));
    let run = BatchedServerSim::new(server(13, 0.30), 24, SearchKind::BeamSearch, cfg)
        .run(&arrivals)
        .expect("degrade run");
    assert!(run.kv_tier_parked_bytes > 0, "preempted KV must park");
    assert!(run.cancelled >= 1, "the deadline sweep must cancel");
    let victim = &run.served[2];
    assert!(victim.shed, "the deadline must shed request 2");
    assert!(
        victim.preemptions >= 1,
        "request 2 must have been preempted (parked) before its deadline"
    );
    assert_eq!(
        run.kv_tier_unparked_bytes, run.kv_tier_parked_bytes,
        "deadline cancellation of a parked run must unpark its bytes"
    );
}
