//! Per-layer counters read from the public results of a simulation run,
//! shared by the serve and fleet workloads.

use std::collections::BTreeSet;
use std::time::Instant;

use ftts_core::{BatchRun, ServedRequest, TtsServer};
use ftts_metrics::{StreamRecord, TenantRollup};
use ftts_search::SearchKind;
use ftts_workload::RequestArrival;

use crate::report::Metrics;
use crate::stats::median;

/// Simulated tokens a served request cost the engine: decoded plus
/// verified.
pub fn sim_tokens(served: &[ServedRequest]) -> u64 {
    served
        .iter()
        .map(|r| r.outcome.stats.decoded_tokens + r.outcome.stats.verified_tokens)
        .sum()
}

/// Scheduler, fault, engine, KV, timeline and virtual-breakdown counters
/// over `runs` (every device run of one simulation) and `served` (one
/// record per request).
pub fn run_counters(runs: &[&BatchRun], served: &[ServedRequest], m: &mut Metrics) {
    let sum = |f: fn(&BatchRun) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
    let rounds = sum(|r| r.rounds as f64);
    m.set("sched.launches", rounds);
    m.set(
        "sched.mean_cobatch",
        sum(|r| r.group_iters as f64) / rounds.max(1.0),
    );
    m.set("sched.preemptions", sum(|r| f64::from(r.preemptions)));
    m.set("sched.shed", sum(|r| f64::from(r.shed)));
    m.set("sched.cancelled", sum(|r| f64::from(r.cancelled)));
    m.set("sched.degradations", sum(|r| f64::from(r.degradations)));
    let waits: Vec<f64> = served.iter().map(ServedRequest::queue_delay).collect();
    m.set("sched.queue_delay_p50_vs", median(&waits));

    m.set("faults.kernel_faults", sum(|r| f64::from(r.kernel_faults)));
    m.set("faults.retries", sum(|r| f64::from(r.fault_retries)));
    m.set(
        "faults.kv_loss_events",
        sum(|r| f64::from(r.kv_loss_events)),
    );

    let stats = served.iter().map(|r| &r.outcome.stats);
    let (mut iterations, mut spec, mut spec_used, mut lookahead) = (0u64, 0u64, 0u64, 0u64);
    let (mut evicted, mut recomputed) = (0u64, 0u64);
    for s in stats {
        iterations += u64::from(s.iterations);
        spec += s.spec.spec_tokens;
        spec_used += s.spec.spec_tokens_used;
        lookahead += s.spec.lookahead_hits;
        evicted += s.gen_cache.evicted_tokens + s.ver_cache.evicted_tokens;
        recomputed += s.gen_cache.recomputed_tokens + s.ver_cache.recomputed_tokens;
    }
    m.set("engine.iterations", iterations as f64);
    m.set(
        "engine.spec_use_ratio",
        spec_used as f64 / spec.max(1) as f64,
    );
    m.set("engine.lookahead_hits", lookahead as f64);

    let peak = runs
        .iter()
        .map(|r| r.peak_reserved_bytes as f64 / r.pool_bytes.max(1) as f64)
        .fold(0.0, f64::max);
    m.set("kv.peak_reserved_frac", peak);
    m.set("kv.evicted_tokens", evicted as f64);
    m.set("kv.recomputed_tokens", recomputed as f64);
    m.set("kv.tier_hits", sum(|r| r.kv_tier_hits as f64));
    m.set(
        "kv.tier_parked_bytes",
        sum(|r| r.kv_tier_parked_bytes as f64),
    );
    m.set(
        "kv.tier_dropped_bytes",
        sum(|r| r.kv_tier_dropped_bytes as f64),
    );

    let span = sum(|r| r.timeline.span_secs);
    m.set("timeline.segments", sum(|r| r.timeline.segments as f64));
    m.set(
        "timeline.busy_frac",
        if span > 0.0 {
            sum(|r| r.timeline.busy_secs) / span
        } else {
            0.0
        },
    );
    m.set("timeline.stretch_s", sum(|r| r.timeline.stretch_secs));

    let mut b = ftts_metrics::LatencyBreakdown::default();
    for r in served {
        b.accumulate(r.outcome.stats.breakdown());
    }
    m.set("vt.generator_s", b.generator);
    m.set("vt.verifier_s", b.verifier);
    m.set("vt.recompute_s", b.recompute);
    m.set("vt.swap_s", b.swap);
    m.set("vt.idle_s", b.idle + b.barrier_idle);
    m.set("vt.join_wait_s", b.join_wait);
    m.set("vt.contention_s", b.contention);
    m.set("vt.fault_s", b.fault);
}

/// The stream record of a served request, as the serve runtime builds
/// it for its `stats` reply.
pub fn record(r: &ServedRequest) -> StreamRecord {
    StreamRecord {
        arrived_at: r.arrived_at,
        finished_at: r.finished_at,
        queue_delay: r.queue_delay(),
        accepted_tokens: r.accepted_tokens(),
        generator_secs: r.outcome.stats.breakdown().generator_side(),
        verifier_secs: r.outcome.stats.breakdown().verifier,
        slo: r.slo,
        deadline: r.deadline,
        completed: !r.shed,
    }
}

/// Median wall time of `TenantRollup::of` over the tenant-tagged final
/// records, microseconds.
pub fn rollup_p50_us(tagged: &[(u32, StreamRecord)]) -> f64 {
    const REPS: usize = 51;
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(TenantRollup::of(std::hint::black_box(tagged)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Wall microseconds per thousand simulated tokens of solo
/// `TtsServer::serve` runs over each distinct problem of `arrivals`.
///
/// # Errors
///
/// Fails when the engine refuses a problem.
pub fn engine_us_per_ktok(
    server: &TtsServer,
    arrivals: &[RequestArrival],
    n: usize,
) -> Result<f64, String> {
    let mut seen = BTreeSet::new();
    let (mut secs, mut tokens) = (0.0, 0u64);
    for a in arrivals.iter().filter(|a| seen.insert(a.problem.seed)) {
        let t = Instant::now();
        let out = server
            .serve(&a.problem, n, SearchKind::BeamSearch)
            .map_err(|e| format!("solo serve: {e:?}"))?;
        secs += t.elapsed().as_secs_f64();
        tokens += out.stats.decoded_tokens + out.stats.verified_tokens;
    }
    Ok(secs * 1e6 / (tokens.max(1) as f64 / 1000.0))
}
