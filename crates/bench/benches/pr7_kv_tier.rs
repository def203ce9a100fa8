//! PR-7 benchmark: the host-RAM KV tier under Zipf prompt popularity,
//! with a machine-readable `BENCH_PR7.json` report.
//!
//! **Fixture: a Zipf burst, then trailing repeats.** Four distinct
//! AIME problems Zipf-sampled (skew 1.2) into a sixteen-request stream:
//! an eight-request burst at t=0 (n = 24 beam search against 27% device
//! memory — enough oversubscription that equal shares shrink until
//! preemption fires), then eight more draws trickling in as the burst
//! drains. The scheduler preempts to admit, so burst arrivals admit
//! instantly and their completions clump at the drain — the trailing
//! draws are what re-request the popular head *after* its prefix has
//! been published. Replayed under three tier policies:
//!
//! * `no_tier` — the committed legacy behaviour: preemption swaps to an
//!   implicit unbounded host, completed requests' KV vanishes;
//! * `drop_tier` — a starved tier (one 4 KiB block of host RAM):
//!   preempted KV cannot park and is genuinely dropped, published
//!   prefixes never fit — every victim pays recompute on readmission;
//! * `swap_tier` — an ample tier (8 GiB): preempted KV parks and
//!   restores via costed PCIe swaps, completed prompts publish shared
//!   prefixes, and the Zipf head admits warm (prefill replaced by a
//!   swap-in).
//!
//! Asserted gates (the PR's acceptance criteria):
//!
//! * `swap_tier` beats `drop_tier` on stream goodput **and** on
//!   preemption recompute tokens (restore is cheaper than replay);
//! * the Zipf head actually hits the prefix store (`kv_tier_hits > 0`)
//!   and the starved tier actually drops (`kv_tier_dropped_bytes > 0`);
//! * a zero-capacity tier reproduces the tier-free run byte-for-byte
//!   on the lockstep and windowed-event presets of the one scheduler,
//!   including a fault-storm replay — the PR's
//!   bit-equivalence anchor;
//! * answers are tier-invariant: placement moves time, never tokens.
//!
//! Run with `cargo bench --bench pr7_kv_tier` (release profile).

use criterion::Criterion;
use ftts_bench::{wall, write_report};
use ftts_core::{
    BatchConfig, BatchRun, BatchedServerSim, EventConfig, EventServerSim, FaultPlan, KvTierConfig,
    StormConfig, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::{zipf_problems, ArrivalPattern, Dataset, RequestArrival};

const N_BEAMS: usize = 24;
const MAX_BATCH: usize = 4;
const DISTINCT_PROBLEMS: usize = 4;
const BURST_REQUESTS: usize = 8;
const TRAIL_REQUESTS: usize = 8;
const REQUESTS: usize = BURST_REQUESTS + TRAIL_REQUESTS;
const ZIPF_SKEW: f64 = 1.2;
/// First trailing arrival: past the burst's first completions, so the
/// trail can observe published prefixes.
const TRAIL_START_S: f64 = 700.0;
const TRAIL_INTERVAL_S: f64 = 20.0;
const MEMORY_FRACTION: f64 = 0.27;
const AMPLE_CAPACITY: u64 = 1 << 33;
const STARVED_CAPACITY: u64 = 4096;

fn server(seed: u64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = MEMORY_FRACTION;
    s
}

/// Sixteen requests Zipf-drawn from four distinct AIME problems: an
/// eight-request burst at t=0 (the preemption pressure), then eight
/// trailing draws spaced through the drain (the prefix re-requests).
fn zipf_arrivals() -> Vec<RequestArrival> {
    let ranked = Dataset::Aime2024.problems(DISTINCT_PROBLEMS, 51);
    let drawn = zipf_problems(&ranked, REQUESTS, ZIPF_SKEW, 29);
    let mut arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&drawn[..BURST_REQUESTS], 0);
    let mut trail = ArrivalPattern::Uniform {
        interval: TRAIL_INTERVAL_S,
    }
    .schedule(&drawn[BURST_REQUESTS..], 0);
    for a in &mut trail {
        a.at += TRAIL_START_S;
    }
    arrivals.extend(trail);
    arrivals
}

fn run_tier(arrivals: &[RequestArrival], tier: KvTierConfig) -> BatchRun {
    let cfg = BatchConfig::continuous(MAX_BATCH).with_tier(tier);
    BatchedServerSim::new(server(13), N_BEAMS, SearchKind::BeamSearch, cfg)
        .run(arrivals)
        .expect("tiered run")
}

/// Tokens recomputed after eviction across every request (generator and
/// verifier caches): the replay work the tier exists to avoid.
fn recompute_tokens(run: &BatchRun) -> u64 {
    run.served
        .iter()
        .map(|r| {
            r.outcome.stats.gen_cache.recomputed_tokens
                + r.outcome.stats.ver_cache.recomputed_tokens
        })
        .sum()
}

fn policy(run: &BatchRun) -> Json {
    let s = run.stream_summary();
    Json::object([
        ("stream_goodput_tok_per_s", s.stream_goodput.into()),
        ("makespan_s", s.makespan.into()),
        ("latency_mean_s", s.latency.mean.into()),
        ("preemptions", run.preemptions.into()),
        ("recompute_tokens", recompute_tokens(run).into()),
        ("kv_tier_hits", run.kv_tier_hits.into()),
        ("kv_tier_demotions", run.kv_tier_demotions.into()),
        ("kv_tier_parked_bytes", run.kv_tier_parked_bytes.into()),
        ("kv_tier_dropped_bytes", run.kv_tier_dropped_bytes.into()),
    ])
}

/// The PR's bit-equivalence anchor: a zero-capacity tier must reproduce
/// the tier-free run byte-for-byte on the lockstep and windowed-event
/// presets, fault-free and under a storm.
fn assert_capacity_zero_bit_identity(arrivals: &[RequestArrival]) {
    let base = BatchConfig::continuous(MAX_BATCH);
    let zero = base.with_tier(KvTierConfig {
        host_capacity_bytes: 0,
        pin_hot_after: 7,
    });
    let storm = FaultPlan::storm(7, 60.0, &StormConfig::default());
    for plan in [FaultPlan::none(), storm] {
        let plain = BatchedServerSim::new(server(13), N_BEAMS, SearchKind::BeamSearch, base)
            .run_faulted(arrivals, &plan)
            .expect("plain run");
        let gated = BatchedServerSim::new(server(13), N_BEAMS, SearchKind::BeamSearch, zero)
            .run_faulted(arrivals, &plan)
            .expect("gated run");
        let plain_ev = EventServerSim::new(
            server(13),
            N_BEAMS,
            SearchKind::BeamSearch,
            EventConfig::new(base, 0.2),
        )
        .run_faulted(arrivals, &plan)
        .expect("plain event run");
        let gated_ev = EventServerSim::new(
            server(13),
            N_BEAMS,
            SearchKind::BeamSearch,
            EventConfig::new(zero, 0.2),
        )
        .run_faulted(arrivals, &plan)
        .expect("gated event run");
        for (a, b) in [(&plain, &gated), (&plain_ev, &gated_ev)] {
            assert_eq!(a.preemptions, b.preemptions, "capacity-0 preemptions");
            assert_eq!(b.kv_tier_hits, 0, "capacity-0 tier never hits");
            assert_eq!(b.kv_tier_parked_bytes, 0, "capacity-0 tier never parks");
            for (x, y) in a.served.iter().zip(&b.served) {
                assert_eq!(
                    x.finished_at, y.finished_at,
                    "capacity-0 completion instants"
                );
                assert_eq!(
                    x.outcome.stats.completion.breakdown, y.outcome.stats.completion.breakdown,
                    "capacity-0 latency breakdowns"
                );
                assert_eq!(x.outcome.answer, y.outcome.answer, "capacity-0 answers");
            }
        }
    }
}

fn main() {
    let arrivals = zipf_arrivals();
    let no_tier = run_tier(&arrivals, KvTierConfig::default());
    let drop_run = run_tier(&arrivals, KvTierConfig::with_capacity(STARVED_CAPACITY));
    let swap = run_tier(&arrivals, KvTierConfig::with_capacity(AMPLE_CAPACITY));

    println!("== pr7: host-RAM KV tier under the Zipf overload ==");
    println!(
        "{REQUESTS} requests over {DISTINCT_PROBLEMS} AIME problems (zipf skew {ZIPF_SKEW}): \
         {BURST_REQUESTS} burst at t=0 + {TRAIL_REQUESTS} trailing from t={TRAIL_START_S:.0} s, \
         n={N_BEAMS} beam search, {mem:.0}% device memory",
        mem = MEMORY_FRACTION * 100.0
    );
    for (label, run) in [
        ("no_tier", &no_tier),
        ("drop_tier", &drop_run),
        ("swap_tier", &swap),
    ] {
        let s = run.stream_summary();
        println!(
            "  {label:<10} goodput {gp:>7.1} tok/s | makespan {mk:>6.1} s | preemptions {p:>2} | recompute {rc:>8} tok | hits {h} | parked {parked} B | dropped {dropped} B",
            gp = s.stream_goodput,
            mk = s.makespan,
            p = run.preemptions,
            rc = recompute_tokens(run),
            h = run.kv_tier_hits,
            parked = run.kv_tier_parked_bytes,
            dropped = run.kv_tier_dropped_bytes,
        );
    }

    // The fixture must exercise the contested paths.
    assert!(
        drop_run.preemptions > 0,
        "the overload must trigger preemption"
    );
    assert!(
        drop_run.kv_tier_dropped_bytes > 0,
        "the starved tier must actually drop preempted KV"
    );
    assert!(
        swap.kv_tier_hits > 0,
        "the Zipf head must hit the ample tier's prefix store"
    );
    assert_eq!(
        swap.kv_tier_dropped_bytes, 0,
        "the ample tier never drops preempted KV"
    );

    // Acceptance criterion: swap-down-and-restore beats
    // drop-and-recompute on stream goodput AND recompute tokens.
    let (ds, ss) = (drop_run.stream_summary(), swap.stream_summary());
    assert!(
        ss.stream_goodput > ds.stream_goodput,
        "swap tier must beat drop tier on goodput ({:.1} vs {:.1} tok/s)",
        ss.stream_goodput,
        ds.stream_goodput
    );
    let (drop_rc, swap_rc) = (recompute_tokens(&drop_run), recompute_tokens(&swap));
    assert!(
        swap_rc < drop_rc,
        "swap tier must recompute fewer tokens ({swap_rc} vs {drop_rc})"
    );

    // Placement moves time, never tokens: answers are tier-invariant.
    for (a, b) in no_tier.served.iter().zip(&swap.served) {
        assert_eq!(a.outcome.answer, b.outcome.answer, "tier-invariant answers");
    }

    // The PR's bit-equivalence anchor, including a faulted replay.
    assert_capacity_zero_bit_identity(&arrivals);

    println!("\n== pr7: scheduler wall-clock (ample tier, Zipf replay) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall_stats = criterion.bench_stats("swap_tier_zipf_replay", |b| {
        b.iter(|| run_tier(&arrivals, KvTierConfig::with_capacity(AMPLE_CAPACITY)))
    });

    let goodput_gain = ss.stream_goodput / ds.stream_goodput.max(1e-12);
    let recompute_ratio = drop_rc as f64 / swap_rc.max(1) as f64;
    let workload = Json::object([
        ("requests", REQUESTS.into()),
        ("distinct_problems", DISTINCT_PROBLEMS.into()),
        ("zipf_skew", ZIPF_SKEW.into()),
        ("n_beams", N_BEAMS.into()),
        ("burst_requests", BURST_REQUESTS.into()),
        ("trail_start_s", TRAIL_START_S.into()),
        ("trail_interval_s", TRAIL_INTERVAL_S.into()),
        ("memory_fraction", MEMORY_FRACTION.into()),
        ("ample_capacity_bytes", AMPLE_CAPACITY.into()),
        ("starved_capacity_bytes", STARVED_CAPACITY.into()),
        ("search", "beam".into()),
    ]);
    let policies = Json::object([
        ("no_tier", policy(&no_tier)),
        ("drop_tier", policy(&drop_run)),
        ("swap_tier", policy(&swap)),
    ]);
    let report = Json::object([
        ("bench", "pr7_kv_tier".into()),
        ("workload", workload),
        ("policies", policies),
        ("swap_goodput_gain_vs_drop", goodput_gain.into()),
        ("drop_to_swap_recompute_ratio", recompute_ratio.into()),
        ("swap_tier_prefix_hits", swap.kv_tier_hits.into()),
        ("swap_tier_wall_clock", wall(&wall_stats)),
    ]);
    write_report("BENCH_PR7.json", &report);
}
