//! PR-9 benchmark: multi-tenant serving with weighted fair share and
//! the `ftts-serve` protocol front door — `BENCH_PR9.json` report.
//!
//! **Fixture: a noisy neighbour against an interactive victim.** The
//! noisy tenant dumps four deep AIME-2024 searches at t = 0 (batch SLO,
//! generous deadlines); the victim tenant trickles five shallow
//! AMC-2023 requests at a three-second cadence, each with a 50-second
//! interactive deadline. One simulated RTX 4090, n = 12 beam search,
//! fused verify, event scheduling. Replayed twice:
//!
//! * `uncapped` — no tenant policy: the burst holds most of the KV pool
//!   and the admission queue, and every victim deadline blows;
//! * `fair_share` — the PR's tenant layer: the noisy tenant is confined
//!   to a quarter of the pool and two requests in flight, with shares
//!   rebalanced by weight at every boundary.
//!
//! A second fixture drives the same scenario through the
//! [`ftts_serve::ServeRuntime`] wire protocol (submit frames, a stats
//! frame) to time the protocol layer itself and pin its per-tenant
//! rollups to the in-simulator truth.
//!
//! Asserted gates (the PR's acceptance criteria):
//!
//! * fair share on → the victim's deadline-hit rate **strictly** beats
//!   the uncapped baseline;
//! * the noisy tenant's peak KV grant stays within its hard cap;
//! * nobody is shed: caps squeeze the noisy tenant, never starve it;
//! * the protocol front door reports the same per-tenant hit rates the
//!   simulator measured.
//!
//! Run with `cargo bench --bench pr9_serve` (release profile).

use criterion::Criterion;
use ftts_bench::{wall, write_report};
use ftts_core::{
    BatchConfig, BatchRun, EventConfig, EventServerSim, TenantPolicy, TenantSpec, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::{SloClass, StreamRecord, TenantRollup};
use ftts_search::SearchKind;
use ftts_serve::{Json, ServeConfig, ServeRuntime};
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

const N_BEAMS: usize = 12;
const MAX_BATCH: usize = 4;
const VICTIM_REQUESTS: usize = 5;
const NOISY_REQUESTS: usize = 4;
const VICTIM_INTERVAL_S: f64 = 3.0;
const VICTIM_DEADLINE_S: f64 = 50.0;
const NOISY_DEADLINE_S: f64 = 1200.0;
const NOISY_CAP_DIV: u64 = 4;
const NOISY_MAX_IN_FLIGHT: u32 = 2;
const MEMORY_FRACTION: f64 = 0.45;
const SEED: u64 = 7;

const VICTIM: u32 = 0;
const NOISY: u32 = 1;

/// Per-request generator seeds: each problem is drawn with its own
/// seed (`problems(1, seed)`), exactly how the serve wire protocol
/// materializes a `problem_seed` field — so the front-door fixture can
/// replay the identical problems over JSON frames.
const VICTIM_SEED_BASE: u64 = 100;
const NOISY_SEED_BASE: u64 = 200;

fn server() -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = SEED;
    s.config_mut().memory_fraction = MEMORY_FRACTION;
    s
}

/// The noisy-neighbour trace: a deep burst at t = 0 against a shallow
/// interactive trickle, every request tagged with its tenant and SLO.
fn arrivals() -> Vec<RequestArrival> {
    let victim: Vec<_> = (0..VICTIM_REQUESTS as u64)
        .map(|i| Dataset::Amc2023.problems(1, VICTIM_SEED_BASE + i)[0])
        .collect();
    let noisy: Vec<_> = (0..NOISY_REQUESTS as u64)
        .map(|j| Dataset::Aime2024.problems(1, NOISY_SEED_BASE + j)[0])
        .collect();
    let mut arrivals: Vec<RequestArrival> = ArrivalPattern::Burst { at: 0.0 }
        .schedule(&noisy, 0)
        .into_iter()
        .map(|a| {
            a.with_tenant(NOISY)
                .with_slo(SloClass::Batch, NOISY_DEADLINE_S)
        })
        .collect();
    arrivals.extend(
        ArrivalPattern::Uniform {
            interval: VICTIM_INTERVAL_S,
        }
        .schedule(&victim, 0)
        .iter()
        .cloned()
        .map(|a| {
            a.with_tenant(VICTIM)
                .with_slo(SloClass::Interactive, VICTIM_DEADLINE_S)
        }),
    );
    arrivals.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite arrival times"));
    arrivals
}

fn fair_share_policy(pool: u64) -> TenantPolicy {
    TenantPolicy::new(&[
        TenantSpec {
            id: VICTIM,
            weight: 3,
            kv_cap_bytes: u64::MAX,
            max_in_flight: 0,
        },
        TenantSpec {
            id: NOISY,
            weight: 1,
            kv_cap_bytes: pool / NOISY_CAP_DIV,
            max_in_flight: NOISY_MAX_IN_FLIGHT,
        },
    ])
}

fn run(config: BatchConfig, trace: &[RequestArrival]) -> BatchRun {
    EventServerSim::new(
        server(),
        N_BEAMS,
        SearchKind::BeamSearch,
        EventConfig::new(config, 0.2),
    )
    .run(trace)
    .expect("feasible fixture")
}

/// Per-tenant rollups for a run, through the same
/// [`TenantRollup`] path the serve front door reports over the wire.
fn rollups(run: &BatchRun, trace: &[RequestArrival]) -> Vec<TenantRollup> {
    let tagged: Vec<(u32, StreamRecord)> = run
        .served
        .iter()
        .zip(trace)
        .map(|(r, a)| (a.tenant, r.stream_record()))
        .collect();
    TenantRollup::of(&tagged)
}

fn rollup(rollups: &[TenantRollup], tenant: u32) -> &TenantRollup {
    rollups
        .iter()
        .find(|r| r.tenant == tenant)
        .expect("tenant present in run")
}

fn tenant_peak(run: &BatchRun, tenant: u32) -> u64 {
    run.tenant_peak_bytes
        .iter()
        .find(|&&(id, _)| id == tenant)
        .map_or(0, |&(_, b)| b)
}

fn tenant(roll: &TenantRollup, kv_peak: u64) -> Json {
    let s = &roll.summary;
    Json::object([
        ("requests", roll.requests.into()),
        ("deadline_hit_rate", s.deadline_hit_rate.into()),
        ("mean_latency_s", s.latency.mean.into()),
        ("p99_latency_s", s.latency.p99.into()),
        ("stream_goodput_tok_per_s", s.stream_goodput.into()),
        ("accepted_tokens", s.total_accepted_tokens.into()),
        ("kv_peak_bytes", kv_peak.into()),
    ])
}

/// The serve front door over the identical scenario: submit frames for
/// every arrival, then one stats frame. Returns the per-tenant
/// deadline-hit rates the protocol reported.
fn front_door_hit_rates(trace: &[RequestArrival]) -> (f64, f64) {
    let config = format!(
        "[server]\nseed = {SEED}\nn_beams = {N_BEAMS}\nmax_batch = {MAX_BATCH}\n\
         window_secs = 0.2\nmemory_fraction = {MEMORY_FRACTION}\nmax_prompt_tokens = 4096\n\n\
         [[tenants]]\nid = {VICTIM}\nweight = 3\nkv_cap_frac = 0.0\nmax_open = 0\n\n\
         [[tenants]]\nid = {NOISY}\nweight = 1\nkv_cap_frac = {frac}\nmax_open = 0\n\
         max_in_flight = {NOISY_MAX_IN_FLIGHT}\n",
        frac = 1.0 / NOISY_CAP_DIV as f64
    );
    let mut runtime = ServeRuntime::new(ServeConfig::parse(&config).expect("bench config"));
    // Within a tenant, the sorted trace preserves schedule order, so a
    // per-tenant counter recovers each arrival's generator seed.
    let mut drawn = [0u64; 2];
    for (i, a) in trace.iter().enumerate() {
        let (dataset, base) = if a.tenant == NOISY {
            ("aime2024", NOISY_SEED_BASE)
        } else {
            ("amc2023", VICTIM_SEED_BASE)
        };
        let seed = base + drawn[a.tenant as usize];
        drawn[a.tenant as usize] += 1;
        let slo = a.slo.name();
        let slack = a.deadline - a.at;
        let frame = format!(
            "{{\"op\":\"submit\",\"id\":\"r{i}\",\"tenant\":{tenant},\"slo\":\"{slo}\",\
             \"dataset\":\"{dataset}\",\"problem_seed\":{seed},\"deadline_secs\":{slack:.1},\
             \"arrive_at\":{at:.3}}}",
            tenant = a.tenant,
            at = a.at,
        );
        assert!(
            runtime.handle_line(&frame).reply.contains("\"ok\":true"),
            "bench submits must admit"
        );
    }
    let stats = runtime.handle_line("{\"op\":\"stats\"}").reply;
    let json = Json::parse(&stats).expect("stats reply parses");
    let tenants = match json.at("tenants") {
        Some(Json::Array(items)) => items.clone(),
        _ => panic!("stats reply carries tenants: {stats}"),
    };
    let hit = |tenant: u32| {
        tenants
            .iter()
            .find(|t| t.number_at("tenant") == Some(f64::from(tenant)))
            .and_then(|t| t.number_at("deadline_hit_rate"))
            .expect("per-tenant hit rate")
    };
    (hit(VICTIM), hit(NOISY))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let trace = arrivals();
    let pool = server().config().kv_budget_bytes();
    let cap = pool / NOISY_CAP_DIV;
    let policy = fair_share_policy(pool);

    let uncapped = run(BatchConfig::fused(MAX_BATCH), &trace);
    let fair = run(BatchConfig::fused(MAX_BATCH).with_tenants(policy), &trace);
    let (u_rolls, f_rolls) = (rollups(&uncapped, &trace), rollups(&fair, &trace));
    let (u_victim, u_noisy) = (rollup(&u_rolls, VICTIM), rollup(&u_rolls, NOISY));
    let (f_victim, f_noisy) = (rollup(&f_rolls, VICTIM), rollup(&f_rolls, NOISY));

    println!("== pr9: noisy neighbour vs weighted fair share ==");
    println!(
        "{NOISY_REQUESTS} deep AIME bursts vs {VICTIM_REQUESTS} interactive AMC requests, \
         n={N_BEAMS} beams, fused({MAX_BATCH}), noisy cap pool/{NOISY_CAP_DIV}, \
         quota {NOISY_MAX_IN_FLIGHT} in flight"
    );
    for (label, victim, noisy, run) in [
        ("uncapped", u_victim, u_noisy, &uncapped),
        ("fair_share", f_victim, f_noisy, &fair),
    ] {
        println!(
            "  {label:<11} victim hit {vh:>4.2} mean {vm:>5.1} s | noisy hit {nh:>4.2} \
             mean {nm:>5.1} s | noisy kv peak {peak:>5.0} MiB",
            vh = victim.summary.deadline_hit_rate,
            vm = victim.summary.latency.mean,
            nh = noisy.summary.deadline_hit_rate,
            nm = noisy.summary.latency.mean,
            peak = tenant_peak(run, NOISY) as f64 / (1024.0 * 1024.0),
        );
    }

    // Gate (a): fair share strictly improves the victim's deadline-hit
    // rate against the identical burst.
    assert!(
        f_victim.summary.deadline_hit_rate > u_victim.summary.deadline_hit_rate,
        "fair share must strictly beat uncapped on victim hit rate ({:.3} vs {:.3})",
        f_victim.summary.deadline_hit_rate,
        u_victim.summary.deadline_hit_rate
    );

    // Gate (b): the hard cap held — the noisy tenant's peak grant never
    // exceeded its share.
    let noisy_peak = tenant_peak(&fair, NOISY);
    assert!(
        noisy_peak <= cap,
        "noisy tenant peak {noisy_peak} must stay within its cap {cap}"
    );
    assert!(noisy_peak > 0, "the noisy tenant did run under the policy");

    // Gate (c): caps squeeze, never starve — everyone completes.
    assert_eq!(fair.served.len(), trace.len());
    assert!(
        fair.served.iter().all(|r| !r.shed),
        "fair share must not shed anyone"
    );

    // Gate (d): the protocol front door reports the same per-tenant hit
    // rates the simulator measured. The door's own backlog quota is left
    // unlimited so every frame admits; the in-sim policy below it
    // (caps, weights, max_in_flight) is identical to `fair_share_policy`.
    let (door_victim_hit, door_noisy_hit) = front_door_hit_rates(&trace);
    assert!(
        (door_victim_hit - f_victim.summary.deadline_hit_rate).abs() < 1e-9,
        "front door victim hit rate {door_victim_hit} must match the simulator {}",
        f_victim.summary.deadline_hit_rate
    );
    assert!(
        (door_noisy_hit - f_noisy.summary.deadline_hit_rate).abs() < 1e-9,
        "front door noisy hit rate {door_noisy_hit} must match the simulator {}",
        f_noisy.summary.deadline_hit_rate
    );

    println!("\n== pr9: wall clock ==");
    let mut criterion = Criterion::default().sample_size(15);
    let sim_wall = criterion.bench_stats("fair_share_replay", |b| {
        b.iter(|| run(BatchConfig::fused(MAX_BATCH).with_tenants(policy), &trace))
    });
    let door_wall = criterion.bench_stats("front_door_replay", |b| {
        b.iter(|| front_door_hit_rates(&trace))
    });

    let hit_gain = f_victim.summary.deadline_hit_rate
        / u_victim
            .summary
            .deadline_hit_rate
            .max(1.0 / trace.len() as f64);
    let cap_utilization = noisy_peak as f64 / cap as f64;
    let tenants = |run: &BatchRun, victim: &TenantRollup, noisy: &TenantRollup| {
        Json::object([
            ("victim", tenant(victim, tenant_peak(run, VICTIM))),
            ("noisy", tenant(noisy, tenant_peak(run, NOISY))),
        ])
    };
    let workload = Json::object([
        ("victim_requests", VICTIM_REQUESTS.into()),
        ("noisy_requests", NOISY_REQUESTS.into()),
        ("victim_deadline_s", VICTIM_DEADLINE_S.into()),
        ("victim_interval_s", VICTIM_INTERVAL_S.into()),
        ("n_beams", N_BEAMS.into()),
        ("max_batch", MAX_BATCH.into()),
        ("noisy_cap_div", NOISY_CAP_DIV.into()),
        ("noisy_max_in_flight", NOISY_MAX_IN_FLIGHT.into()),
        ("memory_fraction", MEMORY_FRACTION.into()),
        ("search", "beam".into()),
    ]);
    let report = Json::object([
        ("bench", "pr9_serve".into()),
        ("workload", workload),
        ("uncapped", tenants(&uncapped, u_victim, u_noisy)),
        ("fair_share", tenants(&fair, f_victim, f_noisy)),
        ("victim_deadline_hit_gain", hit_gain.into()),
        ("noisy_cap_utilization", cap_utilization.into()),
        ("front_door_victim_hit_rate", door_victim_hit.into()),
        ("fair_share_wall_clock", wall(&sim_wall)),
        ("front_door_wall_clock", wall(&door_wall)),
    ]);
    write_report("BENCH_PR9.json", &report);
}
