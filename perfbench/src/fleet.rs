//! The in-process workload, `sim-fleet`: offline use of the library,
//! timed at `FleetSim::run_faulted`.
//!
//! A Zipf-popular mix of AMC-2023 problems in three SLO classes arrives
//! as a Poisson stream at a four-device fleet of RTX 4090s and Jetson
//! Orins. Routing is prefix affinity, every device runs the honest
//! timeline with token joins, crashes fail over, stragglers are hedged,
//! preempted KV parks in a host tier, and a seeded storm of kernel
//! faults, throttling, KV loss and one device crash runs throughout.

use std::collections::BTreeMap;
use std::time::Instant;

use ftts_core::{
    BatchConfig, EventConfig, FaultEvent, FaultKind, FaultPlan, FaultPolicy, FleetConfig, FleetRun,
    FleetSim, HedgeConfig, KvTierConfig, RobustConfig, RoutePolicy, StormConfig, TimelineServerSim,
    TimelineTuning, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::SloClass;
use ftts_search::SearchKind;
use ftts_workload::{zipf_problems, ArrivalPattern, Dataset, RequestArrival};

use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::seed::SplitMix;
use crate::stats::{median, peak_rss_mib, quantile, tail_quantile, timed};

// One job is the repository's fleet fixture (`crates/bench/benches/
// pr8_fleet.rs`): twelve Zipf draws (skew 1.2) over four AMC-2023
// problems, n = 16 beam search, round-robin SLO slack of 90/120/180 s,
// device 1 crashing at 25 s for 300 s. Its 4 s cadence becomes the mean
// of the Poisson gaps; the storm is the fault fixture's
// (`pr6_faults.rs`: `StormConfig::default()` over 60 s) on every device.

/// Independent fleet jobs (traces) in one pass.
const JOBS: usize = 128;
const REQUESTS: usize = 12;
const DISTINCT_PROBLEMS: usize = 4;
const ZIPF_SKEW: f64 = 1.2;
/// Mean Poisson arrival rate, requests per virtual second.
const ARRIVAL_RATE: f64 = 0.25;
const N_BEAMS: usize = 16;
const CRASH_DEVICE: u64 = 1;
const CRASH_AT_S: f64 = 25.0;
const CRASH_DOWN_S: f64 = 300.0;
const STORM_HORIZON_S: f64 = 60.0;
/// Set-up repetitions per run; the reported set-up time is their median.
const SETUP_REPS: usize = 31;
/// SLO classes with their deadline slack, virtual seconds, assigned
/// round-robin by request number.
const SLOS: [(SloClass, f64); 3] = [
    (SloClass::Interactive, 90.0),
    (SloClass::Standard, 120.0),
    (SloClass::Batch, 180.0),
];

fn devices() -> Vec<TtsServer> {
    [
        GpuDevice::rtx4090(),
        GpuDevice::jetson_orin(),
        GpuDevice::rtx4090(),
        GpuDevice::jetson_orin(),
    ]
    .into_iter()
    .map(|dev| {
        let mut s = TtsServer::fasttts(dev, ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = 17;
        s.config_mut().memory_fraction = 0.55;
        s
    })
    .collect()
}

fn event_config() -> EventConfig {
    EventConfig::new(
        BatchConfig::continuous(4)
            .with_tier(KvTierConfig::with_capacity(1 << 33))
            .with_robust(RobustConfig::with_policy(FaultPolicy::Degrade)),
        0.25,
    )
}

fn tuning() -> TimelineTuning {
    TimelineTuning::honest()
        .with_token_joins()
        .with_join_quantum(2)
}

/// The fleet under test.
pub fn fleet() -> FleetSim {
    let config = FleetConfig::new(event_config(), RoutePolicy::PrefixAffinity)
        .with_hedge(HedgeConfig {
            delay_factor: 1.5,
            min_samples: 3,
            min_delay_secs: 5.0,
        })
        .with_timeline(tuning());
    FleetSim::new(devices(), N_BEAMS, SearchKind::BeamSearch, config)
}

/// One fleet job: its arrival trace and per-device fault plans.
pub struct Job {
    /// The arrivals, in time order.
    pub arrivals: Vec<RequestArrival>,
    /// One fault plan per device.
    pub plans: Vec<FaultPlan>,
}

/// The jobs of one pass for `seed`.
///
/// Each job draws its own problems, Zipf popularity, Poisson arrival
/// gaps and storm instants. Every job has the same shape: its arrivals
/// are rescaled to span the fixture's twelve 4 s gaps (a Poisson stream
/// conditioned on its count), so the crash always lands mid-trace. A
/// pass pools many jobs so that its totals vary little across seeds.
pub fn jobs(seed: u64) -> Vec<Job> {
    let mut rng = SplitMix::new(seed, 0xF1EE7);
    let horizon = REQUESTS as f64 / ARRIVAL_RATE;
    (0..JOBS)
        .map(|_| {
            let job_seed = rng.next_u64();
            let ranked = Dataset::Amc2023.problems(DISTINCT_PROBLEMS, job_seed);
            let drawn = zipf_problems(&ranked, REQUESTS, ZIPF_SKEW, job_seed);
            let raw = ArrivalPattern::Poisson { rate: ARRIVAL_RATE }.schedule(&drawn, job_seed);
            let scale = horizon / raw.last().map_or(1.0, |a| a.at);
            let arrivals = raw
                .into_iter()
                .enumerate()
                .map(|(i, mut a)| {
                    a.at *= scale;
                    let (class, slack) = SLOS[i % SLOS.len()];
                    a.with_slo(class, slack)
                })
                .collect();
            let plans = (0..4u64)
                .map(|d| {
                    let storm = FaultPlan::storm(
                        job_seed.wrapping_add(d),
                        STORM_HORIZON_S,
                        &StormConfig::default(),
                    );
                    let mut events = storm.events().to_vec();
                    if d == CRASH_DEVICE {
                        events.push(FaultEvent {
                            at: CRASH_AT_S,
                            kind: FaultKind::DeviceCrash {
                                down_for: CRASH_DOWN_S,
                            },
                        });
                    }
                    FaultPlan::new(events)
                })
                .collect();
            Job { arrivals, plans }
        })
        .collect()
}

/// Solo answers keyed by `(device, problem seed, beams)`: answers are
/// schedule-invariant, so every served request must match its solo run
/// on the device that served it at the beam width it was granted.
#[derive(Default)]
struct Oracle(BTreeMap<(usize, u64, usize), Option<u32>>);

impl Oracle {
    fn check(
        &mut self,
        servers: &[TtsServer],
        arrivals: &[RequestArrival],
        run: &FleetRun,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        for ((r, a), device) in run.served.iter().zip(arrivals).zip(&run.serving_device) {
            let ok = match device {
                // Shed everywhere: no leg ran to an answer.
                None => r.shed && r.outcome.answer.is_none(),
                Some(d) => {
                    let key = (*d, a.problem.seed, r.granted_n);
                    let expected = match self.0.get(&key) {
                        Some(answer) => *answer,
                        None => {
                            let solo = servers[*d]
                                .serve(&a.problem, r.granted_n, SearchKind::BeamSearch)
                                .map_err(|e| format!("solo serve: {e:?}"))?;
                            self.0.insert(key, solo.answer);
                            solo.answer
                        }
                    };
                    !r.shed && expected == r.outcome.answer
                }
            };
            outcome.check(ok);
        }
        for d in &run.device_runs {
            outcome.check(
                d.final_reserved_bytes == 0 && d.kv_tier_parked_bytes == d.kv_tier_unparked_bytes,
            );
        }
        Ok(())
    }
}

/// Run `sim-fleet`: whole passes over the seed's jobs, as many as fit
/// in `seconds` (at least one). Times are raw wall times.
///
/// # Errors
///
/// Fails when the simulator refuses a job.
pub fn run(
    seed: u64,
    seconds: f64,
    trace_on: bool,
) -> Result<(Outcome, Metrics, Vec<String>), String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (built, secs) = timed(|| (jobs(seed), fleet()));
        std::hint::black_box(built);
        setups.push(secs);
    }
    let jobs = jobs(seed);
    let sim = fleet();
    let servers = devices();

    let start = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    // Virtual-time results pooled over the first pass as each job ends:
    // tokens over summed makespans, hits over requests, p99 over every
    // request's latency. Runs are kept only for the traced layers, so an
    // untraced run holds one at a time and its VmHWM is the simulator's.
    let (mut tokens, mut makespan, mut hits, mut requests) = (0u64, 0.0, 0.0, 0usize);
    let mut latencies = Vec::new();
    let mut kept = Vec::new();
    let mut outcome = Outcome::default();
    let mut oracle = Oracle::default();
    let mut passes = 0;
    // Another pass starts only when it should end within `seconds`, so a
    // pass that nearly fills the run is not followed by a second one on
    // some runs and not on others.
    while passes == 0
        || start.elapsed().as_secs_f64() * f64::from(passes + 1) / f64::from(passes) <= seconds
    {
        for (job, samples) in jobs.iter().zip(&mut times) {
            let (run, secs) =
                timed(|| sim.run_faulted(std::hint::black_box(&job.arrivals), &job.plans));
            let run = run.map_err(|e| format!("fleet run: {e:?}"))?;
            samples.push(secs);
            oracle.check(&servers, &job.arrivals, &run, &mut outcome)?;
            if passes == 0 {
                let s = run.fleet_summary();
                tokens += s.total_accepted_tokens;
                makespan += s.makespan;
                hits += s.deadline_hit_rate * s.requests as f64;
                requests += s.requests;
                latencies.extend(run.fleet_records().iter().map(|r| r.total_latency()));
                if trace_on {
                    kept.push(run);
                }
            }
        }
        passes += 1;
    }
    let rss = peak_rss_mib(std::process::id())?;

    let ms: Vec<f64> = times.iter().flatten().map(|s| s * 1e3).collect();
    let tail_q = tail_quantile(jobs.len());
    let total_s: f64 = times.iter().flatten().sum();

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("op_p50_ms", median(&ms));
    m.set("op_tail_ms", quantile(&ms, tail_q));
    m.set("ops_per_s", ms.len() as f64 / total_s);
    m.set("peak_rss_mb", rss);
    m.set("vt_goodput_tok_s", tokens as f64 / makespan);
    m.set("vt_deadline_hit_rate", hits / requests.max(1) as f64);
    m.set("vt_latency_p99_s", quantile(&latencies, 0.99));

    let mut info = vec![format!(
        "in-process, 1 caller, {passes} pass(es) over {} jobs of {REQUESTS} requests, {} fleet runs, tail = p{}, {} set-up samples, simulation time {:.1} ms",
        jobs.len(),
        ms.len(),
        tail_q * 100.0,
        setups.len(),
        total_s * 1e3
    )];
    if trace_on {
        let fleet_s: f64 = times.iter().map(|t| median(t)).sum();
        layer_metrics(&servers, &jobs, &kept, fleet_s, &mut m, &mut info)?;
    }
    m.set("failed_frac", outcome.failed_frac());
    Ok((outcome, m, info))
}

fn layer_metrics(
    servers: &[TtsServer],
    jobs: &[Job],
    runs: &[FleetRun],
    fleet_s: f64,
    m: &mut Metrics,
    info: &mut Vec<String>,
) -> Result<(), String> {
    for name in [
        "net.overhead_p50_us",
        "net.overhead_tail_us",
        "protocol.parse_p50_us",
        "protocol.rejects",
        "runtime.submit_p50_us",
        "runtime.status_hit_p50_us",
        "runtime.status_miss_p50_ms",
        "runtime.stats_p50_us",
        "runtime.cancel_p50_us",
        "runtime.replays",
        "runtime.memo_hit_ratio",
        "runtime.miss_ms_per_req",
        "tenant.refusals",
    ] {
        m.set(name, 0.0);
    }
    let device_runs: Vec<_> = runs.iter().flat_map(|r| &r.device_runs).collect();
    let served: Vec<_> = runs.iter().flat_map(|r| r.served.iter().cloned()).collect();
    let simulated: u64 = device_runs
        .iter()
        .map(|d| layers::sim_tokens(&d.served))
        .sum();
    let count = |f: fn(&FleetRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    m.set("fleet.run_ms", fleet_s * 1e3);
    m.set("sched.sim_tok_per_s", simulated as f64 / fleet_s);
    m.set("fleet.migrations", count(|r| r.migrations));
    m.set("fleet.hedges_launched", count(|r| r.hedges_launched));
    m.set("fleet.hedges_wasted", count(|r| r.hedges_wasted));
    m.set("fleet.warm_hits", count(FleetRun::warm_hits));

    // Each device's timeline over the requests it served, alone: what
    // the pass would cost if routing were free.
    let mut device_s = 0.0;
    for (job, run) in jobs.iter().zip(runs) {
        for (d, server) in servers.iter().enumerate() {
            let sub: Vec<RequestArrival> = job
                .arrivals
                .iter()
                .zip(&run.serving_device)
                .filter(|(_, s)| **s == Some(d))
                .map(|(a, _)| a.clone())
                .collect();
            if sub.is_empty() {
                continue;
            }
            let sim = TimelineServerSim::new(
                server.clone(),
                N_BEAMS,
                SearchKind::BeamSearch,
                tuning().config(event_config()),
            );
            let (run, secs) = timed(|| sim.run_faulted(&sub, &job.plans[d].without_crashes()));
            run.map_err(|e| format!("device {d} timeline: {e:?}"))?;
            device_s += secs;
        }
    }
    m.set("sched.run_ms", device_s * 1e3);
    m.set(
        "fleet.resim_factor",
        fleet_s / device_s.max(f64::MIN_POSITIVE),
    );
    layers::run_counters(&device_runs, &served, m);

    let arrivals: Vec<RequestArrival> = jobs.iter().flat_map(|j| j.arrivals.clone()).collect();
    let records = runs.iter().flat_map(FleetRun::fleet_records);
    let tagged: Vec<_> = arrivals.iter().map(|a| a.tenant).zip(records).collect();
    m.set("metrics.rollup_p50_us", layers::rollup_p50_us(&tagged));
    let us_per_ktok = layers::engine_us_per_ktok(&servers[0], &arrivals, N_BEAMS)?;
    m.set("engine.us_per_ktok", us_per_ktok);
    info.push(format!(
        "traced: fleet runs {:.1} ms vs per-device timelines {:.1} ms per pass",
        fleet_s * 1e3,
        device_s * 1e3
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_a_function_of_the_seed() {
        let arrivals = |seed| -> Vec<Vec<RequestArrival>> {
            jobs(seed).into_iter().map(|j| j.arrivals).collect()
        };
        assert_eq!(arrivals(4), arrivals(4));
        assert_ne!(arrivals(4), arrivals(5));
    }
}
