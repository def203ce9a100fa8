//! PR-2 benchmark: continuous batching across requests, with a
//! machine-readable `BENCH_PR2.json` report.
//!
//! An overload arrival stream (offered load well above single-request
//! capacity) is replayed through three request-level scheduling
//! policies over the same server:
//!
//! 1. **FIFO batch-1** — the paper's interactive baseline
//!    (`BatchConfig::fifo`, bit-identical to `ServerSim`).
//! 2. **Gang batching** — admit up to 4 while idle, then drain.
//! 3. **Continuous batching** — up to 4 requests joined and retired
//!    mid-flight against the shared KV pool.
//!
//! The report records stream goodput (accepted tokens per second of
//! makespan), latency and queue-delay distributions, preemption
//! counts, and — via the extended criterion shim — the wall-clock
//! distribution (mean/min/variance/p50/p99) of the continuous
//! scheduler itself. The run asserts the PR's acceptance criterion:
//! under overload, continuous batching beats FIFO batch-1 on goodput.
//!
//! Run with `cargo bench --bench pr2_batching` (release profile).

use criterion::Criterion;
use ftts_bench::{wall, write_report};
use ftts_core::{BatchConfig, BatchRun, BatchedServerSim, TtsServer};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::StreamSummary;
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

const REQUESTS: usize = 8;
const N_BEAMS: usize = 16;
const ARRIVAL_INTERVAL_S: f64 = 1.0;

fn server() -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = 17;
    s
}

fn arrivals() -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(REQUESTS, 29);
    ArrivalPattern::Uniform {
        interval: ARRIVAL_INTERVAL_S,
    }
    .schedule(&problems, 0)
}

fn run_policy(config: BatchConfig, arrivals: &[RequestArrival]) -> BatchRun {
    BatchedServerSim::new(server(), N_BEAMS, SearchKind::BeamSearch, config)
        .run(arrivals)
        .expect("policy run")
}

fn policy(run: &BatchRun) -> Json {
    let s: StreamSummary = run.stream_summary();
    Json::object([
        ("stream_goodput_tok_per_s", s.stream_goodput.into()),
        ("makespan_s", s.makespan.into()),
        ("total_accepted_tokens", s.total_accepted_tokens.into()),
        ("latency_mean_s", s.latency.mean.into()),
        ("latency_p50_s", s.latency.p50.into()),
        ("latency_p95_s", s.latency.p95.into()),
        ("queue_delay_mean_s", s.queue_delay.mean.into()),
        ("preemptions", run.preemptions.into()),
        ("rounds", run.rounds.into()),
        ("peak_reserved_bytes", run.peak_reserved_bytes.into()),
        ("pool_bytes", run.pool_bytes.into()),
    ])
}

fn main() {
    let arrivals = arrivals();
    let fifo = run_policy(BatchConfig::fifo(), &arrivals);
    let gang = run_policy(BatchConfig::gang(4), &arrivals);
    let cont = run_policy(BatchConfig::continuous(4), &arrivals);

    let (f, g, c) = (
        fifo.stream_summary(),
        gang.stream_summary(),
        cont.stream_summary(),
    );
    println!("== pr2: request-level batching under overload ==");
    println!(
        "{REQUESTS} requests, n={N_BEAMS} beam search, one arrival per {ARRIVAL_INTERVAL_S:.1} s"
    );
    for (label, s) in [
        ("fifo batch-1", &f),
        ("gang batch-4", &g),
        ("continuous-4", &c),
    ] {
        println!(
            "  {label:<14} goodput {goodput:>8.1} tok/s | makespan {makespan:>7.1} s | mean latency {lat:>7.1} s | mean queue {qd:>6.1} s",
            goodput = s.stream_goodput,
            makespan = s.makespan,
            lat = s.latency.mean,
            qd = s.queue_delay.mean,
        );
    }
    let speedup = c.stream_goodput / f.stream_goodput.max(1e-12);
    println!("  continuous vs fifo goodput: {speedup:.2}x");
    assert!(
        c.stream_goodput > f.stream_goodput,
        "acceptance criterion: continuous batching must beat FIFO under overload \
         ({} vs {} tok/s)",
        c.stream_goodput,
        f.stream_goodput
    );

    // Outcome equivalence across policies: scheduling moves clocks only.
    for (a, b) in fifo.served.iter().zip(&cont.served) {
        assert_eq!(
            a.outcome.answer, b.outcome.answer,
            "answers are schedule-invariant"
        );
    }

    // Wall-clock distribution of the continuous scheduler itself, via
    // the extended criterion shim (variance + p50/p99).
    println!("\n== pr2: scheduler wall-clock (simulator hot path) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall_stats = criterion.bench_stats("continuous_batch4_replay", |b| {
        b.iter(|| run_policy(BatchConfig::continuous(4), &arrivals))
    });

    let workload = Json::object([
        ("requests", REQUESTS.into()),
        ("n_beams", N_BEAMS.into()),
        ("arrival_interval_s", ARRIVAL_INTERVAL_S.into()),
        ("search", "beam".into()),
    ]);
    let policies = Json::object([
        ("fifo_batch1", policy(&fifo)),
        ("gang_batch4", policy(&gang)),
        ("continuous_batch4", policy(&cont)),
    ]);
    let report = Json::object([
        ("bench", "pr2_continuous_batching".into()),
        ("workload", workload),
        ("policies", policies),
        ("continuous_goodput_speedup_vs_fifo", speedup.into()),
        ("continuous_wall_clock", wall(&wall_stats)),
    ]);
    write_report("BENCH_PR2.json", &report);
}
