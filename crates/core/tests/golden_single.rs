//! Golden fingerprints of single-request serving.
//!
//! `golden.rs` pins the schedulers; these rows pin what one request
//! costs and answers on its own, through `TtsServer::serve` and the
//! FIFO `ServerSim`. Each flag-set row serves one AMC-2023 and one
//! AIME-2024 problem at n = 16 with every `SearchKind`, and its
//! fingerprint is the 64-bit FNV-1a hash of the `{:?}` of the ten
//! outcomes, in order. The rows cover the vLLM baseline (static split,
//! random order, re-prefilling verifier), the cumulative ablation rungs,
//! full FastTTS, the offloading planner on an 8 GB part, prefix caching
//! switched off, and one speculation-preempting `ServerSim` stream.
//!
//! `golden/single.txt` holds one `<row> <fingerprint>` line per row. On
//! a mismatch the test prints the line it computed. A deliberate
//! behaviour change edits `single.txt` by hand and records why in
//! CHANGES.md; there is no regeneration switch.

use ftts_core::{AblationFlags, ServeOutcome, ServerSim, TtsServer};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset};

const ROWS: &str = include_str!("golden/single.txt");

const N: usize = 16;

/// Tight enough on a 4090 that eviction order, the memory split and
/// speculation all change the outcome (at 0.4 and above, the baseline
/// and the `P` rung serve bit-identically).
const MEMORY_FRACTION: f64 = 0.3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_debug(value: &impl std::fmt::Debug) -> String {
    format!("{:016x}", fnv1a(format!("{value:?}").as_bytes()))
}

/// Compare a computed fingerprint with its golden row; on a mismatch,
/// fail with the line the run computed.
fn check(row: &str, computed: &str) {
    let want = ROWS
        .lines()
        .find_map(|line| {
            let (name, fp) = line.split_once(' ')?;
            (name == row).then_some(fp)
        })
        .unwrap_or_else(|| panic!("single.txt has no row {row}"));
    assert!(
        computed == want,
        "row {row} drifted from its golden line `{row} {want}`; computed:\n{row} {computed}"
    );
}

fn server(device: GpuDevice, flags: AblationFlags) -> TtsServer {
    let mut s = TtsServer::with_flags(device, ModelPairing::pair_1_5b_1_5b(), flags);
    s.config_mut().seed = 7;
    s.config_mut().memory_fraction = MEMORY_FRACTION;
    s
}

/// Every search kind on one AMC-2023 and one AIME-2024 problem.
fn serve_all(server: &TtsServer) -> Vec<ServeOutcome> {
    let problems = [
        Dataset::Amc2023.problems(1, 17)[0],
        Dataset::Aime2024.problems(1, 29)[0],
    ];
    problems
        .iter()
        .flat_map(|p| SearchKind::all().map(move |kind| (p, kind)))
        .map(|(p, kind)| {
            server
                .serve(p, N, kind)
                .unwrap_or_else(|e| panic!("{kind:?} on problem {}: {e}", p.seed))
        })
        .collect()
}

fn check_flags(row: &str, flags: AblationFlags) {
    check(
        row,
        &hash_debug(&serve_all(&server(GpuDevice::rtx4090(), flags))),
    );
}

fn rung(label: &str) -> AblationFlags {
    AblationFlags::ladder()
        .into_iter()
        .find_map(|(l, flags)| (l == label).then_some(flags))
        .unwrap_or_else(|| panic!("no ladder rung {label}"))
}

#[test]
fn baseline_serves_are_frozen() {
    check_flags("serve-baseline", AblationFlags::baseline());
}

#[test]
fn prefix_aware_rung_serves_are_frozen() {
    check_flags("serve-p", rung("P"));
}

#[test]
fn memory_and_prefix_rung_serves_are_frozen() {
    check_flags("serve-m-p", rung("M+P"));
}

#[test]
fn fasttts_serves_are_frozen() {
    check_flags("serve-fasttts", AblationFlags::fasttts());
}

#[test]
fn offloading_serves_are_frozen() {
    let mut s = server(GpuDevice::rtx3070ti(), AblationFlags::fasttts_offload());
    // At 0.85 and above the planner offloads for some kinds only.
    s.config_mut().memory_fraction = 0.8;
    let outcomes = serve_all(&s);
    for o in &outcomes {
        assert!(
            o.stats.breakdown().offload > 0.0,
            "the planner offloads on an 8 GB part"
        );
    }
    check("serve-fasttts-offload", &hash_debug(&outcomes));
}

#[test]
fn serves_without_prefix_sharing_are_frozen() {
    let mut s = server(GpuDevice::rtx4090(), AblationFlags::fasttts());
    s.config_mut().prefix_sharing = false;
    check("serve-no-prefix-sharing", &hash_debug(&serve_all(&s)));
}

#[test]
fn server_sim_stream_is_frozen() {
    let problems = Dataset::Amc2023.problems(4, 23);
    let arrivals = ArrivalPattern::Poisson { rate: 0.05 }.schedule(&problems, 3);
    let sim = ServerSim::new(
        server(GpuDevice::rtx4090(), AblationFlags::fasttts()),
        N,
        SearchKind::BeamSearch,
    );
    let served = sim.run(&arrivals).expect("stream serves");
    check("server-sim-poisson", &hash_debug(&served));
}

#[test]
fn every_row_has_one_test() {
    let mut rows: Vec<&str> = ROWS
        .lines()
        .map(|line| line.split_once(' ').map_or(line, |(name, _)| name))
        .collect();
    rows.sort_unstable();
    assert_eq!(
        rows,
        [
            "serve-baseline",
            "serve-fasttts",
            "serve-fasttts-offload",
            "serve-m-p",
            "serve-no-prefix-sharing",
            "serve-p",
            "server-sim-poisson",
        ]
    );
}
