//! Hot-path benchmarks for the PR-1 overhaul, with a machine-readable
//! `BENCH_PR1.json` report:
//!
//! 1. **Eviction under pressure** — a large prefix-tree arena cycling
//!    pin/extend/unpin under a tight block budget, timed with the
//!    incremental eviction index vs the seed's full-scan victim
//!    selection (`KvCache::set_scan_eviction`). Both runs execute the
//!    identical operation stream and must produce identical cache stats.
//! 2. **Serve-loop iteration** — end-to-end `TtsServer::serve` wall
//!    time and simulated-tokens-per-wall-second on the zero-clone loop.
//!
//! Run with `cargo bench --bench hotpath` (release profile).

use std::time::Instant;

use ftts_bench::write_report;
use ftts_core::TtsServer;
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_kv::{KvCache, KvCacheConfig, NodeId, BLOCK_SIZE};
use ftts_search::SearchKind;
use ftts_serve::Json;
use ftts_workload::Dataset;

/// Sequences in the eviction arena (each one root with a forked child).
const ARENA_SEQS: usize = 3000;
/// Pin/extend/unpin rounds over the arena.
const EVICTION_ROUNDS: usize = 3;

fn eviction_arena() -> (KvCache, Vec<NodeId>) {
    // Capacity fits a small fraction of the arena, so most pins evict.
    let mut kv = KvCache::new(KvCacheConfig {
        capacity_bytes: 512 * BLOCK_SIZE * 8,
        bytes_per_token: 8,
        prefix_sharing: true,
    });
    let mut leaves = Vec::with_capacity(ARENA_SEQS);
    for i in 0..ARENA_SEQS {
        let root = kv.root(16 + (i as u64 % 5) * 16).expect("root");
        let leaf = kv.fork(root).expect("fork");
        leaves.push(leaf);
    }
    (kv, leaves)
}

/// Drive the identical pressure workload; returns wall seconds.
fn run_eviction_workload(kv: &mut KvCache, leaves: &[NodeId]) -> f64 {
    let start = Instant::now();
    for round in 0..EVICTION_ROUNDS {
        for (i, &leaf) in leaves.iter().enumerate() {
            if kv.pin(leaf).is_ok() {
                // Vary growth so last_used ordering is non-trivial.
                let grow = 16 + ((i + round) as u64 % 3) * 16;
                let _ = kv.extend(leaf, grow);
                kv.unpin(leaf);
            }
        }
    }
    start.elapsed().as_secs_f64()
}

struct EvictionResult {
    indexed_s: f64,
    scan_s: f64,
    evictions: u64,
}

fn bench_eviction() -> EvictionResult {
    // Warm-up pass keeps allocator noise out of the comparison.
    let (mut warm, warm_leaves) = eviction_arena();
    run_eviction_workload(&mut warm, &warm_leaves);

    let (mut indexed, leaves) = eviction_arena();
    let indexed_s = run_eviction_workload(&mut indexed, &leaves);

    let (mut scan, scan_leaves) = eviction_arena();
    scan.set_scan_eviction(true);
    let scan_s = run_eviction_workload(&mut scan, &scan_leaves);

    assert_eq!(
        indexed.stats(),
        scan.stats(),
        "eviction paths must behave identically"
    );
    assert_eq!(indexed.gpu_blocks_used(), scan.gpu_blocks_used());
    EvictionResult {
        indexed_s,
        scan_s,
        evictions: indexed.stats().evicted_blocks,
    }
}

struct ServeResult {
    wall_s: f64,
    sim_tokens: u64,
    iterations: u32,
}

fn bench_serve_loop() -> ServeResult {
    let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    let problems = Dataset::Aime2024.problems(4, 17);
    // Warm-up.
    server
        .serve(&problems[0], 32, SearchKind::BeamSearch)
        .expect("serve");
    let start = Instant::now();
    let mut sim_tokens = 0u64;
    let mut iterations = 0u32;
    for p in &problems {
        let out = server.serve(p, 64, SearchKind::BeamSearch).expect("serve");
        sim_tokens += out.stats.decoded_tokens + out.stats.verified_tokens;
        iterations += out.stats.iterations;
    }
    ServeResult {
        wall_s: start.elapsed().as_secs_f64(),
        sim_tokens,
        iterations,
    }
}

fn main() {
    println!("== hotpath: eviction under pressure ==");
    let ev = bench_eviction();
    let ev_speedup = ev.scan_s / ev.indexed_s.max(1e-12);
    println!(
        "arena {ARENA_SEQS} seqs x {EVICTION_ROUNDS} rounds, {} blocks evicted",
        ev.evictions
    );
    println!("  seed full-scan path : {:>9.2} ms", ev.scan_s * 1e3);
    println!("  incremental index   : {:>9.2} ms", ev.indexed_s * 1e3);
    println!("  speedup             : {ev_speedup:>9.2}x");

    println!("\n== hotpath: serve-loop iteration ==");
    let serve = bench_serve_loop();
    let tok_rate = serve.sim_tokens as f64 / serve.wall_s.max(1e-12);
    println!(
        "4 AIME problems, n=64 beam search: {:.1} ms wall, {} sim tokens, {} iterations",
        serve.wall_s * 1e3,
        serve.sim_tokens,
        serve.iterations
    );
    println!("  simulated tokens per wall-second: {tok_rate:.0}");

    let eviction = Json::object([
        ("arena_sequences", ARENA_SEQS.into()),
        ("rounds", EVICTION_ROUNDS.into()),
        ("evicted_blocks", ev.evictions.into()),
        ("seed_scan_seconds", ev.scan_s.into()),
        ("indexed_seconds", ev.indexed_s.into()),
        ("speedup_vs_seed", ev_speedup.into()),
    ]);
    let serve_loop = Json::object([
        ("problems", 4u32.into()),
        ("n", 64u32.into()),
        ("wall_seconds", serve.wall_s.into()),
        ("sim_tokens", serve.sim_tokens.into()),
        ("iterations", serve.iterations.into()),
        ("sim_tokens_per_wall_second", tok_rate.into()),
    ]);
    let report = Json::object([
        ("bench", "hotpath_pr1".into()),
        ("eviction", eviction),
        ("serve_loop", serve_loop),
    ]);
    write_report("BENCH_PR1.json", &report);
}
