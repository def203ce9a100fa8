//! Figure 5 — (left) prefix-cache sharing lets far more beams fit in
//! memory; (right) naive scheduling scatters similar beams, measured as
//! the shared-prefix mass between consecutively scheduled beams.

use ftts_core::{PrefixAwareOrder, TtsServer, WorstCaseOrder};
use ftts_engine::{FifoOrder, ModelPairing, OrderItem, OrderPolicy, RandomOrder};
use ftts_hw::GpuDevice;
use ftts_kv::{KvCache, KvCacheConfig};
use ftts_metrics::Table;
use ftts_search::SearchKind;
use ftts_workload::Dataset;

/// Build a beam-search-shaped frontier: `width` parents, each with
/// `branch` children, on a shared prompt.
fn frontier(kv: &mut KvCache, width: usize, branch: usize) -> Vec<OrderItem> {
    let root = kv.root(128).expect("root");
    kv.pin(root).expect("pin");
    let mut items = Vec::new();
    let mut rank = 0u32;
    let mut parents = Vec::new();
    for _ in 0..width {
        let p = kv.fork(root).expect("fork");
        kv.pin(p).expect("pin");
        kv.extend(p, 200).expect("extend");
        parents.push(p);
    }
    // Interleave children across parents, like score-ranked branching.
    for j in 0..branch {
        for &p in &parents {
            let c = kv.fork(p).expect("fork");
            items.push(OrderItem {
                index: items.len(),
                kv: c,
                parent_kv: Some(p),
                born_rank: rank,
            });
            rank += 1;
            let _ = j;
        }
    }
    items
}

fn main() {
    // Left: beams representable in a fixed KV budget, with and without
    // prefix caching, measured from real engine runs.
    let mut t = Table::new(vec![
        "iteration-avg",
        "physical KV tokens",
        "logical tokens",
        "sharing factor",
    ]);
    for sharing in [true, false] {
        let mut server =
            TtsServer::vllm_baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        server.config_mut().prefix_sharing = sharing;
        let problem = Dataset::Aime2024.problems(1, 9)[0];
        let out = server
            .serve(&problem, 64, SearchKind::BeamSearch)
            .expect("serve");
        // Peak block usage approximates "beams in memory".
        let peak_tokens = out.stats.gen_cache.allocated_blocks * 16;
        let logical = out.stats.decoded_tokens + 128;
        t.row(vec![
            if sharing {
                "w/ prefix-cache".into()
            } else {
                "w/o prefix-cache".into()
            },
            peak_tokens.to_string(),
            logical.to_string(),
            format!("{:.2}", logical as f64 / peak_tokens.max(1) as f64),
        ]);
    }
    t.print("Fig. 5 (left) — memory cost with and without prefix-cache sharing");
    println!("paper: with prefix caching the same memory holds many times more beams");

    // Right: prefix-sharing locality of the scheduled order.
    let mut kv = KvCache::new(KvCacheConfig {
        capacity_bytes: 1 << 30,
        bytes_per_token: 64,
        prefix_sharing: true,
    });
    let items = frontier(&mut kv, 16, 8);
    let mut t = Table::new(vec![
        "policy",
        "adjacent shared-prefix tokens (total)",
        "vs random",
    ]);
    let mut policies: Vec<Box<dyn OrderPolicy>> = vec![
        Box::new(RandomOrder::new(3)),
        Box::new(FifoOrder),
        Box::new(PrefixAwareOrder::new()),
        Box::new(WorstCaseOrder::new()),
    ];
    let mut random_score = 0;
    for policy in policies.iter_mut() {
        let order = policy.order(&items, &kv);
        let score = PrefixAwareOrder::score(&order, &items, &kv);
        if policy.name() == "random" {
            random_score = score.max(1);
        }
        t.row(vec![
            policy.name().to_string(),
            score.to_string(),
            format!("{:.2}x", score as f64 / random_score as f64),
        ]);
    }
    t.print("Fig. 5 (right) — shared-prefix locality by scheduling policy");
    println!("paper: naive scheduling does not group similar beams together;");
    println!("       prefix-aware ordering maximizes adjacent sharing");
}
