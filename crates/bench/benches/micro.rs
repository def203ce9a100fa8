//! Criterion micro-benchmarks for the hot runtime components:
//! * the roofline allocation search (the paper claims < 1 ms);
//! * prefix-aware ordering of large frontiers;
//! * KV-cache fork/pin/extend mechanics;
//! * engine decode-segment stepping.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ftts_core::{PrefixAwareOrder, RooflinePlanner};
use ftts_engine::{EngineConfig, MemoryPlanner, ModelPairing, OrderItem, OrderPolicy, PlanContext};
use ftts_hw::{GpuDevice, ModelSpec, Roofline, GB};
use ftts_kv::{KvCache, KvCacheConfig};

fn alloc_search(c: &mut Criterion) {
    let cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_7b());
    let ctx = PlanContext {
        kv_budget_bytes: 8 * GB,
        n_beams: 512,
        avg_ctx: 1024,
        step_tokens: 200,
        ver_seq: 1224,
        tree_tokens: 512 * 320 + 1024,
        ver_caching: true,
    };
    c.bench_function("alloc_search_n512", |b| {
        let mut planner = RooflinePlanner::new();
        b.iter(|| planner.plan(&cfg, &ctx));
    });
}

fn frontier(kv: &mut KvCache, parents: usize, children: usize) -> Vec<OrderItem> {
    let root = kv.root(128).expect("root");
    kv.pin(root).expect("pin");
    let mut items = Vec::new();
    let mut rank = 0;
    for _ in 0..parents {
        let p = kv.fork(root).expect("fork");
        kv.pin(p).expect("pin");
        kv.extend(p, 400).expect("extend");
        for _ in 0..children {
            let leaf = kv.fork(p).expect("fork child");
            items.push(OrderItem {
                index: items.len(),
                kv: leaf,
                parent_kv: Some(p),
                born_rank: rank,
            });
            rank += 1;
        }
    }
    items
}

fn prefix_ordering(c: &mut Criterion) {
    let mut kv = KvCache::new(KvCacheConfig {
        capacity_bytes: 8 * GB,
        bytes_per_token: 64,
        prefix_sharing: true,
    });
    let items = frontier(&mut kv, 128, 4);
    c.bench_function("prefix_aware_order_512", |b| {
        let mut policy = PrefixAwareOrder::new();
        b.iter(|| policy.order(&items, &kv));
    });
}

fn kv_mechanics(c: &mut Criterion) {
    c.bench_function("kv_fork_pin_extend_evict", |b| {
        b.iter_batched(
            || {
                let mut kv = KvCache::new(KvCacheConfig {
                    capacity_bytes: 1 << 22,
                    bytes_per_token: 64,
                    prefix_sharing: true,
                });
                let root = kv.root(256).expect("root");
                (kv, root)
            },
            |(mut kv, root)| {
                for _ in 0..64 {
                    let leaf = kv.fork(root).expect("fork");
                    if kv.pin(leaf).is_ok() {
                        let _ = kv.extend(leaf, 200);
                        kv.unpin(leaf);
                    }
                }
                kv.gpu_blocks_used()
            },
            BatchSize::SmallInput,
        );
    });
}

fn decode_segments(c: &mut Criterion) {
    let roof = Roofline::new(GpuDevice::rtx4090(), ModelSpec::qwen25_math_1_5b());
    c.bench_function("roofline_decode_step", |b| {
        b.iter(|| roof.decode_step(criterion::black_box(256), criterion::black_box(1024)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = alloc_search, prefix_ordering, kv_mechanics, decode_segments
}
criterion_main!(benches);
