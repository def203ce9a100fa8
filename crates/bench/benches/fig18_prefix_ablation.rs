//! Figure 18 — (left) KV-cache footprint growth by scheduling policy;
//! (right) goodput gains of P and M+P under varying KV-memory budgets.

use ftts_bench::{problems_for, run_set, server_with};
use ftts_core::{AblationFlags, PrefixAwareOrder, WorstCaseOrder};
use ftts_engine::{ModelPairing, OrderItem, OrderPolicy, RandomOrder};
use ftts_hw::{GpuDevice, GIB};
use ftts_kv::{KvCache, KvCacheConfig};
use ftts_metrics::Table;
use ftts_search::SearchKind;
use ftts_workload::Dataset;

/// Replay a final-iteration frontier trace (1.5B+1.5B shape: 128 parents
/// × 4 children on deep shared paths) through a cache, admitting beams in
/// policy order, and record the KV footprint growth.
fn kv_growth(policy: &mut dyn OrderPolicy) -> Vec<(usize, f64)> {
    // Capacity large enough to hold the whole trace: the measurement is
    // footprint *growth* per admitted beam, not eviction behaviour.
    let mut kv = KvCache::new(KvCacheConfig {
        capacity_bytes: 16 * GIB,
        bytes_per_token: ModelPairing::pair_1_5b_1_5b().gen_spec.kv_bytes_per_token(),
        prefix_sharing: true,
    });
    let root = kv.root(140).expect("root");
    kv.pin(root).expect("pin root");
    let mut items = Vec::new();
    let mut parents = Vec::new();
    for _ in 0..128 {
        let p = kv.fork(root).expect("fork");
        kv.pin(p).expect("pin");
        kv.extend(p, 1200).expect("extend");
        parents.push(p);
    }
    let mut rank = 0u32;
    for j in 0..4 {
        for &p in &parents {
            let c = kv.fork(p).expect("fork child");
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
    // Unpin the construction pins, then start the admission from a cold
    // GPU cache: the footprint then grows exactly with what each policy
    // order *needs*, which is the quantity Fig. 18 plots.
    for &p in &parents {
        kv.unpin(p);
    }
    kv.unpin(root);
    kv.swap_out_unpinned();
    let order = policy.order(&items, &kv);
    let mut series = Vec::new();
    for (i, &idx) in order.iter().enumerate() {
        let leaf = items[idx].kv;
        if kv.pin(leaf).is_ok() {
            let _ = kv.extend(leaf, 64);
        }
        if (i + 1) % 64 == 0 {
            series.push((i + 1, kv.gpu_bytes_used() as f64 / GIB as f64));
        }
    }
    series
}

fn main() {
    // Left: KV growth by scheduling order.
    let mut t = Table::new(vec![
        "beams admitted",
        "prefix-aware (GB)",
        "random (GB)",
        "worst (GB)",
    ]);
    let aware = kv_growth(&mut PrefixAwareOrder::new());
    let random = kv_growth(&mut RandomOrder::new(5));
    let worst = kv_growth(&mut WorstCaseOrder::new());
    for i in 0..aware.len() {
        t.row(vec![
            aware[i].0.to_string(),
            format!("{:.2}", aware[i].1),
            format!("{:.2}", random[i].1),
            format!("{:.2}", worst[i].1),
        ]);
    }
    t.print("Fig. 18 (left) — KV footprint growth by scheduling order (final-iteration trace)");
    println!("paper: prefix-aware scheduling grows the cache much more slowly, so a fixed");
    println!("       budget fits substantially larger batches");

    // Right: P and M+P gains vs available KV memory. Memory fractions
    // chosen so the post-weights KV budget lands at ~1.5 / 2 / 14 GB.
    let budgets = [(0.32f64, "1.5"), (0.345, "2"), (0.81, "14")];
    let mut t = Table::new(vec!["KV budget (GB)", "P gain (%)", "M+P gain (%)"]);
    for (frac, label) in budgets {
        let pairing = ModelPairing::pair_1_5b_1_5b();
        let n = 128;
        let problems = problems_for(Dataset::Aime2024, n, 91);
        let base = server_with(
            GpuDevice::rtx4090(),
            pairing.clone(),
            AblationFlags::baseline(),
            frac,
        );
        let p_only = server_with(
            GpuDevice::rtx4090(),
            pairing.clone(),
            AblationFlags {
                prefix_aware: true,
                ..AblationFlags::baseline()
            },
            frac,
        );
        let mp = server_with(
            GpuDevice::rtx4090(),
            pairing.clone(),
            AblationFlags {
                prefix_aware: true,
                asym_memory: true,
                ..AblationFlags::baseline()
            },
            frac,
        );
        let (bg, _, _) = run_set(&base, &problems, n, SearchKind::BeamSearch).expect("baseline");
        let (pg, _, _) = run_set(&p_only, &problems, n, SearchKind::BeamSearch).expect("P");
        let (mg, _, _) = run_set(&mp, &problems, n, SearchKind::BeamSearch).expect("M+P");
        t.row(vec![
            label.to_string(),
            format!("{:+.0}", 100.0 * (pg / bg - 1.0)),
            format!("{:+.0}", 100.0 * (mg / bg - 1.0)),
        ]);
    }
    t.print(
        "Fig. 18 (right) — P and M+P goodput gains vs KV-memory budget (1.5B+1.5B, AIME, n=128)",
    );
    println!("paper: +58% (P) and +145% (M+P) at 1.5 GB, shrinking to ~+5% at 14 GB");
}
