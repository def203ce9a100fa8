//! Scheduling-policy and preemption semantics across the stack.

use fasttts::engine::{OrderItem, OrderPolicy, RandomOrder};
use fasttts::kv::{KvCache, KvCacheConfig};
use fasttts::{
    ArrivalPattern, Dataset, GpuDevice, ModelPairing, PrefixAwareOrder, SearchKind, ServerSim,
    TtsServer, WorstCaseOrder,
};
use proptest::prelude::*;

/// Random beam-search-like frontiers for order-policy properties.
fn random_frontier(parents: usize, children: usize, prompt: u64) -> (KvCache, Vec<OrderItem>) {
    let mut kv = KvCache::new(KvCacheConfig {
        capacity_bytes: 1 << 30,
        bytes_per_token: 64,
        prefix_sharing: true,
    });
    let root = kv.root(prompt).unwrap();
    kv.pin(root).unwrap();
    let mut items = Vec::new();
    let mut rank = 0u32;
    for i in 0..parents {
        let p = kv.fork(root).unwrap();
        kv.pin(p).unwrap();
        kv.extend(p, 50 + (i as u64 * 37) % 400).unwrap();
        for _ in 0..children {
            let c = kv.fork(p).unwrap();
            items.push(OrderItem {
                index: items.len(),
                kv: c,
                parent_kv: Some(p),
                born_rank: rank,
            });
            rank += 1;
        }
    }
    (kv, items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Appendix A.2's local-optimality claim, verified by pairwise
    /// interchange: no single swap improves the greedy schedule's
    /// shared-prefix score.
    #[test]
    fn greedy_schedule_is_swap_optimal(
        parents in 2usize..6,
        children in 1usize..4,
        prompt in 32u64..256,
    ) {
        let (kv, items) = random_frontier(parents, children, prompt);
        let order = PrefixAwareOrder::new().order(&items, &kv);
        let score = PrefixAwareOrder::score(&order, &items, &kv);
        for i in 0..order.len() {
            for j in i + 1..order.len() {
                let mut swapped = order.clone();
                swapped.swap(i, j);
                let s = PrefixAwareOrder::score(&swapped, &items, &kv);
                prop_assert!(
                    s <= score,
                    "swap ({i},{j}) improved {score} -> {s}"
                );
            }
        }
    }

    /// The greedy schedule dominates random and worst-case orderings on
    /// the surrogate objective.
    #[test]
    fn greedy_dominates_alternatives(
        parents in 2usize..8,
        children in 1usize..5,
        seed in 0u64..50,
    ) {
        let (kv, items) = random_frontier(parents, children, 64);
        let aware = PrefixAwareOrder::new().order(&items, &kv);
        let rand = RandomOrder::new(seed).order(&items, &kv);
        let worst = WorstCaseOrder::new().order(&items, &kv);
        let s_aware = PrefixAwareOrder::score(&aware, &items, &kv);
        prop_assert!(s_aware >= PrefixAwareOrder::score(&rand, &items, &kv));
        prop_assert!(s_aware >= PrefixAwareOrder::score(&worst, &items, &kv));
    }
}

#[test]
fn queued_requests_preempt_speculation() {
    let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    let sim = ServerSim::new(server, 8, SearchKind::BeamSearch);
    let problems = Dataset::Amc2023.problems(3, 13);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let served = sim.run(&arrivals).unwrap();
    // While requests queue behind, Phase 2 never engages.
    assert_eq!(served[0].outcome.stats.spec.spec_tokens, 0);
    assert_eq!(served[1].outcome.stats.spec.spec_tokens, 0);
    // The final request has an empty queue: speculation resumes.
    assert!(served[2].outcome.stats.spec.spec_tokens > 0);
    // FIFO with queueing delays.
    assert!(served[2].queue_delay() > served[1].queue_delay() - 1e-9);
}

#[test]
fn widely_spaced_arrivals_all_speculate() {
    let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    let sim = ServerSim::new(server, 8, SearchKind::BeamSearch);
    let problems = Dataset::Amc2023.problems(3, 13);
    let arrivals = ArrivalPattern::Interactive.schedule(&problems, 0);
    let served = sim.run(&arrivals).unwrap();
    for r in &served {
        assert!(
            r.outcome.stats.spec.spec_tokens > 0,
            "idle system should speculate"
        );
        assert!(r.queue_delay() < 1e-9);
    }
}
