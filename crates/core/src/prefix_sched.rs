//! Dynamic Prefix-Aware Scheduling (paper Sec. 4.2).
//!
//! At each iteration the scheduler receives the active reasoning paths
//! and must order them before the engine packs memory-fitting groups.
//! Modelling eviction cost as `Σ (Nodes(T_i) − P(T_i, T_{i+1}))`, and
//! with total work constant, minimizing evictions is maximizing the sum
//! of consecutive shared prefixes. The greedy invariant
//!
//! ```text
//! T_{k+1} = argmax_{c_i ∈ Q} P(c_k, c_i)
//! ```
//!
//! is locally optimal under the paper's Appendix-A assumptions, which we
//! verify with a pairwise-interchange property test. In practice (as the
//! paper notes, Sec. 5) the greedy is implemented by grouping beams that
//! share a parent while preserving the parents' relative order; the
//! general `argmax` form below subsumes that and also handles
//! mid-parent forks created by speculative truncation.

use ftts_engine::{OrderItem, OrderPolicy};
use ftts_kv::KvCache;

/// Greedy maximum-shared-prefix ordering (the paper's Dynamic
/// Prefix-Aware Scheduling).
#[derive(Debug, Clone, Default)]
pub struct PrefixAwareOrder;

impl PrefixAwareOrder {
    /// Create the policy.
    pub fn new() -> Self {
        Self
    }

    /// Sum of consecutive shared prefixes of an ordering — the surrogate
    /// objective `Score(S)` from Appendix A.2 (exposed for tests and the
    /// Fig. 18 ablation).
    pub fn score(order: &[usize], items: &[OrderItem], kv: &KvCache) -> u64 {
        order
            .windows(2)
            .map(|w| kv.shared_prefix(items[w[0]].kv, items[w[1]].kv))
            .sum()
    }
}

impl OrderPolicy for PrefixAwareOrder {
    fn name(&self) -> &'static str {
        "prefix-aware"
    }

    fn order(&mut self, items: &[OrderItem], kv: &KvCache) -> Vec<usize> {
        if items.is_empty() {
            return Vec::new();
        }
        let n = items.len();
        let mut remaining: Vec<usize> = (0..n).collect();
        // Start from the earliest-born beam (stable across iterations,
        // preserving parents' relative order as in the paper's
        // implementation note).
        let first_pos = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| items[i].born_rank)
            .map(|(pos, _)| pos)
            .unwrap();
        let mut order = Vec::with_capacity(n);
        order.push(remaining.swap_remove(first_pos));
        while !remaining.is_empty() {
            let last = *order.last().unwrap();
            let best_pos = remaining
                .iter()
                .enumerate()
                .max_by_key(|&(_, &i)| {
                    (
                        kv.shared_prefix(items[last].kv, items[i].kv),
                        std::cmp::Reverse(items[i].born_rank),
                    )
                })
                .map(|(pos, _)| pos)
                .unwrap();
            order.push(remaining.swap_remove(best_pos));
        }
        order
    }
}

/// Adversarial ordering: each step picks the candidate sharing the
/// *least* prefix with the previous one (the "Worst-Case" baseline of
/// Fig. 18 left).
#[derive(Debug, Clone, Default)]
pub struct WorstCaseOrder;

impl WorstCaseOrder {
    /// Create the policy.
    pub fn new() -> Self {
        Self
    }
}

impl OrderPolicy for WorstCaseOrder {
    fn name(&self) -> &'static str {
        "worst-case"
    }

    fn order(&mut self, items: &[OrderItem], kv: &KvCache) -> Vec<usize> {
        if items.is_empty() {
            return Vec::new();
        }
        let n = items.len();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut order = Vec::with_capacity(n);
        order.push(remaining.swap_remove(0));
        while !remaining.is_empty() {
            let last = *order.last().unwrap();
            let worst_pos = remaining
                .iter()
                .enumerate()
                .min_by_key(|&(_, &i)| {
                    (
                        kv.shared_prefix(items[last].kv, items[i].kv),
                        items[i].born_rank,
                    )
                })
                .map(|(pos, _)| pos)
                .unwrap();
            order.push(remaining.swap_remove(worst_pos));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftts_engine::FifoOrder;
    use ftts_kv::{KvCacheConfig, NodeId};

    /// Two parents with interleaved children (the Fig. 8 example shape).
    fn interleaved() -> (KvCache, Vec<OrderItem>) {
        let mut kv = KvCache::new(KvCacheConfig {
            capacity_bytes: 1 << 22,
            bytes_per_token: 4,
            prefix_sharing: true,
        });
        let root = kv.root(64).unwrap();
        let pa = kv.fork(root).unwrap();
        let pb = kv.fork(root).unwrap();
        kv.pin(pa).unwrap();
        kv.pin(pb).unwrap();
        kv.extend(pa, 100).unwrap();
        kv.extend(pb, 100).unwrap();
        let mut items = Vec::new();
        // Interleave children of pa and pb, as naive branching would.
        for i in 0..6u32 {
            let parent = if i % 2 == 0 { pa } else { pb };
            let leaf = kv.fork(parent).unwrap();
            items.push(OrderItem {
                index: i as usize,
                kv: leaf,
                parent_kv: Some(parent),
                born_rank: i,
            });
        }
        (kv, items)
    }

    fn leaves(items: &[OrderItem]) -> Vec<NodeId> {
        items.iter().map(|i| i.kv).collect()
    }

    #[test]
    fn prefix_aware_groups_siblings() {
        let (kv, items) = interleaved();
        let mut policy = PrefixAwareOrder::new();
        let order = policy.order(&items, &kv);
        // After the first element, consecutive pairs must share the full
        // parent path (164 tokens) until the policy switches subtree once.
        let shared: Vec<u64> = order
            .windows(2)
            .map(|w| kv.shared_prefix(items[w[0]].kv, items[w[1]].kv))
            .collect();
        let switches = shared.iter().filter(|&&s| s == 64).count();
        assert_eq!(switches, 1, "exactly one subtree switch, got {shared:?}");
        let _ = leaves(&items);
    }

    #[test]
    fn prefix_aware_beats_fifo_and_worst_case_on_the_surrogate() {
        let (kv, items) = interleaved();
        let aware = PrefixAwareOrder::new().order(&items, &kv);
        let fifo = FifoOrder.order(&items, &kv);
        let worst = WorstCaseOrder::new().order(&items, &kv);
        let s_aware = PrefixAwareOrder::score(&aware, &items, &kv);
        let s_fifo = PrefixAwareOrder::score(&fifo, &items, &kv);
        let s_worst = PrefixAwareOrder::score(&worst, &items, &kv);
        assert!(s_aware > s_fifo, "aware {s_aware} vs fifo {s_fifo}");
        assert!(s_fifo >= s_worst, "fifo {s_fifo} vs worst {s_worst}");
    }

    #[test]
    fn orders_are_permutations() {
        let (kv, items) = interleaved();
        for policy in [
            &mut PrefixAwareOrder::new() as &mut dyn OrderPolicy,
            &mut WorstCaseOrder::new(),
        ] {
            let mut order = policy.order(&items, &kv);
            order.sort_unstable();
            assert_eq!(
                order,
                (0..items.len()).collect::<Vec<_>>(),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let (kv, items) = interleaved();
        let mut policy = PrefixAwareOrder::new();
        assert!(policy.order(&[], &kv).is_empty());
        assert_eq!(policy.order(&items[..1], &kv), vec![0]);
    }

    #[test]
    fn greedy_satisfies_the_paper_invariant() {
        // T_{k+1} maximizes P(c_k, ·) over the remaining queue.
        let (kv, items) = interleaved();
        let order = PrefixAwareOrder::new().order(&items, &kv);
        for k in 0..order.len() - 1 {
            let chosen = kv.shared_prefix(items[order[k]].kv, items[order[k + 1]].kv);
            for &other in &order[k + 1..] {
                let alt = kv.shared_prefix(items[order[k]].kv, items[other].kv);
                assert!(chosen >= alt, "greedy invariant violated at position {k}");
            }
        }
    }
}
