//! Scheduling-order policies for the generation and verification phases.
//!
//! The engine packs beams into KV-fitting groups *in the order a policy
//! yields them*, so ordering directly controls prefix-cache locality
//! (paper Sec. 3.2.2). The baseline policies here reproduce vLLM's
//! behaviour; FastTTS's Dynamic Prefix-Aware Scheduling implements this
//! trait in `ftts-core`.

use ftts_kv::{KvCache, NodeId};
use ftts_model::stream;
use rand::seq::SliceRandom;

/// A beam as seen by an ordering policy.
#[derive(Debug, Clone, Copy)]
pub struct OrderItem {
    /// Index into the engine's current frontier.
    pub index: usize,
    /// The beam's KV leaf.
    pub kv: NodeId,
    /// KV leaf of the beam's parent group (beams forked from the same
    /// parent share everything up to the fork).
    pub parent_kv: Option<NodeId>,
    /// Insertion order at branching time.
    pub born_rank: u32,
}

/// Clones a boxed [`OrderPolicy`]; every `Clone` policy has it.
pub trait OrderPolicyClone {
    /// A boxed copy of this policy, state included.
    fn box_clone(&self) -> Box<dyn OrderPolicy>;
}

impl<T: OrderPolicy + Clone + 'static> OrderPolicyClone for T {
    fn box_clone(&self) -> Box<dyn OrderPolicy> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn OrderPolicy> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Orders the frontier before group packing.
pub trait OrderPolicy: OrderPolicyClone + std::fmt::Debug + Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Return the indices of `items` in scheduling order.
    fn order(&mut self, items: &[OrderItem], kv: &KvCache) -> Vec<usize>;
}

/// Insertion-order scheduling: beams are processed in the order branching
/// created them. Because selection interleaves subtrees, siblings end up
/// scattered — the "similar beams not grouped together" effect of
/// Fig. 5 (right).
#[derive(Debug, Clone, Default)]
pub struct FifoOrder;

impl OrderPolicy for FifoOrder {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn order(&mut self, items: &[OrderItem], _kv: &KvCache) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        idx.sort_by_key(|&i| items[i].born_rank);
        idx
    }
}

/// Uniformly random scheduling order (the paper's "Random" baseline in
/// Fig. 18 left). Deterministic per `(seed, call index)`.
#[derive(Debug, Clone)]
pub struct RandomOrder {
    seed: u64,
    calls: u64,
}

impl RandomOrder {
    /// Create a random-order policy with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, calls: 0 }
    }
}

impl OrderPolicy for RandomOrder {
    fn name(&self) -> &'static str {
        "random"
    }

    fn order(&mut self, items: &[OrderItem], _kv: &KvCache) -> Vec<usize> {
        let mut rng = stream(&[self.seed, 0x08DE, self.calls]);
        self.calls += 1;
        let mut idx: Vec<usize> = (0..items.len()).collect();
        idx.shuffle(&mut rng);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftts_kv::KvCacheConfig;

    fn setup() -> (KvCache, Vec<OrderItem>) {
        let mut kv = KvCache::new(KvCacheConfig {
            capacity_bytes: 1 << 20,
            bytes_per_token: 4,
            prefix_sharing: true,
        });
        let root = kv.root(32).unwrap();
        let items: Vec<OrderItem> = (0..6)
            .map(|i| OrderItem {
                index: i,
                kv: kv.fork(root).unwrap(),
                parent_kv: Some(root),
                born_rank: (5 - i) as u32, // reversed insertion order
            })
            .collect();
        (kv, items)
    }

    #[test]
    fn fifo_respects_born_rank() {
        let (kv, items) = setup();
        let mut policy = FifoOrder;
        let order = policy.order(&items, &kv);
        assert_eq!(order, vec![5, 4, 3, 2, 1, 0]);
        assert_eq!(policy.name(), "fifo");
    }

    #[test]
    fn random_is_a_permutation_and_deterministic() {
        let (kv, items) = setup();
        let mut p1 = RandomOrder::new(9);
        let mut p2 = RandomOrder::new(9);
        let o1 = p1.order(&items, &kv);
        let o2 = p2.order(&items, &kv);
        assert_eq!(o1, o2);
        let mut sorted = o1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn random_calls_differ() {
        let (kv, items) = setup();
        let mut p = RandomOrder::new(9);
        let o1 = p.order(&items, &kv);
        let o2 = p.order(&items, &kv);
        // With 6! permutations a repeat is unlikely; the call counter
        // guarantees the streams differ.
        assert_ne!(o1, o2);
    }
}
