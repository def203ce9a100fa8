//! Property-based tests for the paged KV cache.
//!
//! These check the allocator's conservation laws and the prefix-tree
//! metric under randomized workloads — the invariants the scheduling
//! proofs in the paper's Appendix A lean on.

use ftts_kv::{KvCache, KvCacheConfig, KvError, NodeId, Residency, BLOCK_SIZE};
use proptest::prelude::*;

fn config(capacity_blocks: u64, sharing: bool) -> KvCacheConfig {
    KvCacheConfig {
        capacity_bytes: capacity_blocks * BLOCK_SIZE * 8,
        bytes_per_token: 8,
        prefix_sharing: sharing,
    }
}

/// A random workload script interpreted against the cache.
#[derive(Debug, Clone)]
enum Op {
    Root(u64),
    Fork(usize),
    ForkAt(usize, u64),
    Pin(usize),
    Unpin(usize),
    Extend(usize, u64),
    Discard(usize),
    Resize(u64),
    SwapOut,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..200).prop_map(Op::Root),
        (0usize..64).prop_map(Op::Fork),
        ((0usize..64), (0u64..64)).prop_map(|(a, b)| Op::ForkAt(a, b)),
        (0usize..64).prop_map(Op::Pin),
        (0usize..64).prop_map(Op::Unpin),
        ((0usize..64), (1u64..100)).prop_map(|(a, b)| Op::Extend(a, b)),
        (0usize..64).prop_map(Op::Discard),
        (4u64..64).prop_map(Op::Resize),
        Just(Op::SwapOut),
    ]
}

/// Drive the script, tracking which nodes we pinned so unpins are legal.
/// Returns the cache plus the largest capacity (in blocks) it ever had —
/// the bound occupancy must respect across resizes.
fn run_script(ops: &[Op], capacity_blocks: u64, sharing: bool) -> (KvCache, u64) {
    let mut kv = KvCache::new(config(capacity_blocks, sharing));
    let mut max_capacity = capacity_blocks;
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut pins: Vec<usize> = Vec::new(); // pin counts parallel to nodes
    for op in ops {
        match *op {
            Op::Root(t) => {
                nodes.push(kv.root(t).unwrap());
                pins.push(0);
            }
            Op::Fork(i) => {
                if !nodes.is_empty() {
                    let parent = nodes[i % nodes.len()];
                    nodes.push(kv.fork(parent).unwrap());
                    pins.push(0);
                }
            }
            Op::ForkAt(i, keep) => {
                if !nodes.is_empty() {
                    let parent = nodes[i % nodes.len()];
                    let keep = keep.min(kv.own_tokens(parent));
                    nodes.push(kv.fork_at(parent, keep).unwrap());
                    pins.push(0);
                }
            }
            Op::Pin(i) => {
                if !nodes.is_empty() {
                    let idx = i % nodes.len();
                    if kv.pin(nodes[idx]).is_ok() {
                        pins[idx] += 1;
                    }
                }
            }
            Op::Unpin(i) => {
                if !nodes.is_empty() {
                    let idx = i % nodes.len();
                    if pins[idx] > 0 {
                        kv.unpin(nodes[idx]);
                        pins[idx] -= 1;
                    }
                }
            }
            Op::Extend(i, t) => {
                if !nodes.is_empty() {
                    let idx = i % nodes.len();
                    match kv.extend(nodes[idx], t) {
                        Ok(())
                        | Err(KvError::ExtendNonLeaf(_))
                        | Err(KvError::NotResident(_))
                        | Err(KvError::InsufficientMemory { .. }) => {}
                    }
                }
            }
            Op::Discard(i) => {
                if !nodes.is_empty() {
                    kv.discard(nodes[i % nodes.len()]);
                }
            }
            Op::Resize(blocks) => {
                kv.set_capacity_bytes(blocks * BLOCK_SIZE * 8);
                max_capacity = max_capacity.max(blocks);
            }
            Op::SwapOut => {
                kv.swap_out_unpinned();
            }
        }
    }
    (kv, max_capacity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pool never exceeds capacity, and occupancy equals the sum the
    /// stats imply (allocated minus evicted minus swapped-out plus
    /// swapped-in is an upper bound via peak tracking).
    #[test]
    fn occupancy_never_exceeds_capacity(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let capacity = 48u64;
        let (kv, max_capacity) = run_script(&ops, capacity, true);
        prop_assert!(kv.gpu_blocks_used() <= max_capacity);
        prop_assert!(kv.peak_blocks_used() <= max_capacity);
    }

    /// Same conservation law without prefix sharing.
    #[test]
    fn occupancy_bounded_without_sharing(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let capacity = 48u64;
        let (kv, max_capacity) = run_script(&ops, capacity, false);
        prop_assert!(kv.gpu_blocks_used() <= max_capacity);
    }

    /// shared_prefix is symmetric, bounded by both lengths, and maximal
    /// on identical sequences.
    #[test]
    fn shared_prefix_is_a_valid_meet(
        prompt in 1u64..100,
        grow_a in 0u64..100,
        grow_b in 0u64..100,
    ) {
        let mut kv = KvCache::new(config(10_000, true));
        let root = kv.root(prompt).unwrap();
        let a = kv.fork(root).unwrap();
        let b = kv.fork(root).unwrap();
        kv.pin(a).unwrap();
        kv.pin(b).unwrap();
        if grow_a > 0 { kv.extend(a, grow_a).unwrap(); }
        if grow_b > 0 { kv.extend(b, grow_b).unwrap(); }
        let p = kv.shared_prefix(a, b);
        prop_assert_eq!(p, kv.shared_prefix(b, a));
        prop_assert_eq!(p, prompt);
        prop_assert!(p <= kv.seq_tokens(a));
        prop_assert!(p <= kv.seq_tokens(b));
        prop_assert_eq!(kv.shared_prefix(a, a), kv.seq_tokens(a));
    }

    /// Evicted paths always repin with exactly their own token count as
    /// recompute (sharing mode), and repinning is idempotent.
    #[test]
    fn evicted_paths_recompute_their_tokens(
        prompt in 16u64..64,
        steps in prop::collection::vec(1u64..64, 1..6),
    ) {
        // Capacity exactly matches the competitor, so pinning it evicts
        // the whole earlier path.
        let mut kv = KvCache::new(config(300, true));
        let root = kv.root(prompt).unwrap();
        let leaf = kv.fork(root).unwrap();
        kv.pin(leaf).unwrap();
        let mut own = 0;
        for &s in &steps {
            kv.extend(leaf, s).unwrap();
            own += s;
        }
        kv.unpin(leaf);
        let other = kv.root(300 * 16).unwrap();
        kv.pin(other).unwrap();
        prop_assert_eq!(kv.residency(leaf), Residency::Absent);
        kv.unpin(other);
        let cost = kv.pin(leaf).unwrap();
        prop_assert_eq!(cost.recompute_tokens, own + prompt);
        let again = kv.pin(leaf).unwrap();
        prop_assert!(again.is_hit());
    }

    /// would_fit is sound: when it says yes for a fresh root, pin+extend
    /// succeeds.
    #[test]
    fn would_fit_is_sound_for_roots(
        prompt in 1u64..400,
        extra in 0u64..400,
        capacity in 4u64..64,
    ) {
        let mut kv = KvCache::new(config(capacity, true));
        let r = kv.root(prompt).unwrap();
        if kv.would_fit(r, extra) {
            kv.pin(r).unwrap();
            kv.extend(r, extra).unwrap();
        } else {
            // Not enough even with nothing else resident: must exceed capacity.
            prop_assert!(kv.blocks_needed(r, extra) > capacity);
        }
    }

    /// Swap-out then pin restores with transfer bytes and zero recompute.
    #[test]
    fn swap_roundtrip_preserves_tokens(prompt in 1u64..500) {
        let mut kv = KvCache::new(config(1000, true));
        let r = kv.root(prompt).unwrap();
        kv.pin(r).unwrap();
        kv.unpin(r);
        let out = kv.swap_out_unpinned();
        prop_assert_eq!(kv.residency(r), Residency::Host);
        let cost = kv.pin(r).unwrap();
        prop_assert_eq!(cost.recompute_tokens, 0);
        prop_assert_eq!(cost.transfer_in_bytes, out);
        prop_assert_eq!(kv.seq_tokens(r), prompt);
    }

    /// The incremental eviction index picks the exact victim sequence of
    /// the seed's brute-force scan: replay the same randomized workload
    /// against a scan-mode oracle cache and compare eviction logs, block
    /// occupancy, stats and per-node residency after every operation.
    /// Both caches are additionally audited against a fresh scan after
    /// each step: the index, and every node's tracked membership in it
    /// (the oracle maintains both too, and removes its scan victims).
    #[test]
    fn indexed_eviction_matches_scan_oracle(
        ops in prop::collection::vec(op_strategy(), 1..120),
        capacity in 8u64..64,
        sharing in any::<bool>(),
    ) {
        let mut indexed = KvCache::new(config(capacity, sharing));
        let mut oracle = KvCache::new(config(capacity, sharing));
        oracle.set_scan_eviction(true);
        indexed.enable_eviction_log();
        oracle.enable_eviction_log();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut pins: Vec<usize> = Vec::new();
        for op in &ops {
            // Resolve the op against the shared script state once, then
            // apply the identical resolved op to both caches. Node ids
            // are arena-ordered and the op stream is identical, so both
            // caches always agree on ids.
            match *op {
                Op::Root(t) => {
                    let a = indexed.root(t).unwrap();
                    let b = oracle.root(t).unwrap();
                    prop_assert_eq!(a, b);
                    nodes.push(a);
                    pins.push(0);
                }
                Op::Fork(i) if !nodes.is_empty() => {
                    let parent = nodes[i % nodes.len()];
                    let a = indexed.fork(parent).unwrap();
                    let b = oracle.fork(parent).unwrap();
                    prop_assert_eq!(a, b);
                    nodes.push(a);
                    pins.push(0);
                }
                Op::ForkAt(i, keep) if !nodes.is_empty() => {
                    let parent = nodes[i % nodes.len()];
                    let keep = keep.min(indexed.own_tokens(parent));
                    let a = indexed.fork_at(parent, keep).unwrap();
                    let b = oracle.fork_at(parent, keep).unwrap();
                    prop_assert_eq!(a, b);
                    nodes.push(a);
                    pins.push(0);
                }
                Op::Pin(i) if !nodes.is_empty() => {
                    let idx = i % nodes.len();
                    let a = indexed.pin(nodes[idx]);
                    let b = oracle.pin(nodes[idx]);
                    prop_assert_eq!(a, b, "pin outcome diverged");
                    if a.is_ok() {
                        pins[idx] += 1;
                    }
                }
                Op::Unpin(i) if !nodes.is_empty() => {
                    let idx = i % nodes.len();
                    if pins[idx] > 0 {
                        indexed.unpin(nodes[idx]);
                        oracle.unpin(nodes[idx]);
                        pins[idx] -= 1;
                    }
                }
                Op::Extend(i, t) if !nodes.is_empty() => {
                    let idx = i % nodes.len();
                    let a = indexed.extend(nodes[idx], t);
                    let b = oracle.extend(nodes[idx], t);
                    prop_assert_eq!(a, b, "extend outcome diverged");
                }
                Op::Discard(i) if !nodes.is_empty() => {
                    let node = nodes[i % nodes.len()];
                    prop_assert_eq!(indexed.discard(node), oracle.discard(node));
                }
                Op::Resize(blocks) => {
                    indexed.set_capacity_bytes(blocks * BLOCK_SIZE * 8);
                    oracle.set_capacity_bytes(blocks * BLOCK_SIZE * 8);
                }
                Op::SwapOut => {
                    prop_assert_eq!(indexed.swap_out_unpinned(), oracle.swap_out_unpinned());
                }
                _ => {}
            }
            indexed.audit_eviction_index();
            oracle.audit_eviction_index();
            prop_assert_eq!(indexed.take_eviction_log(), oracle.take_eviction_log());
            prop_assert_eq!(indexed.gpu_blocks_used(), oracle.gpu_blocks_used());
            prop_assert_eq!(indexed.stats(), oracle.stats());
            for &node in &nodes {
                prop_assert_eq!(indexed.residency(node), oracle.residency(node));
                prop_assert_eq!(indexed.is_pinned(node), oracle.is_pinned(node));
            }
        }
    }
}
