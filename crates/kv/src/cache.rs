//! The KV-cache facade: residency, pinning, eviction and offload.
//!
//! # Eviction index
//!
//! Victim selection is LRU over *evictable* nodes — GPU-resident,
//! unpinned, with no GPU-resident children (leaf-first, so shared
//! prefixes outlive their sharers). The seed implementation rescanned
//! and re-sorted the whole node arena on every allocation miss
//! (`O(N log N)` per miss, quadratic over a run); the cache now
//! maintains the candidate set incrementally in a
//! `BTreeSet<(last_used, NodeId)>` updated at every residency / pin /
//! child-count transition, so each eviction costs `O(log N)` amortized.
//!
//! **Victim order is bit-identical to the seed scan.** The seed
//! algorithm snapshots the candidate list once per epoch (one pass of
//! its retry loop), evicts in `(last_used, NodeId)` order, and only
//! considers parents exposed by those evictions in the *next* epoch.
//! [`KvCache::alloc_with_eviction`] reproduces exactly that without
//! copying anything: victims are drained from the index with
//! `pop_first`, and candidates exposed mid-epoch (parents of evicted
//! leaves) are parked in a pending buffer that merges back at the epoch
//! boundary. The equivalence is enforced two ways: `debug_assert!`s
//! compare the index against a brute-force scan at every epoch, and
//! `tests/properties.rs` replays randomized workloads against a cache
//! pinned to the seed scan path ([`KvCache::set_scan_eviction`])
//! comparing full eviction logs.
//!
//! **Membership is tracked per node.** Most transitions do not change
//! candidacy: a pin or unpin crosses zero on every node of a path, but
//! an interior node has GPU-resident children and is never a
//! candidate. Each node therefore carries an `indexed` flag, true
//! exactly while its key is in the index: set where a key is inserted
//! (directly, or when a parked candidate merges at the epoch boundary)
//! and cleared where one leaves (a removal, `pop_first`, or the
//! wholesale clear of a swap-out or device loss). The index itself is
//! touched only when that flag flips. [`KvCache::audit_eviction_index`]
//! checks every flag against the index.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::pool::BlockPool;
use crate::stats::CacheStats;
use crate::tree::{PrefixTree, Residency};
use crate::{NodeId, BLOCK_SIZE};

/// Configuration of a [`KvCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvCacheConfig {
    /// GPU memory budget for this cache, in bytes.
    pub capacity_bytes: u64,
    /// KV bytes written per token (from `ModelSpec::kv_bytes_per_token`).
    pub bytes_per_token: u64,
    /// Whether forks share ancestor blocks (prefix caching). Disable to
    /// model the "w/o prefix cache" baseline of Fig. 5.
    pub prefix_sharing: bool,
}

impl KvCacheConfig {
    /// Bytes per block of [`BLOCK_SIZE`] tokens.
    pub fn block_bytes(&self) -> u64 {
        BLOCK_SIZE * self.bytes_per_token
    }

    /// Capacity expressed in whole blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_bytes / self.block_bytes().max(1)
    }
}

/// Errors returned by cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The pool cannot satisfy an allocation even after evicting
    /// everything evictable. Carries (blocks needed, blocks obtainable).
    InsufficientMemory {
        /// Blocks the operation required.
        needed: u64,
        /// Blocks free plus evictable at the time of failure.
        obtainable: u64,
    },
    /// `extend` called on a node that already has children.
    ExtendNonLeaf(NodeId),
    /// Operation requires the node to be pinned and GPU-resident.
    NotResident(NodeId),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::InsufficientMemory { needed, obtainable } => {
                write!(
                    f,
                    "insufficient KV memory: need {needed} blocks, obtainable {obtainable}"
                )
            }
            KvError::ExtendNonLeaf(id) => write!(f, "cannot extend non-leaf node {id}"),
            KvError::NotResident(id) => write!(f, "node {id} is not pinned and resident"),
        }
    }
}

impl std::error::Error for KvError {}

/// Cost incurred by making a pinned path resident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinCost {
    /// Tokens that must be recomputed (re-prefilled) because their blocks
    /// were evicted.
    pub recompute_tokens: u64,
    /// Bytes that must be transferred back from host memory (offload).
    pub transfer_in_bytes: u64,
    /// Fresh blocks allocated (including copy-on-write boundary copies).
    pub allocated_blocks: u64,
}

impl PinCost {
    /// Whether the pin was free (everything already resident).
    pub fn is_hit(&self) -> bool {
        self.recompute_tokens == 0 && self.transfer_in_bytes == 0
    }

    /// Accumulate another cost into this one.
    pub fn merge(&mut self, other: PinCost) {
        self.recompute_tokens += other.recompute_tokens;
        self.transfer_in_bytes += other.transfer_in_bytes;
        self.allocated_blocks += other.allocated_blocks;
    }
}

/// A paged, prefix-shared KV cache with LRU eviction and host offload.
///
/// See the crate-level documentation for the model; the engine drives it
/// through five verbs: [`root`](KvCache::root) / [`fork`](KvCache::fork)
/// create sequences, [`pin`](KvCache::pin) makes a path resident (paying
/// recompute/transfer costs), [`extend`](KvCache::extend) appends decoded
/// tokens, and [`unpin`](KvCache::unpin) returns the path to evictable
/// cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KvCache {
    config: KvCacheConfig,
    tree: PrefixTree,
    pool: BlockPool,
    stats: CacheStats,
    /// Incrementally maintained eviction candidates, keyed by
    /// `(last_used, NodeId)` — exactly the seed scan's sort key.
    evictable: BTreeSet<(u64, NodeId)>,
    /// Running sum of `owned_blocks` over GPU-resident unpinned nodes
    /// (the seed's `evictable_blocks()` scan, maintained incrementally).
    unpinned_gpu_blocks: u64,
    /// Route allocations through the seed's full-scan victim selection
    /// instead of the index (equivalence-oracle mode; see module docs).
    scan_eviction: bool,
    /// When present, every evicted node id is appended here in order.
    eviction_log: Option<Vec<NodeId>>,
    /// True while an eviction epoch is draining the index: candidates
    /// exposed mid-epoch (parents of evicted leaves) are parked in
    /// `pending_candidates` so they only become eligible next epoch —
    /// exactly the seed scan's snapshot semantics, without copying the
    /// candidate set.
    epoch_active: bool,
    /// Candidates exposed during the current epoch, merged into
    /// `evictable` when the epoch ends.
    pending_candidates: Vec<(u64, NodeId)>,
    /// The residency path of the pin in progress, root first; kept
    /// (empty) between pins so that a pin allocates nothing.
    path: Vec<NodeId>,
}

impl KvCache {
    /// Create an empty cache.
    pub fn new(config: KvCacheConfig) -> Self {
        let tree = PrefixTree::new(config.prefix_sharing);
        let pool = BlockPool::new(config.capacity_blocks());
        Self {
            config,
            tree,
            pool,
            stats: CacheStats::default(),
            evictable: BTreeSet::new(),
            unpinned_gpu_blocks: 0,
            scan_eviction: false,
            eviction_log: None,
            epoch_active: false,
            pending_candidates: Vec::new(),
            path: Vec::new(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &KvCacheConfig {
        &self.config
    }

    /// Cumulative event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Blocks currently resident on the GPU.
    pub fn gpu_blocks_used(&self) -> u64 {
        self.pool.used()
    }

    /// Bytes currently resident on the GPU.
    pub fn gpu_bytes_used(&self) -> u64 {
        self.pool.used() * self.config.block_bytes()
    }

    /// Peak GPU blocks ever resident.
    pub fn peak_blocks_used(&self) -> u64 {
        self.pool.peak_used()
    }

    /// Repartition this cache's capacity at run time (Asymmetric
    /// Multi-Model Memory Allocation adjusts budgets on state changes).
    pub fn set_capacity_bytes(&mut self, capacity_bytes: u64) {
        self.config.capacity_bytes = capacity_bytes;
        self.pool.resize(self.config.capacity_blocks());
    }

    /// Create a new independent sequence (a prompt) of `tokens` tokens.
    /// The node starts absent; `pin` it before use.
    ///
    /// # Errors
    ///
    /// Never fails today, but returns `Result` for interface stability
    /// with `fork`.
    pub fn root(&mut self, tokens: u64) -> Result<NodeId, KvError> {
        Ok(self.tree.add_root(tokens))
    }

    /// Fork a child continuing after all of `parent`'s tokens.
    ///
    /// # Errors
    ///
    /// Never fails today; see [`KvCache::root`].
    pub fn fork(&mut self, parent: NodeId) -> Result<NodeId, KvError> {
        let keep = self.tree.node(parent).n_tokens;
        self.fork_at(parent, keep)
    }

    /// Fork a child inheriting only the first `keep_tokens` of `parent`'s
    /// own tokens — used when a duplicate keeps a truncated speculative
    /// prefix (Alg. 1, line 19).
    ///
    /// # Errors
    ///
    /// Never fails today; see [`KvCache::root`].
    ///
    /// # Panics
    ///
    /// Panics if `keep_tokens` exceeds the parent's own token count.
    pub fn fork_at(&mut self, parent: NodeId, keep_tokens: u64) -> Result<NodeId, KvError> {
        Ok(self.tree.fork_at(parent, keep_tokens))
    }

    /// Sequence length in tokens of the path ending at `node`.
    pub fn seq_tokens(&self, node: NodeId) -> u64 {
        self.tree.seq_tokens(node)
    }

    /// Tokens owned by `node` itself (appended after its fork point).
    pub fn own_tokens(&self, node: NodeId) -> u64 {
        self.tree.node(node).n_tokens
    }

    /// Shared prefix length in tokens between two sequences (the paper's
    /// `P(c_i, c_j)`).
    pub fn shared_prefix(&self, a: NodeId, b: NodeId) -> u64 {
        self.tree.shared_prefix(a, b)
    }

    /// Current residency of a node.
    pub fn residency(&self, node: NodeId) -> Residency {
        self.tree.node(node).residency
    }

    /// Whether the node is pinned.
    pub fn is_pinned(&self, node: NodeId) -> bool {
        self.tree.node(node).pin_count > 0
    }

    /// Blocks free right now without evicting anything.
    pub fn free_blocks(&self) -> u64 {
        self.pool.free_blocks()
    }

    fn evictable_blocks(&self) -> u64 {
        self.unpinned_gpu_blocks
    }

    /// Whether `id` satisfies the eviction-candidate predicate.
    fn is_eviction_candidate(&self, id: NodeId) -> bool {
        let node = self.tree.node(id);
        node.residency == Residency::Gpu && node.pin_count == 0 && node.gpu_children == 0
    }

    /// (Re-)derive `id`'s membership in the eviction index after any
    /// state transition that may have changed the predicate, touching
    /// the index only when the node's tracked membership flips. During
    /// an eviction epoch, newly eligible candidates are parked so they
    /// only enter the index at the epoch boundary (seed snapshot
    /// semantics).
    fn reindex(&mut self, id: NodeId) {
        let candidate = self.is_eviction_candidate(id);
        let node = self.tree.node_mut(id);
        let key = (node.last_used, id);
        if candidate {
            if self.epoch_active {
                // Mid-epoch the predicate can only ever *gain* members
                // (evicting a leaf exposes its parent); removals cannot
                // occur, so parking inserts is sufficient.
                self.pending_candidates.push(key);
            } else if !node.indexed {
                node.indexed = true;
                self.evictable.insert(key);
            }
        } else if node.indexed {
            node.indexed = false;
            self.evictable.remove(&key);
        }
    }

    /// Close an eviction epoch: newly exposed candidates become eligible.
    fn end_epoch(&mut self) {
        self.epoch_active = false;
        while let Some(key) = self.pending_candidates.pop() {
            self.tree.node_mut(key.1).indexed = true;
            self.evictable.insert(key);
        }
    }

    /// Track a pin-count transition across zero for block accounting and
    /// the eviction index.
    fn on_pin_transition(&mut self, id: NodeId, now_pinned: bool) {
        if self.tree.node(id).residency == Residency::Gpu {
            let owned = self.tree.node(id).owned_blocks;
            if now_pinned {
                self.unpinned_gpu_blocks -= owned;
            } else {
                self.unpinned_gpu_blocks += owned;
            }
        }
        self.reindex(id);
    }

    /// The seed's brute-force candidate scan, kept as the equivalence
    /// oracle for the incremental index (scan mode + debug assertions).
    fn scan_evictable_sorted(&self) -> Vec<(u64, NodeId)> {
        let mut candidates: Vec<(u64, NodeId)> = self
            .tree
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| {
                node.residency == Residency::Gpu && node.pin_count == 0 && node.gpu_children == 0
            })
            .map(|(i, node)| (node.last_used, NodeId(i as u32)))
            .collect();
        candidates.sort_unstable();
        candidates
    }

    /// Evict least-recently-used unpinned subtrees until `n` blocks can
    /// be allocated, then allocate them.
    ///
    /// Epoch semantics (identical to the seed scan): each pass of the
    /// retry loop is one *epoch* that only considers candidates eligible
    /// at its start, in `(last_used, NodeId)` order; parents exposed by
    /// mid-epoch evictions are parked and become eligible next epoch.
    /// The indexed path drains victims with `pop_first` — amortized
    /// `O(log N)` per eviction, with no per-miss copy of the candidate
    /// set — while the scan-oracle path reproduces the seed's full
    /// rescan for equivalence testing.
    fn alloc_with_eviction(&mut self, n: u64) -> Result<(), KvError> {
        if self.pool.try_alloc(n) {
            self.stats.allocated_blocks += n;
            return Ok(());
        }
        if self.scan_eviction {
            return self.alloc_with_eviction_scan(n);
        }
        loop {
            debug_assert_eq!(
                self.evictable.iter().copied().collect::<Vec<_>>(),
                self.scan_evictable_sorted(),
                "eviction index diverged from brute-force scan"
            );
            if self.evictable.is_empty() {
                return Err(KvError::InsufficientMemory {
                    needed: n,
                    obtainable: self.pool.free_blocks() + self.evictable_blocks(),
                });
            }
            self.epoch_active = true;
            while let Some((_, id)) = self.evictable.pop_first() {
                self.tree.node_mut(id).indexed = false;
                debug_assert!(self.is_eviction_candidate(id), "stale index entry");
                self.evict_node(id);
                if self.pool.try_alloc(n) {
                    self.stats.allocated_blocks += n;
                    self.end_epoch();
                    return Ok(());
                }
            }
            self.end_epoch();
            // Evicting leaves may have exposed new candidates; loop.
        }
    }

    /// The seed's allocation path: rescan and re-sort the whole arena
    /// every epoch. Kept verbatim as the equivalence oracle.
    fn alloc_with_eviction_scan(&mut self, n: u64) -> Result<(), KvError> {
        loop {
            let candidates = self.scan_evictable_sorted();
            if candidates.is_empty() {
                return Err(KvError::InsufficientMemory {
                    needed: n,
                    obtainable: self.pool.free_blocks() + self.evictable_blocks(),
                });
            }
            for (_, id) in candidates {
                self.evict_node(id);
                if self.pool.try_alloc(n) {
                    self.stats.allocated_blocks += n;
                    return Ok(());
                }
            }
        }
    }

    fn evict_node(&mut self, id: NodeId) {
        let (blocks, tokens, parent, indexed_key) = {
            let node = self.tree.node_mut(id);
            debug_assert_eq!(node.residency, Residency::Gpu);
            debug_assert_eq!(node.pin_count, 0);
            debug_assert_eq!(node.gpu_children, 0);
            node.residency = Residency::Absent;
            let blocks = node.owned_blocks;
            node.owned_blocks = 0;
            // The indexed path popped the key already; the scan path
            // leaves it in the index.
            let indexed_key = std::mem::take(&mut node.indexed).then_some((node.last_used, id));
            (blocks, node.n_tokens, node.parent, indexed_key)
        };
        if let Some(key) = indexed_key {
            self.evictable.remove(&key);
        }
        self.unpinned_gpu_blocks -= blocks;
        self.pool.free(blocks);
        self.stats.evicted_blocks += blocks;
        self.stats.evicted_tokens += tokens;
        if let Some(log) = &mut self.eviction_log {
            log.push(id);
        }
        if self.config.prefix_sharing {
            if let Some(p) = parent {
                self.tree.node_mut(p).gpu_children -= 1;
                self.reindex(p);
            }
        }
    }

    /// Make one node GPU-resident, assuming its prefix (if shared) is
    /// already resident. Returns the cost.
    fn restore_node(&mut self, id: NodeId) -> Result<PinCost, KvError> {
        let (residency, pad, n_tokens) = {
            let node = self.tree.node(id);
            (node.residency, node.pad, node.n_tokens)
        };
        let mut cost = PinCost::default();
        match residency {
            Residency::Gpu => {}
            Residency::Host => {
                let blocks = self.tree.blocks_for(pad, n_tokens);
                self.alloc_with_eviction(blocks)?;
                cost.transfer_in_bytes = blocks * self.config.block_bytes();
                cost.allocated_blocks = blocks;
                self.stats.swapped_in_blocks += blocks;
                self.finish_restore(id, blocks);
            }
            Residency::Absent => {
                let blocks = self.tree.blocks_for(pad, n_tokens);
                self.alloc_with_eviction(blocks)?;
                // Recompute the node's own tokens; with sharing disabled
                // the duplicated prefix (`pad`) must be recomputed too.
                cost.recompute_tokens = if self.config.prefix_sharing {
                    n_tokens
                } else {
                    pad + n_tokens
                };
                cost.allocated_blocks = blocks;
                self.stats.recomputed_tokens += cost.recompute_tokens;
                self.finish_restore(id, blocks);
            }
        }
        self.tree.touch(id);
        Ok(cost)
    }

    fn finish_restore(&mut self, id: NodeId, blocks: u64) {
        let parent = {
            let node = self.tree.node_mut(id);
            // Restores only happen under an active pin, so the node is
            // never an eviction candidate here and the unpinned-GPU
            // block sum is unaffected.
            debug_assert!(node.pin_count > 0, "restore outside a pin");
            node.residency = Residency::Gpu;
            node.owned_blocks = blocks;
            node.parent
        };
        // Without sharing each sequence is self-contained, so parents
        // impose no leaf-first eviction constraint.
        if self.config.prefix_sharing {
            if let Some(p) = parent {
                self.tree.node_mut(p).gpu_children += 1;
                self.reindex(p);
            }
        }
    }

    /// Pin the sequence ending at `leaf`: increment pin counts along the
    /// residency path and make every node on it GPU-resident, evicting
    /// other subtrees as needed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::InsufficientMemory`] (with pins rolled back) if
    /// the pool cannot hold the path even after evicting everything
    /// evictable.
    pub fn pin(&mut self, leaf: NodeId) -> Result<PinCost, KvError> {
        let mut path = std::mem::take(&mut self.path);
        path.extend(self.tree.residency_walk(leaf));
        path.reverse();
        let pinned = self.pin_path(&path);
        path.clear();
        self.path = path;
        pinned
    }

    /// [`KvCache::pin`] over its residency path, given root first:
    /// restores run in that order, each over a resident prefix.
    fn pin_path(&mut self, path: &[NodeId]) -> Result<PinCost, KvError> {
        for &id in path {
            let node = self.tree.node_mut(id);
            node.pin_count += 1;
            if node.pin_count == 1 {
                self.on_pin_transition(id, true);
            }
        }
        let mut total = PinCost::default();
        for &id in path {
            match self.restore_node(id) {
                Ok(cost) => total.merge(cost),
                Err(e) => {
                    for &undo in path {
                        let node = self.tree.node_mut(undo);
                        node.pin_count -= 1;
                        if node.pin_count == 0 {
                            self.on_pin_transition(undo, false);
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(total)
    }

    /// Release a pin taken by [`KvCache::pin`]. The path stays resident
    /// as evictable cache.
    ///
    /// # Panics
    ///
    /// Panics if the path is not currently pinned.
    pub fn unpin(&mut self, leaf: NodeId) {
        // Leaf first: each node's transition reads only its own state.
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            let node = self.tree.node_mut(id);
            assert!(node.pin_count > 0, "unpin of unpinned node {id}");
            node.pin_count -= 1;
            if node.pin_count == 0 {
                self.on_pin_transition(id, false);
            }
            cur = self.tree.residency_parent(id);
        }
    }

    /// Append `tokens` decoded tokens to a pinned, resident leaf,
    /// allocating boundary blocks as the span grows.
    ///
    /// # Errors
    ///
    /// * [`KvError::ExtendNonLeaf`] if the node already forked children.
    /// * [`KvError::NotResident`] if the node is not pinned on the GPU.
    /// * [`KvError::InsufficientMemory`] if growth blocks cannot be
    ///   obtained; the node's tokens are unchanged in that case.
    pub fn extend(&mut self, leaf: NodeId, tokens: u64) -> Result<(), KvError> {
        let (n_children, pin_count, residency, pad, n_tokens, owned) = {
            let node = self.tree.node(leaf);
            (
                node.n_children,
                node.pin_count,
                node.residency,
                node.pad,
                node.n_tokens,
                node.owned_blocks,
            )
        };
        if n_children > 0 {
            return Err(KvError::ExtendNonLeaf(leaf));
        }
        if pin_count == 0 || residency != Residency::Gpu {
            return Err(KvError::NotResident(leaf));
        }
        if tokens == 0 {
            return Ok(());
        }
        // A resident node owns exactly the blocks its tokens fill, so
        // growth that fits the last owned block needs no new block.
        let new_owned = if owned > 0 && pad + n_tokens + tokens <= owned * BLOCK_SIZE {
            owned
        } else {
            self.tree.blocks_for(pad, n_tokens + tokens)
        };
        debug_assert_eq!(new_owned, self.tree.blocks_for(pad, n_tokens + tokens));
        let delta = new_owned - owned;
        if delta > 0 {
            self.alloc_with_eviction(delta)?;
        }
        // First physical materialization of a forked node performs the
        // copy-on-write boundary copy.
        if owned == 0 && pad > 0 {
            self.stats.cow_blocks += pad.div_ceil(BLOCK_SIZE);
        }
        let node = self.tree.node_mut(leaf);
        node.n_tokens += tokens;
        node.owned_blocks = new_owned;
        self.tree.touch(leaf);
        Ok(())
    }

    /// Blocks that `pin(leaf)` followed by `extend(leaf, extra_tokens)`
    /// would need to allocate right now.
    pub fn blocks_needed(&self, leaf: NodeId, extra_tokens: u64) -> u64 {
        let mut needed = 0;
        for id in self.tree.residency_walk(leaf) {
            let node = self.tree.node(id);
            if node.residency != Residency::Gpu {
                needed += self.tree.blocks_for(node.pad, node.n_tokens);
            }
        }
        let leaf_node = self.tree.node(leaf);
        let with_growth = self
            .tree
            .blocks_for(leaf_node.pad, leaf_node.n_tokens + extra_tokens);
        let current = if leaf_node.residency == Residency::Gpu {
            leaf_node.owned_blocks
        } else {
            self.tree.blocks_for(leaf_node.pad, leaf_node.n_tokens)
        };
        needed + (with_growth - current)
    }

    /// Whether pinning `leaf` and growing it by `extra_tokens` can
    /// succeed without evicting any *currently pinned* path.
    pub fn would_fit(&self, leaf: NodeId, extra_tokens: u64) -> bool {
        self.blocks_needed(leaf, extra_tokens) <= self.obtainable_blocks_for(leaf)
    }

    /// Blocks obtainable for pinning `leaf`: free plus evictable,
    /// excluding resident-but-unpinned blocks on `leaf`'s own path (those
    /// would be pinned, not evicted).
    pub fn obtainable_blocks_for(&self, leaf: NodeId) -> u64 {
        let path_unpinned: u64 = self
            .tree
            .residency_walk(leaf)
            .map(|id| {
                let n = self.tree.node(id);
                if n.residency == Residency::Gpu && n.pin_count == 0 {
                    n.owned_blocks
                } else {
                    0
                }
            })
            .sum();
        (self.pool.free_blocks() + self.evictable_blocks()).saturating_sub(path_unpinned)
    }

    /// Voluntarily free a dead node's blocks (e.g. unconsumed
    /// speculative work) so it cannot crowd out live prefixes under LRU.
    /// No-op unless the node is GPU-resident, unpinned and childless
    /// (shared blocks must outlive their sharers). Returns blocks freed.
    pub fn discard(&mut self, node: NodeId) -> u64 {
        let (ok, blocks, parent) = {
            let n = self.tree.node(node);
            (
                n.residency == Residency::Gpu
                    && n.pin_count == 0
                    && n.gpu_children == 0
                    && n.n_children == 0,
                n.owned_blocks,
                n.parent,
            )
        };
        if !ok {
            return 0;
        }
        {
            let n = self.tree.node_mut(node);
            n.residency = Residency::Absent;
            n.owned_blocks = 0;
        }
        self.unpinned_gpu_blocks -= blocks;
        self.reindex(node);
        self.pool.free(blocks);
        self.stats.discarded_blocks += blocks;
        if self.config.prefix_sharing {
            if let Some(p) = parent {
                self.tree.node_mut(p).gpu_children -= 1;
                self.reindex(p);
            }
        }
        blocks
    }

    /// Swap every unpinned GPU-resident node to host memory, freeing its
    /// blocks: the capped walk with no cap, so nothing drops. Returns the
    /// number of bytes moved (for PCIe costing).
    pub fn swap_out_unpinned(&mut self) -> u64 {
        self.swap_out_unpinned_capped(u64::MAX).0
    }

    /// Swap unpinned GPU-resident nodes to host memory until at most
    /// `cap_bytes` have moved, then *drop* the rest (no host copy —
    /// those paths become [`Residency::Absent`] and recompute when
    /// next pinned). This models a bounded host tier: parked KV beyond
    /// the tier's free capacity does not survive preemption.
    ///
    /// Nodes are visited in ascending [`NodeId`] order — parents are
    /// created before children, so shared prefixes (the most valuable
    /// KV to keep) claim the capped host space first. Returns
    /// `(swapped_bytes, dropped_bytes)`.
    pub fn swap_out_unpinned_capped(&mut self, cap_bytes: u64) -> (u64, u64) {
        let block_bytes = self.config.block_bytes();
        let ids: Vec<NodeId> = self
            .tree
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.residency == Residency::Gpu && n.pin_count == 0)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let mut swapped = 0;
        let mut dropped = 0;
        for id in ids {
            let owned = self.tree.node(id).owned_blocks;
            let fits = (swapped + owned) * block_bytes <= cap_bytes;
            let (owned, tokens, parent) = {
                let node = self.tree.node_mut(id);
                node.residency = if fits {
                    Residency::Host
                } else {
                    Residency::Absent
                };
                node.indexed = false;
                let owned = node.owned_blocks;
                node.owned_blocks = 0;
                (owned, node.n_tokens, node.parent)
            };
            self.pool.free(owned);
            if fits {
                swapped += owned;
            } else {
                dropped += owned;
                self.stats.evicted_tokens += tokens;
            }
            if self.config.prefix_sharing {
                if let Some(p) = parent {
                    self.tree.node_mut(p).gpu_children -= 1;
                }
            }
        }
        // Every candidate was GPU-resident and unpinned, so the whole
        // index (and the unpinned-GPU block sum) empties at once, each
        // member's flag cleared above; remaining GPU nodes are pinned
        // and thus not candidates.
        self.evictable.clear();
        self.unpinned_gpu_blocks = 0;
        self.stats.swapped_out_blocks += swapped;
        self.stats.overflow_dropped_blocks += dropped;
        (swapped * block_bytes, dropped * block_bytes)
    }

    /// Drop every unpinned GPU-resident node *without* a host copy —
    /// the device-side KV blocks are lost (injected fault), so the
    /// affected paths become [`Residency::Absent`] and must be
    /// recomputed through the normal [`KvCache::pin`] path when next
    /// scheduled. Pinned nodes (mid-iteration) and host-resident nodes
    /// (swapped-out, i.e. preempted requests) survive: host RAM is not
    /// on the faulting device. Returns the number of blocks lost.
    ///
    /// Recovery is deterministic replay: the prefix tree keeps every
    /// node's logical token count, so the next pin recomputes exactly
    /// the lost tokens and no accepted work disappears.
    pub fn lose_unpinned(&mut self) -> u64 {
        let ids: Vec<NodeId> = self
            .tree
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.residency == Residency::Gpu && n.pin_count == 0)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let mut blocks = 0;
        for id in ids {
            let (owned, tokens, parent) = {
                let node = self.tree.node_mut(id);
                node.residency = Residency::Absent;
                node.indexed = false;
                let owned = node.owned_blocks;
                node.owned_blocks = 0;
                (owned, node.n_tokens, node.parent)
            };
            self.pool.free(owned);
            blocks += owned;
            self.stats.evicted_tokens += tokens;
            if self.config.prefix_sharing {
                if let Some(p) = parent {
                    self.tree.node_mut(p).gpu_children -= 1;
                }
            }
        }
        // Same reasoning as `swap_out_unpinned_capped`: every candidate
        // was GPU-resident and unpinned, so the index empties wholesale.
        self.evictable.clear();
        self.unpinned_gpu_blocks = 0;
        self.stats.lost_blocks += blocks;
        blocks
    }

    /// Unique tokens in the union of the paths ending at `leaves` — the
    /// working set a cache must retain to serve all of them without
    /// recomputation. With prefix sharing this is the (deduplicated)
    /// tree size; without it, the plain sum of path lengths.
    ///
    /// Each leaf climbs its parent pointers only until it reaches a node
    /// already counted: every ancestor of a counted node was counted
    /// with it. A counted node carries this call's visit stamp, so the
    /// walk allocates nothing.
    pub fn unique_path_tokens(&self, leaves: &[NodeId]) -> u64 {
        if !self.config.prefix_sharing {
            return leaves.iter().map(|&l| self.seq_tokens(l)).sum();
        }
        let stamp = self.tree.next_visit();
        let mut total = 0u64;
        for &leaf in leaves {
            let mut cur = Some(leaf);
            while let Some(id) = cur {
                let node = self.tree.node(id);
                if node.visit.get() == stamp {
                    break;
                }
                node.visit.set(stamp);
                total += node.n_tokens;
                cur = node.parent;
            }
        }
        total
    }

    /// Route victim selection through the seed's brute-force scan
    /// instead of the incremental index. Test/bench oracle only: both
    /// paths must produce identical behaviour.
    #[doc(hidden)]
    pub fn set_scan_eviction(&mut self, scan: bool) {
        self.scan_eviction = scan;
    }

    /// Start recording evicted node ids (in eviction order).
    #[doc(hidden)]
    pub fn enable_eviction_log(&mut self) {
        self.eviction_log = Some(Vec::new());
    }

    /// Drain the eviction log recorded since
    /// [`KvCache::enable_eviction_log`] (or the last drain). Returns an
    /// empty log — and does *not* switch logging on — if logging was
    /// never enabled.
    #[doc(hidden)]
    pub fn take_eviction_log(&mut self) -> Vec<NodeId> {
        self.eviction_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Assert that the incremental eviction index, each node's tracked
    /// membership in it and the block accounting agree exactly with a
    /// brute-force scan of the arena. Used by the property tests after
    /// every operation.
    ///
    /// # Panics
    ///
    /// Panics if the index, a membership flag or the unpinned-GPU block
    /// sum diverged.
    #[doc(hidden)]
    pub fn audit_eviction_index(&self) {
        let scanned = self.scan_evictable_sorted();
        let indexed: Vec<(u64, NodeId)> = self.evictable.iter().copied().collect();
        assert_eq!(
            indexed, scanned,
            "eviction index out of sync with arena state"
        );
        for (i, node) in self.tree.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            assert_eq!(
                node.indexed,
                self.evictable.contains(&(node.last_used, id)),
                "tracked index membership of {id} out of sync"
            );
        }
        let scanned_blocks: u64 = self
            .tree
            .nodes
            .iter()
            .filter(|n| n.residency == Residency::Gpu && n.pin_count == 0)
            .map(|n| n.owned_blocks)
            .sum();
        assert_eq!(
            self.unpinned_gpu_blocks, scanned_blocks,
            "unpinned-GPU block counter out of sync"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity_blocks: u64) -> KvCache {
        KvCache::new(KvCacheConfig {
            capacity_bytes: capacity_blocks * 16 * 4,
            bytes_per_token: 4,
            prefix_sharing: true,
        })
    }

    #[test]
    fn pin_allocates_and_reports_recompute() {
        let mut kv = cache(100);
        let r = kv.root(64).unwrap();
        let cost = kv.pin(r).unwrap();
        assert_eq!(cost.recompute_tokens, 64);
        assert_eq!(cost.allocated_blocks, 4);
        assert_eq!(kv.gpu_blocks_used(), 4);
        // Re-pin is a hit.
        let again = kv.pin(r).unwrap();
        assert!(again.is_hit());
        kv.unpin(r);
        kv.unpin(r);
    }

    #[test]
    fn extend_grows_blocks_lazily() {
        let mut kv = cache(100);
        let r = kv.root(16).unwrap();
        kv.pin(r).unwrap();
        assert_eq!(kv.gpu_blocks_used(), 1);
        kv.extend(r, 1).unwrap();
        assert_eq!(kv.gpu_blocks_used(), 2);
        for _ in 0..15 {
            kv.extend(r, 1).unwrap();
        }
        assert_eq!(kv.gpu_blocks_used(), 2);
        kv.extend(r, 1).unwrap();
        assert_eq!(kv.gpu_blocks_used(), 3);
    }

    #[test]
    fn fork_shares_blocks_and_cow_copies_boundary() {
        let mut kv = cache(100);
        let r = kv.root(20).unwrap(); // 2 blocks, second holds 4 tokens
        kv.pin(r).unwrap();
        let c = kv.fork(r).unwrap();
        kv.pin(c).unwrap();
        assert_eq!(kv.gpu_blocks_used(), 2, "fork is lazy");
        kv.extend(c, 1).unwrap();
        // COW: child copies the partial boundary block (pad 4 + 1 token).
        assert_eq!(kv.gpu_blocks_used(), 3);
        assert_eq!(kv.stats().cow_blocks, 1);
    }

    #[test]
    fn aligned_fork_needs_no_cow() {
        let mut kv = cache(100);
        let r = kv.root(32).unwrap();
        kv.pin(r).unwrap();
        let c = kv.fork(r).unwrap();
        kv.pin(c).unwrap();
        kv.extend(c, 1).unwrap();
        assert_eq!(kv.stats().cow_blocks, 0);
        assert_eq!(kv.gpu_blocks_used(), 3);
    }

    #[test]
    fn eviction_prefers_lru_unpinned_leaves() {
        let mut kv = cache(6);
        let r = kv.root(32).unwrap(); // 2 blocks
        kv.pin(r).unwrap();
        let a = kv.fork(r).unwrap();
        let b = kv.fork(r).unwrap();
        kv.pin(a).unwrap();
        kv.extend(a, 32).unwrap(); // 2 blocks
        kv.unpin(a);
        kv.pin(b).unwrap();
        kv.extend(b, 32).unwrap(); // 2 blocks -> pool full (6)
                                   // A third child needs space; `a` (LRU, unpinned leaf) is evicted.
        let c = kv.fork(r).unwrap();
        kv.pin(c).unwrap();
        kv.extend(c, 32).unwrap();
        assert_eq!(kv.residency(a), Residency::Absent);
        assert_eq!(kv.residency(b), Residency::Gpu);
        assert_eq!(kv.residency(r), Residency::Gpu, "shared prefix survives");
        assert!(kv.stats().evicted_blocks >= 2);
        // Re-pinning `a` recomputes its own 32 tokens only.
        kv.unpin(b);
        kv.unpin(c);
        let cost = kv.pin(a).unwrap();
        assert_eq!(cost.recompute_tokens, 32);
    }

    #[test]
    fn pin_fails_cleanly_when_over_capacity() {
        let mut kv = cache(3);
        let r = kv.root(100).unwrap(); // needs 7 blocks > 3
        let err = kv.pin(r).unwrap_err();
        assert!(matches!(err, KvError::InsufficientMemory { .. }));
        assert!(!kv.is_pinned(r), "pins must be rolled back");
        assert_eq!(kv.gpu_blocks_used(), 0, "all-or-nothing per node");
        kv.audit_eviction_index();
    }

    #[test]
    fn extend_rejects_non_leaf_and_unpinned() {
        let mut kv = cache(100);
        let r = kv.root(8).unwrap();
        kv.pin(r).unwrap();
        let _child = kv.fork(r).unwrap();
        assert_eq!(kv.extend(r, 1), Err(KvError::ExtendNonLeaf(r)));
        let lone = kv.root(8).unwrap();
        assert_eq!(kv.extend(lone, 1), Err(KvError::NotResident(lone)));
    }

    #[test]
    fn swap_out_moves_to_host_and_pin_transfers_back() {
        let mut kv = cache(100);
        let r = kv.root(64).unwrap();
        kv.pin(r).unwrap();
        kv.unpin(r);
        let bytes = kv.swap_out_unpinned();
        assert_eq!(bytes, 4 * 16 * 4);
        assert_eq!(kv.residency(r), Residency::Host);
        assert_eq!(kv.gpu_blocks_used(), 0);
        let cost = kv.pin(r).unwrap();
        assert_eq!(cost.recompute_tokens, 0, "swap-in needs no recompute");
        assert_eq!(cost.transfer_in_bytes, bytes);
    }

    #[test]
    fn capped_swap_out_keeps_prefixes_and_drops_overflow() {
        let mut kv = cache(100);
        let r = kv.root(32).unwrap(); // 2 blocks — the shared prefix
        kv.pin(r).unwrap();
        let a = kv.fork(r).unwrap();
        kv.pin(a).unwrap();
        kv.extend(a, 32).unwrap(); // 2 more blocks
        kv.unpin(a);
        kv.unpin(r);
        // Cap covers exactly the prefix (2 blocks = 128 bytes): the
        // prefix swaps to host, the leaf drops without a host copy.
        let (swapped, dropped) = kv.swap_out_unpinned_capped(2 * 16 * 4);
        assert_eq!(swapped, 2 * 16 * 4);
        assert_eq!(dropped, 2 * 16 * 4);
        assert_eq!(kv.residency(r), Residency::Host, "prefix kept");
        assert_eq!(kv.residency(a), Residency::Absent, "overflow dropped");
        assert_eq!(kv.gpu_blocks_used(), 0);
        assert_eq!(kv.stats().overflow_dropped_blocks, 2);
        // Restoring the prefix transfers; the leaf recomputes.
        let cost = kv.pin(a).unwrap();
        assert_eq!(cost.transfer_in_bytes, 2 * 16 * 4);
        assert_eq!(cost.recompute_tokens, 32);
        kv.audit_eviction_index();
    }

    #[test]
    fn lose_unpinned_drops_data_and_pin_recomputes() {
        let mut kv = cache(100);
        let r = kv.root(64).unwrap();
        kv.pin(r).unwrap();
        kv.unpin(r);
        let lost = kv.lose_unpinned();
        assert_eq!(lost, 4);
        assert_eq!(kv.stats().lost_blocks, 4);
        assert_eq!(kv.residency(r), Residency::Absent, "no host copy");
        assert_eq!(kv.gpu_blocks_used(), 0);
        // Unlike swap-out, recovery is recompute, not PCIe transfer.
        let cost = kv.pin(r).unwrap();
        assert_eq!(cost.recompute_tokens, 64);
        assert_eq!(cost.transfer_in_bytes, 0);
        kv.audit_eviction_index();
    }

    #[test]
    fn lose_unpinned_spares_pinned_and_host_nodes() {
        let mut kv = cache(100);
        let pinned = kv.root(32).unwrap();
        kv.pin(pinned).unwrap();
        let swapped = kv.root(32).unwrap();
        kv.pin(swapped).unwrap();
        kv.unpin(swapped);
        kv.swap_out_unpinned();
        assert_eq!(kv.residency(swapped), Residency::Host);
        let lost = kv.lose_unpinned();
        assert_eq!(lost, 0, "pinned and host-resident nodes survive");
        assert_eq!(kv.residency(pinned), Residency::Gpu);
        assert_eq!(kv.residency(swapped), Residency::Host);
        kv.audit_eviction_index();
    }

    #[test]
    fn no_sharing_mode_duplicates_prefixes() {
        let mut kv = KvCache::new(KvCacheConfig {
            capacity_bytes: 100 * 16 * 4,
            bytes_per_token: 4,
            prefix_sharing: false,
        });
        let r = kv.root(32).unwrap();
        kv.pin(r).unwrap();
        let a = kv.fork(r).unwrap();
        kv.pin(a).unwrap();
        kv.extend(a, 16).unwrap();
        // Child owns the full 48-token copy: 3 blocks + root's 2.
        assert_eq!(kv.gpu_blocks_used(), 5);
    }

    #[test]
    fn would_fit_and_blocks_needed_agree_with_pin() {
        let mut kv = cache(4);
        let r = kv.root(32).unwrap();
        assert_eq!(kv.blocks_needed(r, 0), 2);
        assert!(kv.would_fit(r, 0));
        assert!(kv.would_fit(r, 32));
        assert!(!kv.would_fit(r, 33), "4 blocks cannot hold 65 tokens");
        kv.pin(r).unwrap();
        assert_eq!(kv.blocks_needed(r, 0), 0);
    }

    #[test]
    fn shared_prefix_is_exposed() {
        let mut kv = cache(100);
        let r = kv.root(40).unwrap();
        let a = kv.fork(r).unwrap();
        let b = kv.fork(r).unwrap();
        assert_eq!(kv.shared_prefix(a, b), 40);
    }

    #[test]
    fn unique_path_tokens_dedups_shared_prefixes() {
        let mut kv = cache(100);
        let r = kv.root(40).unwrap();
        let a = kv.fork(r).unwrap();
        let b = kv.fork(r).unwrap();
        kv.pin(a).unwrap();
        kv.pin(b).unwrap();
        kv.extend(a, 10).unwrap();
        kv.extend(b, 20).unwrap();
        assert_eq!(kv.unique_path_tokens(&[a, b]), 70);
        assert_eq!(kv.unique_path_tokens(&[a]), 50);
        assert_eq!(kv.unique_path_tokens(&[]), 0);
    }

    /// The set-based walk the visit stamps replaced.
    fn unique_path_tokens_by_set(kv: &KvCache, leaves: &[NodeId]) -> u64 {
        let mut seen = std::collections::HashSet::new();
        leaves
            .iter()
            .flat_map(|&leaf| std::iter::successors(Some(leaf), |&id| kv.tree.node(id).parent))
            .filter(|&id| seen.insert(id))
            .map(|id| kv.own_tokens(id))
            .sum()
    }

    #[test]
    fn unique_path_tokens_carries_its_stamp_across_the_wrap() {
        let mut kv = cache(100);
        let r = kv.root(40).unwrap();
        let a = kv.fork(r).unwrap();
        let b = kv.fork(r).unwrap();
        let c = kv.root(24).unwrap();
        let d = kv.root(8).unwrap();
        for (leaf, tokens) in [(a, 10), (b, 20)] {
            kv.pin(leaf).unwrap();
            kv.extend(leaf, tokens).unwrap();
            kv.unpin(leaf);
        }
        let check = |kv: &KvCache, leaves: &[NodeId]| {
            assert_eq!(
                kv.unique_path_tokens(leaves),
                unique_path_tokens_by_set(kv, leaves),
                "{leaves:?} at stamp {}",
                kv.tree.visit_stamp.get()
            );
        };
        check(&kv, &[a, b]); // stamp 1
        check(&kv, &[c]); // stamp 2: `c` keeps it across the wrap
        kv.tree.visit_stamp.set(u32::MAX - 1);
        check(&kv, &[a]); // stamp u32::MAX
        check(&kv, &[b, d]); // wraps to 1; `d` was never visited
        assert_eq!(kv.tree.visit_stamp.get(), 1, "the stamp wrapped");
        check(&kv, &[a, c]); // stamp 2 again: `c` must count
        check(&kv, &[a, b, c, d, a]);
    }

    #[test]
    fn unique_path_tokens_without_sharing_sums_paths() {
        let mut kv = KvCache::new(KvCacheConfig {
            capacity_bytes: 100 * 16 * 4,
            bytes_per_token: 4,
            prefix_sharing: false,
        });
        let r = kv.root(40).unwrap();
        let a = kv.fork(r).unwrap();
        let b = kv.fork(r).unwrap();
        assert_eq!(kv.unique_path_tokens(&[a, b]), 80);
    }

    #[test]
    fn capacity_resize_applies_to_pool() {
        let mut kv = cache(10);
        kv.set_capacity_bytes(2 * 16 * 4);
        let r = kv.root(64).unwrap();
        assert!(kv.pin(r).is_err());
    }
}
