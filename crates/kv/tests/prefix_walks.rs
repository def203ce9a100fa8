//! Seeded property test: the parent-pointer walks behind
//! `KvCache::shared_prefix` and `KvCache::unique_path_tokens` equal the
//! root-to-leaf path computations they replaced, on random forests.
//!
//! The references below are those path computations, run over a mirror
//! of the forest: the test records each node's parent as it creates the
//! node and reads token offsets back through the public API
//! (`seq_tokens` is where a node's span ends, `own_tokens` its length).
//! Forests mix several roots, full forks, truncating `fork_at`s and
//! extensions, with prefix sharing on and off; every ordered node pair
//! (`a == b` and ancestor/descendant pairs included) and random leaf
//! sets with repeats are compared. Leaf sets are also compared between
//! growth steps, so one cache serves many `unique_path_tokens` calls
//! (each marks the nodes it counts with a fresh visit stamp) while it
//! grows, and the eviction index is audited after every step (growth
//! pins, extends and unpins whole paths).

use std::collections::HashSet;

use ftts_kv::{KvCache, KvCacheConfig, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random forests per sharing mode.
const FORESTS: usize = 150;

/// A cache plus the parent of every node it holds, by node index.
struct Forest {
    kv: KvCache,
    parent: Vec<Option<NodeId>>,
    nodes: Vec<NodeId>,
    /// Nodes that forked a child and so can no longer extend.
    forked: HashSet<NodeId>,
}

impl Forest {
    fn new(sharing: bool) -> Self {
        Self {
            kv: KvCache::new(KvCacheConfig {
                capacity_bytes: 1 << 40,
                bytes_per_token: 8,
                prefix_sharing: sharing,
            }),
            parent: Vec::new(),
            nodes: Vec::new(),
            forked: HashSet::new(),
        }
    }

    fn push(&mut self, id: NodeId, parent: Option<NodeId>) {
        assert_eq!(id.index(), self.parent.len(), "node ids are arena indices");
        self.parent.push(parent);
        self.nodes.push(id);
        if let Some(p) = parent {
            self.forked.insert(p);
        }
    }

    /// One random edit: a new root, a full fork, a truncating fork, or
    /// an extension of a node that has not forked yet.
    fn grow(&mut self, rng: &mut ChaCha8Rng) {
        let roll = rng.gen_range(0..10);
        if self.nodes.is_empty() || roll == 0 {
            let id = self.kv.root(rng.gen_range(0..200) as u64).unwrap();
            self.push(id, None);
            return;
        }
        let node = self.nodes[rng.gen_range(0..self.nodes.len())];
        match roll {
            1..=3 => {
                let id = self.kv.fork(node).unwrap();
                self.push(id, Some(node));
            }
            4..=6 => {
                let own = self.kv.own_tokens(node) as usize;
                let keep = rng.gen_range(0..own + 1) as u64;
                let id = self.kv.fork_at(node, keep).unwrap();
                self.push(id, Some(node));
            }
            _ if !self.forked.contains(&node) => {
                self.kv.pin(node).unwrap();
                self.kv.extend(node, rng.gen_range(1..80) as u64).unwrap();
                self.kv.unpin(node);
            }
            _ => {}
        }
    }

    /// Root → `node`, by the recorded parents.
    fn logical_path(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            path.push(id);
            cur = self.parent[id.index()];
        }
        path.reverse();
        path
    }

    fn start(&self, node: NodeId) -> u64 {
        self.kv.seq_tokens(node) - self.kv.own_tokens(node)
    }

    /// The path-comparing `shared_prefix`.
    fn shared_prefix_by_paths(&self, a: NodeId, b: NodeId) -> u64 {
        if a == b {
            return self.kv.seq_tokens(a);
        }
        let pa = self.logical_path(a);
        let pb = self.logical_path(b);
        let mut common = 0usize;
        while common < pa.len() && common < pb.len() && pa[common] == pb[common] {
            common += 1;
        }
        if common == 0 {
            return 0;
        }
        let oa = if common < pa.len() {
            self.start(pa[common])
        } else {
            self.kv.seq_tokens(a)
        };
        let ob = if common < pb.len() {
            self.start(pb[common])
        } else {
            self.kv.seq_tokens(b)
        };
        oa.min(ob)
    }

    /// The whole-path `unique_path_tokens`.
    fn unique_path_tokens_by_paths(&self, leaves: &[NodeId]) -> u64 {
        if !self.kv.config().prefix_sharing {
            return leaves.iter().map(|&l| self.kv.seq_tokens(l)).sum();
        }
        let mut seen = HashSet::new();
        let mut total = 0u64;
        for &leaf in leaves {
            for id in self.logical_path(leaf) {
                if seen.insert(id) {
                    total += self.kv.own_tokens(id);
                }
            }
        }
        total
    }

    /// `unique_path_tokens` of a random leaf set (repeats allowed)
    /// against the whole-path reference.
    fn check_unique_path_tokens(&self, rng: &mut ChaCha8Rng) {
        let leaves: Vec<NodeId> = (0..rng.gen_range(0..12))
            .map(|_| self.nodes[rng.gen_range(0..self.nodes.len())])
            .collect();
        assert_eq!(
            self.kv.unique_path_tokens(&leaves),
            self.unique_path_tokens_by_paths(&leaves),
            "unique_path_tokens({leaves:?}), sharing {}",
            self.kv.config().prefix_sharing
        );
    }
}

/// Pair shapes the forests must have produced, so the comparison
/// covers every branch of the walk.
#[derive(Default)]
struct Coverage {
    same: usize,
    ancestor: usize,
    unrelated: usize,
    truncated: usize,
}

fn check_forests(sharing: bool, seed: u64) -> Coverage {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Leaf sets probed between growth steps draw from their own stream,
    // so the forests are the ones the main stream always grew.
    let mut probes = ChaCha8Rng::seed_from_u64(!seed);
    let mut seen = Coverage::default();
    for _ in 0..FORESTS {
        let mut forest = Forest::new(sharing);
        for _ in 0..1 + rng.gen_range(0..60) {
            forest.grow(&mut rng);
            forest.kv.audit_eviction_index();
            for _ in 0..3 {
                forest.check_unique_path_tokens(&mut probes);
            }
        }
        for &a in &forest.nodes {
            for &b in &forest.nodes {
                let walked = forest.kv.shared_prefix(a, b);
                let reference = forest.shared_prefix_by_paths(a, b);
                assert_eq!(walked, reference, "shared_prefix({a}, {b})");
                let (pa, pb) = (forest.logical_path(a), forest.logical_path(b));
                if a == b {
                    seen.same += 1;
                } else if pa[0] != pb[0] {
                    seen.unrelated += 1;
                } else if pb.contains(&a) {
                    seen.ancestor += 1;
                }
                if walked < forest.kv.seq_tokens(a).min(forest.kv.seq_tokens(b)) && pa.contains(&b)
                {
                    seen.truncated += 1;
                }
            }
        }
        for _ in 0..20 {
            forest.check_unique_path_tokens(&mut rng);
        }
    }
    seen
}

fn assert_covered(seen: &Coverage) {
    assert!(seen.same > 0, "no a == b pairs");
    assert!(seen.ancestor > 0, "no ancestor/descendant pairs");
    assert!(seen.unrelated > 0, "no pairs under different roots");
    assert!(
        seen.truncated > 0,
        "no descendant that forked below its ancestor's end"
    );
}

#[test]
fn walks_match_path_references_with_prefix_sharing() {
    assert_covered(&check_forests(true, 0x5EED_0001));
}

#[test]
fn walks_match_path_references_without_prefix_sharing() {
    assert_covered(&check_forests(false, 0x5EED_0002));
}
