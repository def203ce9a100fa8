//! Prefix tree of token spans.
//!
//! Every reasoning path in a TTS search is a root-to-leaf path in this
//! tree. A node owns the tokens it appended after diverging from its
//! parent; its physical KV blocks are derived from vLLM's paging rules:
//!
//! * With prefix sharing, a fork shares all full ancestor blocks and
//!   copy-on-writes the partial boundary block, so a node physically
//!   stores `pad + n_tokens` tokens where `pad` is the parent boundary
//!   remainder.
//! * Without prefix sharing (the "w/o prefix cache" baseline of Fig. 5),
//!   a fork duplicates the whole ancestor path (`pad` = full prefix
//!   length) and each sequence is self-contained.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::BLOCK_SIZE;

/// Identifier of a node in the prefix tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kv#{}", self.0)
    }
}

/// Where a node's KV blocks currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Residency {
    /// Blocks are in GPU memory and usable.
    Gpu,
    /// Blocks were swapped to host memory (offloading); restoring costs a
    /// PCIe transfer but no recomputation.
    Host,
    /// Blocks were evicted; the tokens must be recomputed (re-prefilled).
    Absent,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Node {
    pub parent: Option<NodeId>,
    pub depth: u32,
    /// Global token offset of this node's first own token.
    pub start: u64,
    /// Tokens appended by this node.
    pub n_tokens: u64,
    /// Tokens physically duplicated from the prefix into this node's
    /// first blocks (boundary copy-on-write, or the whole prefix when
    /// sharing is disabled).
    pub pad: u64,
    /// Physical blocks currently attributable to this node when resident.
    pub owned_blocks: u64,
    pub residency: Residency,
    pub pin_count: u32,
    /// Children with `residency == Gpu` (eviction must be leaf-first).
    pub gpu_children: u32,
    pub n_children: u32,
    pub last_used: u64,
    /// Whether `(last_used, id)` is in the cache's eviction index, so
    /// a transition touches the index only when membership changes.
    pub indexed: bool,
    /// Stamp of the last [`PrefixTree::next_visit`] walk that reached
    /// this node (0 before any).
    pub visit: Cell<u32>,
}

impl Node {
    /// End offset of the node's token span (== path length in tokens).
    pub fn end(&self) -> u64 {
        self.start + self.n_tokens
    }
}

/// Arena of prefix-tree nodes plus the block arithmetic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PrefixTree {
    pub nodes: Vec<Node>,
    pub prefix_sharing: bool,
    pub tick: u64,
    /// The stamp handed out by the latest [`PrefixTree::next_visit`].
    pub visit_stamp: Cell<u32>,
}

impl PrefixTree {
    pub fn new(prefix_sharing: bool) -> Self {
        Self {
            nodes: Vec::new(),
            prefix_sharing,
            tick: 0,
            visit_stamp: Cell::new(0),
        }
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    pub fn touch(&mut self, id: NodeId) {
        self.tick += 1;
        let tick = self.tick;
        self.node_mut(id).last_used = tick;
    }

    /// Blocks needed to hold `pad + tokens` physical tokens.
    pub fn blocks_for(&self, pad: u64, tokens: u64) -> u64 {
        if tokens == 0 {
            0
        } else {
            (pad + tokens).div_ceil(BLOCK_SIZE)
        }
    }

    pub fn add_root(&mut self, tokens: u64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.tick += 1;
        self.nodes.push(Node {
            parent: None,
            depth: 0,
            start: 0,
            n_tokens: tokens,
            pad: 0,
            owned_blocks: 0,
            residency: Residency::Absent,
            pin_count: 0,
            gpu_children: 0,
            n_children: 0,
            last_used: self.tick,
            indexed: false,
            visit: Cell::new(0),
        });
        id
    }

    /// Fork a child that inherits the first `keep_tokens` of `parent`'s
    /// own tokens (plus the entire path above `parent`).
    pub fn fork_at(&mut self, parent: NodeId, keep_tokens: u64) -> NodeId {
        let p = self.node(parent);
        assert!(
            keep_tokens <= p.n_tokens,
            "cannot inherit {keep_tokens} of {} tokens",
            p.n_tokens
        );
        let start = p.start + keep_tokens;
        let depth = p.depth + 1;
        let pad = if self.prefix_sharing {
            start % BLOCK_SIZE
        } else {
            start
        };
        let id = NodeId(self.nodes.len() as u32);
        self.tick += 1;
        self.nodes.push(Node {
            parent: Some(parent),
            depth,
            start,
            n_tokens: 0,
            pad,
            owned_blocks: 0,
            residency: Residency::Absent,
            pin_count: 0,
            gpu_children: 0,
            n_children: 0,
            last_used: self.tick,
            indexed: false,
            visit: Cell::new(0),
        });
        self.node_mut(parent).n_children += 1;
        id
    }

    /// The next node up from `id` among those whose residency matters
    /// for a leaf below it to be usable. With sharing that is the
    /// parent, so a leaf's walk covers its whole ancestor path; without
    /// it each sequence is self-contained and the walk stops at once.
    pub fn residency_parent(&self, id: NodeId) -> Option<NodeId> {
        if self.prefix_sharing {
            self.node(id).parent
        } else {
            None
        }
    }

    /// The nodes whose residency matters for `leaf` to be usable, from
    /// `leaf` up (see [`PrefixTree::residency_parent`]).
    pub fn residency_walk(&self, leaf: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(leaf), move |&id| self.residency_parent(id))
    }

    /// A stamp no node carries yet, for a walk that marks the nodes it
    /// reaches (`node.visit`) instead of collecting them in a set. When
    /// the counter wraps, every node's stamp is reset to 0 and the
    /// count starts again at 1.
    pub fn next_visit(&self) -> u32 {
        let mut stamp = self.visit_stamp.get().wrapping_add(1);
        if stamp == 0 {
            for node in &self.nodes {
                node.visit.set(0);
            }
            stamp = 1;
        }
        self.visit_stamp.set(stamp);
        stamp
    }

    /// Shared prefix length, in tokens, between the sequences ending at
    /// `a` and `b` — the paper's `P(c_i, c_j)` (Sec. 4.2).
    ///
    /// Climbs parent pointers instead of building root-to-leaf paths:
    /// both nodes rise to equal depth, then together until they meet,
    /// remembering on each side the child just below the meeting node.
    /// Each sequence diverges where that child starts, or at its own end
    /// when the node is itself the meeting node (an ancestor of the
    /// other). Nodes under different roots share nothing.
    pub fn shared_prefix(&self, a: NodeId, b: NodeId) -> u64 {
        if a == b {
            return self.node(a).end();
        }
        let (mut x, mut y) = (a, b);
        let (mut below_x, mut below_y) = (None, None);
        while self.node(x).depth > self.node(y).depth {
            below_x = Some(x);
            x = self.node(x).parent.expect("a deeper node has a parent");
        }
        while self.node(y).depth > self.node(x).depth {
            below_y = Some(y);
            y = self.node(y).parent.expect("a deeper node has a parent");
        }
        while x != y {
            let (Some(px), Some(py)) = (self.node(x).parent, self.node(y).parent) else {
                return 0;
            };
            (below_x, below_y) = (Some(x), Some(y));
            (x, y) = (px, py);
        }
        let diverge = |below: Option<NodeId>, own: NodeId| {
            below.map_or(self.node(own).end(), |child| self.node(child).start)
        };
        diverge(below_x, a).min(diverge(below_y, b))
    }

    /// Total sequence length in tokens for the path ending at `node`.
    pub fn seq_tokens(&self, node: NodeId) -> u64 {
        self.node(node).end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> PrefixTree {
        PrefixTree::new(true)
    }

    #[test]
    fn root_starts_at_zero() {
        let mut t = tree();
        let r = t.add_root(100);
        assert_eq!(t.node(r).start, 0);
        assert_eq!(t.seq_tokens(r), 100);
        assert_eq!(t.node(r).depth, 0);
    }

    #[test]
    fn fork_inherits_offset_and_pad() {
        let mut t = tree();
        let r = t.add_root(100);
        let c = t.fork_at(r, 100);
        assert_eq!(t.node(c).start, 100);
        assert_eq!(t.node(c).pad, 100 % 16);
        assert_eq!(t.node(c).depth, 1);
        assert_eq!(t.node(r).n_children, 1);
        assert_eq!(t.residency_parent(c), Some(r), "the prefix is shared");
        assert_eq!(t.residency_parent(r), None);
    }

    #[test]
    fn fork_without_sharing_copies_whole_prefix() {
        let mut t = PrefixTree::new(false);
        let r = t.add_root(100);
        let c = t.fork_at(r, 100);
        assert_eq!(t.node(c).pad, 100);
        assert_eq!(
            t.residency_parent(c),
            None,
            "the sequence is self-contained"
        );
    }

    #[test]
    fn blocks_for_rounds_up_with_pad() {
        let t = tree();
        assert_eq!(t.blocks_for(0, 0), 0);
        assert_eq!(t.blocks_for(0, 16), 1);
        assert_eq!(t.blocks_for(0, 17), 2);
        assert_eq!(t.blocks_for(4, 13), 2);
        assert_eq!(t.blocks_for(4, 0), 0, "no tokens means no copy yet");
    }

    #[test]
    fn shared_prefix_of_siblings_is_parent_end() {
        let mut t = tree();
        let r = t.add_root(100);
        let a = t.fork_at(r, 100);
        let b = t.fork_at(r, 100);
        t.node_mut(a).n_tokens = 40;
        t.node_mut(b).n_tokens = 8;
        assert_eq!(t.shared_prefix(a, b), 100);
        assert_eq!(t.shared_prefix(a, a), 140);
    }

    #[test]
    fn shared_prefix_with_mid_node_fork() {
        let mut t = tree();
        let r = t.add_root(100);
        let c0 = t.fork_at(r, 100);
        t.node_mut(c0).n_tokens = 50;
        // Duplicate inherits only 20 of c0's 50 tokens (truncated spec).
        let dup = t.fork_at(c0, 20);
        t.node_mut(dup).n_tokens = 30;
        let cont = t.fork_at(c0, 50);
        t.node_mut(cont).n_tokens = 10;
        assert_eq!(t.shared_prefix(dup, cont), 120);
        assert_eq!(t.shared_prefix(dup, c0), 120);
        assert_eq!(t.shared_prefix(cont, c0), 150);
    }

    #[test]
    fn shared_prefix_of_unrelated_roots_is_zero() {
        let mut t = tree();
        let r1 = t.add_root(10);
        let r2 = t.add_root(10);
        assert_eq!(t.shared_prefix(r1, r2), 0);
    }

    #[test]
    fn ancestor_descendant_share_ancestor_portion() {
        let mut t = tree();
        let r = t.add_root(100);
        let a = t.fork_at(r, 100);
        t.node_mut(a).n_tokens = 10;
        assert_eq!(t.shared_prefix(r, a), 100);
    }

    #[test]
    #[should_panic(expected = "cannot inherit")]
    fn fork_beyond_parent_tokens_panics() {
        let mut t = tree();
        let r = t.add_root(10);
        t.fork_at(r, 11);
    }

    #[test]
    fn touch_advances_lru_clock() {
        let mut t = tree();
        let r = t.add_root(10);
        let before = t.node(r).last_used;
        t.touch(r);
        assert!(t.node(r).last_used > before);
    }
}
