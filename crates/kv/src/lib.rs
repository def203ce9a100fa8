//! Paged KV-cache simulation for FastTTS.
//!
//! vLLM's PagedAttention manages the KV cache as fixed-size token blocks;
//! tree-structured TTS search then shares ancestor blocks between sibling
//! reasoning paths (prefix caching). This crate reproduces those mechanics
//! at block granularity so that *scheduling order has real memory
//! consequences* — the effect FastTTS's Dynamic Prefix-Aware Scheduling
//! exploits (paper Sec. 3.2.2, 4.2, Fig. 5/18):
//!
//! * [`BlockPool`] — a fixed budget of KV blocks with allocation stats.
//! * [`KvCache`] — a prefix tree of token spans. Forking a sequence shares
//!   all full ancestor blocks and copy-on-writes the partial boundary
//!   block, exactly like vLLM. Pinning a leaf makes its whole path
//!   resident, evicting least-recently-used unpinned subtrees when the
//!   pool is exhausted; evicted prefixes must be *recomputed* (re-prefilled)
//!   when next scheduled, and the cache reports those token counts so the
//!   engine can charge roofline time for them. Victim selection runs on
//!   an incrementally maintained `(last_used, NodeId)` index — amortized
//!   `O(log N)` per eviction instead of an `O(N log N)` arena rescan per
//!   allocation miss — with victim order proven identical to the scan
//!   (see the eviction-index notes in the `cache` module).
//! * Host offload (`swap_out_all` / pin-triggered swap-in) models the
//!   paper's extended search space (Sec. 4.3.2): swapped KV needs a PCIe
//!   transfer but no recomputation.
//!
//! # Example
//!
//! ```
//! use ftts_kv::{KvCache, KvCacheConfig};
//!
//! let mut kv = KvCache::new(KvCacheConfig {
//!     capacity_bytes: 1 << 20,
//!     bytes_per_token: 64,
//!     prefix_sharing: true,
//! });
//! let prompt = kv.root(100)?;
//! let a = kv.fork(prompt)?;
//! let b = kv.fork(prompt)?;
//! kv.pin(a)?;
//! kv.pin(b)?;
//! kv.extend(a, 40)?;
//! kv.extend(b, 8)?;
//! assert_eq!(kv.shared_prefix(a, b), 100);
//! # Ok::<(), ftts_kv::KvError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cache;
mod pool;
mod stats;
mod tier;
mod tree;

pub use budget::{tenant_weighted_budgets, PoolBudget, ShareRequest, TenantShareRequest};
pub use cache::{KvCache, KvCacheConfig, KvError, PinCost};
pub use pool::BlockPool;
pub use stats::CacheStats;
pub use tier::{HostTier, KvTierConfig, PrefixEntry, TierStats};
pub use tree::{NodeId, Residency};

/// Tokens per KV block: vLLM's default, and the block size of every
/// cache.
pub const BLOCK_SIZE: u64 = 16;
