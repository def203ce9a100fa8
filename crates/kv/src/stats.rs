//! Cache event counters.

use serde::{Deserialize, Serialize};

/// Cumulative counters describing KV-cache behaviour over a run.
///
/// These are the quantities the paper's memory-oriented figures plot:
/// evicted blocks (Fig. 8 example / Fig. 18-left), recomputed prefix
/// tokens (the latency cost of evictions), and copy-on-write overhead of
/// beam branching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Blocks evicted from GPU memory.
    pub evicted_blocks: u64,
    /// Tokens whose KV entries were discarded and must be re-prefetched
    /// by recomputation when their path is next scheduled.
    pub evicted_tokens: u64,
    /// Tokens actually re-prefilled due to earlier evictions.
    pub recomputed_tokens: u64,
    /// Partial boundary blocks duplicated by copy-on-write forks.
    pub cow_blocks: u64,
    /// Blocks moved to host memory by offloading.
    pub swapped_out_blocks: u64,
    /// Blocks moved back from host memory.
    pub swapped_in_blocks: u64,
    /// Total block allocations served.
    pub allocated_blocks: u64,
    /// Blocks voluntarily discarded (dead speculative work) — unlike
    /// `evicted_blocks`, these do not indicate memory pressure.
    pub discarded_blocks: u64,
    /// Blocks dropped by injected device KV loss: unlike swapped-out
    /// blocks there is no host copy, so the affected paths must be
    /// recomputed when next pinned.
    pub lost_blocks: u64,
    /// Blocks dropped at preemption because they exceeded the host
    /// tier's free capacity (capped swap-out overflow): no host copy,
    /// recompute on readmission.
    pub overflow_dropped_blocks: u64,
}

impl CacheStats {
    /// Difference of two snapshots (`self` later than `earlier`).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            evicted_blocks: self.evicted_blocks - earlier.evicted_blocks,
            evicted_tokens: self.evicted_tokens - earlier.evicted_tokens,
            recomputed_tokens: self.recomputed_tokens - earlier.recomputed_tokens,
            cow_blocks: self.cow_blocks - earlier.cow_blocks,
            swapped_out_blocks: self.swapped_out_blocks - earlier.swapped_out_blocks,
            swapped_in_blocks: self.swapped_in_blocks - earlier.swapped_in_blocks,
            allocated_blocks: self.allocated_blocks - earlier.allocated_blocks,
            discarded_blocks: self.discarded_blocks - earlier.discarded_blocks,
            lost_blocks: self.lost_blocks - earlier.lost_blocks,
            overflow_dropped_blocks: self.overflow_dropped_blocks - earlier.overflow_dropped_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let early = CacheStats {
            evicted_blocks: 1,
            allocated_blocks: 10,
            ..Default::default()
        };
        let late = CacheStats {
            evicted_blocks: 4,
            allocated_blocks: 25,
            ..Default::default()
        };
        let d = late.since(&early);
        assert_eq!(d.evicted_blocks, 3);
        assert_eq!(d.allocated_blocks, 15);
        assert_eq!(d.cow_blocks, 0);
    }
}
