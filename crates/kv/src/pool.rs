//! Fixed-capacity block pool.

use serde::{Deserialize, Serialize};

/// A counting allocator over a fixed budget of KV blocks.
///
/// The simulation does not need physical block identities — only exact
/// occupancy accounting — so the pool tracks counts. All block ownership
/// bookkeeping (which node owns how many blocks) lives in the prefix tree.
///
/// # Example
///
/// ```
/// use ftts_kv::BlockPool;
/// let mut pool = BlockPool::new(10);
/// assert!(pool.try_alloc(7));
/// assert!(!pool.try_alloc(4));
/// pool.free(3);
/// assert!(pool.try_alloc(4));
/// assert_eq!(pool.used(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockPool {
    capacity: u64,
    used: u64,
    peak_used: u64,
}

impl BlockPool {
    /// Create a pool holding `capacity` blocks.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            peak_used: 0,
        }
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Blocks currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Blocks currently free (zero while occupancy exceeds a shrunken
    /// capacity).
    pub fn free_blocks(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    /// High-water mark of allocation.
    ///
    /// # Invariant
    ///
    /// `peak_used` is a *lifetime* maximum of `used`: it is monotone
    /// non-decreasing, never reset by [`BlockPool::resize`], and may
    /// therefore exceed the *current* capacity after the pool shrinks
    /// (it is bounded by the largest capacity under which allocations
    /// were served). Callers comparing peak occupancy against capacity
    /// across repartitions must track the capacity history themselves.
    pub fn peak_used(&self) -> u64 {
        debug_assert!(
            self.peak_used >= self.used,
            "peak must dominate current occupancy"
        );
        self.peak_used
    }

    /// Attempt to allocate `n` blocks; returns `false` (allocating
    /// nothing) if fewer than `n` are free.
    #[must_use]
    pub fn try_alloc(&mut self, n: u64) -> bool {
        if self.used + n > self.capacity {
            return false;
        }
        self.used += n;
        self.peak_used = self.peak_used.max(self.used);
        true
    }

    /// Return `n` blocks to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the number of allocated blocks (a
    /// double-free in the caller's bookkeeping).
    pub fn free(&mut self, n: u64) {
        assert!(
            n <= self.used,
            "freeing {n} blocks but only {} allocated",
            self.used
        );
        self.used -= n;
    }

    /// Resize the pool capacity (used when the memory allocator
    /// repartitions KV between generator and verifier at run time).
    ///
    /// Shrinking below current occupancy is allowed; the pool simply
    /// reports no free blocks until enough are freed. `peak_used` is
    /// deliberately **not** refreshed: it stays the lifetime high-water
    /// mark (see [`BlockPool::peak_used`]), so a shrink can leave
    /// `peak_used() > capacity()`. Occupancy itself is untouched — a
    /// repartition never deallocates.
    pub fn resize(&mut self, capacity: u64) {
        self.capacity = capacity;
        debug_assert!(
            self.peak_used >= self.used,
            "resize must not disturb occupancy accounting"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = BlockPool::new(5);
        assert!(p.try_alloc(5));
        assert_eq!(p.free_blocks(), 0);
        p.free(5);
        assert_eq!(p.free_blocks(), 5);
        assert_eq!(p.peak_used(), 5);
    }

    #[test]
    fn failed_alloc_changes_nothing() {
        let mut p = BlockPool::new(3);
        assert!(p.try_alloc(2));
        assert!(!p.try_alloc(2));
        assert_eq!(p.used(), 2);
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let mut p = BlockPool::new(3);
        assert!(p.try_alloc(1));
        p.free(2);
    }

    #[test]
    fn resize_can_shrink_below_occupancy() {
        let mut p = BlockPool::new(10);
        assert!(p.try_alloc(8));
        p.resize(4);
        assert_eq!(p.free_blocks(), 0);
        assert_eq!(
            (p.used(), p.capacity()),
            (8, 4),
            "shrink below occupancy keeps every block"
        );
        assert!(!p.try_alloc(1));
        p.free(8);
        assert_eq!(p.used(), 0);
        assert!(p.try_alloc(4));
    }

    #[test]
    fn resize_preserves_peak_semantics_across_repartitions() {
        // Regression test for the documented `peak_used` invariant: the
        // high-water mark is a lifetime maximum — monotone, unaffected
        // by repartitions in either direction, and allowed to exceed a
        // shrunken capacity.
        let mut p = BlockPool::new(10);
        assert!(p.try_alloc(8));
        assert_eq!(p.peak_used(), 8);
        // Shrink below both occupancy and peak: peak must survive.
        p.resize(4);
        assert_eq!(
            p.peak_used(),
            8,
            "shrink must not clamp the high-water mark"
        );
        assert_eq!(p.used(), 8, "repartition never deallocates");
        // Grow again and allocate past the old peak: peak advances.
        p.resize(20);
        p.free(2);
        assert!(p.try_alloc(6));
        assert_eq!(p.used(), 12);
        assert_eq!(p.peak_used(), 12);
        // Draining does not lower the peak.
        p.free(12);
        assert_eq!(p.used(), 0);
        assert_eq!(p.peak_used(), 12);
    }
}
