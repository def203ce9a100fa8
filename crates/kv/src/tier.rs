//! Host-RAM KV tier behind the device pool.
//!
//! The device KV pool ([`crate::PoolBudget`]) is a single flat budget:
//! preemption swaps KV out to an *implicit, unbounded* host and
//! completed or cancelled requests simply vanish, so nothing survives
//! across requests. This module makes the host side explicit:
//!
//! * a **capacity-bounded byte ledger** — parked (preempted) KV and
//!   published shared prefixes compete for the same configurable
//!   host-RAM budget; what does not fit is genuinely dropped and must
//!   be recomputed,
//! * a **per-owner parking lot** — a preempted request parks its
//!   swapped-out KV under its own id and reclaims it on readmission
//!   (costed swap-in instead of recompute),
//! * a **shared prefix store** — completed and cancelled requests
//!   publish their prompt KV keyed by the problem's stable seed; a
//!   later request for the same prompt admits *warm*, replacing the
//!   prompt prefill with a costed host→device swap-in,
//! * a **hotness rule** deciding which cold prefix demotes when the
//!   tier is full: entries with [`KvTierConfig::pin_hot_after`] hits
//!   are pinned hot, and the victim is the least-hit, then the
//!   least-recently-used, cold entry — so under Zipf-skewed prompt
//!   popularity the head of the distribution stays resident while the
//!   long tail churns.
//!
//! A tier with `host_capacity_bytes == 0` is *disabled*: every park is
//! rejected, every lookup misses, and the serving schedulers take their
//! legacy code paths bit-for-bit (the PR-7 equivalence anchor).
//!
//! The tier is an accounting model, not a data store: it tracks byte
//! placement so the schedulers can cost swap traffic via
//! `GpuDevice::pcie_transfer_seconds` and decide recompute-vs-restore,
//! mirroring how the rest of the simulator treats KV.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration for the host-RAM KV tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvTierConfig {
    /// Host-RAM capacity in bytes shared by parked KV and published
    /// prefixes. `0` disables the tier entirely (legacy behaviour).
    pub host_capacity_bytes: u64,
    /// A published prefix with at least this many hits is *hot*: the
    /// tier refuses to demote it while colder entries exist.
    pub pin_hot_after: u64,
}

impl Default for KvTierConfig {
    /// Disabled tier: capacity 0, so every scheduler takes its legacy
    /// path unchanged.
    fn default() -> Self {
        Self {
            host_capacity_bytes: 0,
            pin_hot_after: 2,
        }
    }
}

impl KvTierConfig {
    /// An enabled tier with the given host capacity and the default
    /// hot-pin threshold.
    pub fn with_capacity(host_capacity_bytes: u64) -> Self {
        Self {
            host_capacity_bytes,
            ..Self::default()
        }
    }

    /// Whether the tier participates in scheduling at all.
    pub fn enabled(&self) -> bool {
        self.host_capacity_bytes > 0
    }
}

/// One published shared prefix resident in the host tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixEntry {
    /// Host bytes held by this prefix.
    pub bytes: u64,
    /// Prompt tokens the entry covers (the warm-start length).
    pub tokens: u64,
    /// Times this entry satisfied a warm lookup since publication.
    pub hits: u64,
    /// Logical clock of the last publish or hit (monotone per tier).
    pub last_used: u64,
}

/// Cumulative host-tier event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierStats {
    /// Warm admissions served from the prefix store.
    pub prefix_hits: u64,
    /// Admissions that found no published prefix (tier enabled only).
    pub prefix_misses: u64,
    /// Prefixes demoted (dropped from host) to make room.
    pub demotions: u64,
    /// Prefixes published into the store.
    pub published: u64,
    /// Bytes accepted into the parking lot at preemption.
    pub parked_bytes: u64,
    /// Bytes that did not fit at preemption and were dropped
    /// (device KV discarded, recompute on readmission).
    pub overflow_dropped_bytes: u64,
    /// Bytes reclaimed from the parking lot (readmission or
    /// cancellation of a parked request).
    pub unparked_bytes: u64,
}

/// The host-RAM KV tier: a bounded ledger of parked per-request KV and
/// published shared prefixes, with hotness-driven demotion.
///
/// # Invariant
///
/// `used_bytes == Σ parked + Σ prefix bytes <= capacity`, checked after
/// every mutation. A zero-capacity tier accepts nothing and hits
/// nothing, so callers gating on [`HostTier::enabled`] reproduce
/// pre-tier behaviour exactly.
#[derive(Debug, Clone)]
pub struct HostTier {
    config: KvTierConfig,
    used: u64,
    /// Logical clock: bumped on publish and hit; drives LRU ordering
    /// without wall-clock nondeterminism.
    seq: u64,
    parked: BTreeMap<u64, u64>,
    prefixes: BTreeMap<u64, PrefixEntry>,
    stats: TierStats,
}

impl HostTier {
    /// A tier over `config.host_capacity_bytes` of host RAM.
    pub fn new(config: KvTierConfig) -> Self {
        Self {
            config,
            used: 0,
            seq: 0,
            parked: BTreeMap::new(),
            prefixes: BTreeMap::new(),
            stats: TierStats::default(),
        }
    }

    /// Whether the tier participates in scheduling at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// Configured host capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.config.host_capacity_bytes
    }

    /// Bytes currently held (parked + prefixes).
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes still free for parking or publication.
    pub fn available_bytes(&self) -> u64 {
        self.config.host_capacity_bytes - self.used
    }

    /// Event counters so far.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Park `bytes` of preempted KV for `owner`, accepting at most the
    /// free capacity. Returns the bytes accepted; the caller must drop
    /// (not swap) the remainder and will see it again as recompute.
    /// Repeated parks for one owner accumulate.
    pub fn park(&mut self, owner: u64, bytes: u64) -> u64 {
        if !self.enabled() {
            return 0; // legacy path: no counters on a disabled tier
        }
        let accepted = bytes.min(self.available_bytes());
        if accepted > 0 {
            *self.parked.entry(owner).or_insert(0) += accepted;
            self.used += accepted;
        }
        self.stats.parked_bytes += accepted;
        self.stats.overflow_dropped_bytes += bytes - accepted;
        self.audit();
        accepted
    }

    /// Reclaim everything parked for `owner` (readmission swap-in, or
    /// cancellation of a paused request). Returns the bytes freed.
    pub fn unpark(&mut self, owner: u64) -> u64 {
        let freed = self.parked.remove(&owner).unwrap_or(0);
        self.used -= freed;
        self.stats.unparked_bytes += freed;
        self.audit();
        freed
    }

    /// Publish a shared prefix of `tokens` tokens / `bytes` bytes under
    /// the stable `key` (the problem seed). Demotes cold entries under
    /// the hotness rule until the new entry fits; if even demoting
    /// every cold prefix cannot make room (parked KV or hot entries
    /// hold the capacity), the publication is skipped. Re-publishing an
    /// existing key refreshes its recency and size.
    pub fn publish_prefix(&mut self, key: u64, tokens: u64, bytes: u64) {
        if !self.enabled() || bytes == 0 || bytes > self.config.host_capacity_bytes {
            return;
        }
        self.seq += 1;
        if let Some(entry) = self.prefixes.get_mut(&key) {
            // Refresh in place when the size still fits; growth beyond
            // the old footprint competes for free space like a new entry.
            let old = entry.bytes;
            if bytes <= old || bytes - old <= self.config.host_capacity_bytes - self.used {
                self.used = self.used - old + bytes;
                let entry = self.prefixes.get_mut(&key).expect("entry present");
                entry.bytes = bytes;
                entry.tokens = tokens;
                entry.last_used = self.seq;
                self.audit();
            }
            return;
        }
        while self.available_bytes() < bytes {
            // Hot entries are pinned; the victim is the least-hit, then
            // least-recently-used cold entry, ties on the stable key.
            let victim = self
                .prefixes
                .iter()
                .filter(|(_, e)| e.hits < self.config.pin_hot_after)
                .min_by_key(|(k, e)| ((e.hits, e.last_used), **k))
                .map(|(k, _)| *k);
            let Some(victim) = victim else {
                return; // nothing cold left to demote — skip publication
            };
            let evicted = self.prefixes.remove(&victim).expect("victim present");
            self.used -= evicted.bytes;
            self.stats.demotions += 1;
        }
        self.prefixes.insert(
            key,
            PrefixEntry {
                bytes,
                tokens,
                hits: 0,
                last_used: self.seq,
            },
        );
        self.used += bytes;
        self.stats.published += 1;
        self.audit();
    }

    /// Warm-start lookup at admission: a hit returns the entry
    /// (tokens/bytes available for swap-in) and bumps its hotness.
    /// Disabled tiers always miss without counting a miss, so counters
    /// stay zero on legacy runs.
    pub fn lookup_prefix(&mut self, key: u64) -> Option<PrefixEntry> {
        if !self.enabled() {
            return None;
        }
        self.seq += 1;
        match self.prefixes.get_mut(&key) {
            Some(entry) => {
                entry.hits += 1;
                entry.last_used = self.seq;
                self.stats.prefix_hits += 1;
                Some(*entry)
            }
            None => {
                self.stats.prefix_misses += 1;
                None
            }
        }
    }

    /// Host-resident prompt-prefix tokens for `key` *without* touching
    /// hotness or hit/miss counters — for admission feasibility checks
    /// (bytes already host-resident must not count against the device
    /// working set) that should not perturb the placement policy.
    pub fn peek_prefix_tokens(&self, key: u64) -> u64 {
        self.prefixes.get(&key).map_or(0, |e| e.tokens)
    }

    /// Number of prefixes currently resident.
    pub fn resident_prefixes(&self) -> usize {
        self.prefixes.len()
    }

    fn audit(&self) {
        debug_assert!(
            self.used <= self.config.host_capacity_bytes,
            "host tier overcommitted: {} > {}",
            self.used,
            self.config.host_capacity_bytes
        );
        debug_assert_eq!(
            self.used,
            self.parked.values().sum::<u64>()
                + self.prefixes.values().map(|e| e.bytes).sum::<u64>(),
            "host tier ledger out of sync"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(cap: u64) -> HostTier {
        HostTier::new(KvTierConfig::with_capacity(cap))
    }

    #[test]
    fn disabled_tier_accepts_and_hits_nothing() {
        let mut t = HostTier::new(KvTierConfig::default());
        assert!(!t.enabled());
        assert_eq!(t.park(1, 100), 0);
        t.publish_prefix(7, 10, 100);
        assert!(t.lookup_prefix(7).is_none());
        assert_eq!(t.stats(), TierStats::default(), "legacy runs stay silent");
    }

    #[test]
    fn park_caps_at_capacity_and_unpark_frees() {
        let mut t = tier(100);
        assert_eq!(t.park(1, 60), 60);
        assert_eq!(t.park(2, 60), 40, "only the free capacity is accepted");
        assert_eq!(t.used_bytes(), 100);
        assert_eq!(t.stats().overflow_dropped_bytes, 20);
        assert_eq!(t.unpark(1), 60);
        assert_eq!(t.unpark(1), 0, "second unpark is a no-op");
        assert_eq!(t.used_bytes(), 40);
        assert_eq!(t.unpark(2), 40);
        assert_eq!(t.used_bytes(), 0);
    }

    #[test]
    fn repeated_parks_accumulate_per_owner() {
        let mut t = tier(100);
        assert_eq!(t.park(1, 30), 30);
        assert_eq!(t.park(1, 30), 30);
        assert_eq!(t.used_bytes(), 60);
        assert_eq!(t.unpark(1), 60);
    }

    #[test]
    fn publish_then_lookup_hits_and_counts() {
        let mut t = tier(1000);
        t.publish_prefix(42, 50, 400);
        assert_eq!(t.resident_prefixes(), 1);
        let e = t.lookup_prefix(42).expect("published prefix hits");
        assert_eq!(e.tokens, 50);
        assert_eq!(e.bytes, 400);
        assert!(t.lookup_prefix(99).is_none());
        let s = t.stats();
        assert_eq!((s.prefix_hits, s.prefix_misses, s.published), (1, 1, 1));
    }

    #[test]
    fn cold_prefixes_demote_before_hot_ones() {
        let mut t = tier(1000);
        t.publish_prefix(1, 10, 400); // will become hot
        t.publish_prefix(2, 10, 400); // stays cold
                                      // Two hits pin key 1 hot (pin_hot_after = 2).
        assert!(t.lookup_prefix(1).is_some());
        assert!(t.lookup_prefix(1).is_some());
        // Needs 400 free: key 2 (cold) must demote, never hot key 1.
        t.publish_prefix(3, 10, 400);
        assert!(t.lookup_prefix(1).is_some(), "hot entry survived");
        assert!(t.lookup_prefix(3).is_some(), "new entry resident");
        assert!(t.lookup_prefix(2).is_none(), "cold entry demoted");
        assert_eq!(t.stats().demotions, 1);
    }

    #[test]
    fn lru_breaks_ties_between_equally_cold_entries() {
        let mut t = tier(800);
        t.publish_prefix(1, 10, 400);
        t.publish_prefix(2, 10, 400);
        // Touch key 1 so key 2 is the older of two zero/one-hit entries.
        assert!(t.lookup_prefix(1).is_some());
        t.publish_prefix(3, 10, 400);
        assert!(t.lookup_prefix(2).is_none(), "least-hit entry demoted");
        assert!(t.lookup_prefix(3).is_some());
    }

    #[test]
    fn publication_skipped_when_everything_is_hot_or_parked() {
        let mut t = tier(500);
        assert_eq!(t.park(9, 400), 400);
        t.publish_prefix(1, 10, 200); // 100 free, nothing to demote
        assert_eq!(t.resident_prefixes(), 0, "no room and no cold victim");
        t.publish_prefix(2, 10, 100);
        assert_eq!(t.resident_prefixes(), 1, "fits in the remaining 100");
        assert_eq!(t.used_bytes(), 500);
    }

    #[test]
    fn republish_refreshes_size_and_conserves_bytes() {
        let mut t = tier(1000);
        t.publish_prefix(1, 10, 400);
        t.publish_prefix(1, 12, 500);
        assert_eq!(t.used_bytes(), 500);
        let e = t.lookup_prefix(1).unwrap();
        assert_eq!((e.tokens, e.bytes), (12, 500));
        assert_eq!(t.stats().published, 1, "refresh is not a new publication");
    }

    #[test]
    fn oversized_publication_is_ignored() {
        let mut t = tier(100);
        t.publish_prefix(1, 10, 200);
        assert_eq!(t.resident_prefixes(), 0);
        assert_eq!(t.used_bytes(), 0);
    }
}
