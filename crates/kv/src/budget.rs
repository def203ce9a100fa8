//! Shared device-KV budget split between concurrent requests.
//!
//! Under continuous batching many requests hold KV caches on one
//! accelerator at the same time. Admission control must guarantee the
//! sum of their capacities never exceeds the device budget — otherwise
//! the simulation would hand out memory that does not exist. This
//! ledger tracks per-holder byte reservations against a fixed total;
//! the serving scheduler reserves a share at admission, resizes shares
//! as the batch grows and shrinks, and releases them at completion or
//! preemption.

use std::collections::BTreeMap;

/// One holder's input to a demand-proportional rebalance: how many
/// bytes it *wants* (its working-set estimate) and the floor below
/// which shrinking its share would strand accepted tokens (evicting
/// retained prefixes into recompute thrash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareRequest {
    /// The holder being re-shared (must hold a live reservation).
    pub holder: u64,
    /// Working-set demand in bytes (0 = idle; gets the base floor only).
    pub demand: u64,
    /// Bytes needed to keep already-accepted tokens resident.
    pub floor: u64,
}

/// One holder's input to a two-level tenant rebalance
/// ([`PoolBudget::rebalance_tenants`]): the per-holder
/// [`ShareRequest`] plus the tenant it bills to and the tenant's
/// fair-share weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantShareRequest {
    /// The per-holder demand/floor request.
    pub req: ShareRequest,
    /// Tenant this holder's reservation bills to.
    pub tenant: u64,
    /// The tenant's fair-share weight (≥ 1; every holder of one tenant
    /// must declare the same weight).
    pub weight: u32,
}

/// Split `total` bytes across tenants by weighted fair-share with
/// per-tenant byte limits (water-filling).
///
/// Input is one `(tenant, weight, limit, need)` row per tenant:
/// `weight` is the fair-share weight (≥ 1), `limit` the hard byte cap,
/// and `need` how many bytes the tenant can actually use (its demand /
/// floor bound — a work-conservation hint, so bytes a tenant cannot use
/// flow to hungrier tenants instead of stranding). Each tenant's budget
/// is bounded by `min(limit, need)`; the remaining pool is repeatedly
/// split across unbounded tenants proportionally to weight until every
/// tenant is either satisfied or the pool is spent. The integer
/// remainder goes to the heaviest unbounded tenant (lowest id on ties).
///
/// Guarantees, checked by the proptests in `tests/budget_props.rs`:
/// Σ budgets ≤ `total`; every budget ≤ its `limit`; a tenant with
/// positive weight, limit and need never gets 0 while bytes remain
/// (starvation-freedom); and raising one tenant's weight (all else
/// equal) never shrinks its budget (monotonicity).
pub fn tenant_weighted_budgets(total: u64, tenants: &[(u64, u32, u64, u64)]) -> Vec<(u64, u64)> {
    let mut budgets: Vec<(u64, u64)> = tenants.iter().map(|&(id, ..)| (id, 0)).collect();
    let bound = |i: usize| -> u64 {
        let (_, _, limit, need) = tenants[i];
        limit.min(need)
    };
    let mut open: Vec<usize> = (0..tenants.len())
        .filter(|&i| tenants[i].1 > 0 && bound(i) > 0)
        .collect();
    let mut remaining = total;
    // Water-filling: every pass either saturates at least one tenant at
    // its bound (and removes it) or distributes the remainder and
    // stops, so the loop runs at most `tenants.len()` times.
    while remaining > 0 && !open.is_empty() {
        let weight_sum: u128 = open.iter().map(|&i| u128::from(tenants[i].1)).sum();
        let mut saturated = false;
        let mut pass = remaining;
        open.retain(|&i| {
            let ideal = (u128::from(pass) * u128::from(tenants[i].1) / weight_sum) as u64;
            let headroom = bound(i) - budgets[i].1;
            if ideal >= headroom {
                budgets[i].1 += headroom;
                remaining -= headroom;
                saturated = true;
                false
            } else {
                true
            }
        });
        if saturated {
            continue;
        }
        // Nobody saturates: hand out the weighted split and stop. The
        // integer remainder goes to the heaviest open tenant (lowest
        // id on ties) so the pass conserves every byte it can place.
        pass = remaining;
        let weight_sum: u128 = open.iter().map(|&i| u128::from(tenants[i].1)).sum();
        for &i in &open {
            let ideal = (u128::from(pass) * u128::from(tenants[i].1) / weight_sum) as u64;
            budgets[i].1 += ideal;
            remaining -= ideal;
        }
        if remaining > 0 {
            let &top = open
                .iter()
                .max_by_key(|&&i| (tenants[i].1, std::cmp::Reverse(tenants[i].0)))
                .expect("open tenants remain");
            let extra = remaining.min(bound(top) - budgets[top].1);
            budgets[top].1 += extra;
        }
        break;
    }
    budgets
}

/// A byte-reservation ledger over a fixed device KV budget.
///
/// # Invariant
///
/// The sum of all reservations never exceeds the total: every mutation
/// that would break this fails (returning `false`) without changing any
/// state. `peak_reserved_bytes` records the lifetime high-water mark,
/// so tests can audit that a whole scheduling run stayed within budget.
///
/// # Example
///
/// ```
/// use ftts_kv::PoolBudget;
/// let mut pool = PoolBudget::new(100);
/// assert!(pool.reserve(1, 60));
/// assert!(!pool.reserve(2, 60)); // would overcommit
/// assert!(pool.resize(1, 50));
/// assert!(pool.reserve(2, 50));
/// assert_eq!(pool.release(1), 50);
/// assert_eq!(pool.reserved_bytes(), 50);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolBudget {
    total_bytes: u64,
    reserved: BTreeMap<u64, u64>,
    reserved_bytes: u64,
    peak_reserved: u64,
    /// Hard per-tenant byte caps ([`PoolBudget::set_tenant_cap`]),
    /// enforced by [`PoolBudget::rebalance_tenants`].
    tenant_caps: BTreeMap<u64, u64>,
    /// Per-tenant bytes granted by the last tenant rebalance.
    tenant_reserved: BTreeMap<u64, u64>,
    /// Lifetime high-water mark of each tenant's granted bytes.
    tenant_peak: BTreeMap<u64, u64>,
}

impl PoolBudget {
    /// A ledger over `total_bytes` of device KV memory.
    pub fn new(total_bytes: u64) -> Self {
        Self {
            total_bytes,
            reserved: BTreeMap::new(),
            reserved_bytes: 0,
            peak_reserved: 0,
            tenant_caps: BTreeMap::new(),
            tenant_reserved: BTreeMap::new(),
            tenant_peak: BTreeMap::new(),
        }
    }

    /// The fixed device budget.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes currently reserved across all holders.
    pub fn reserved_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.reserved_bytes,
            self.reserved.values().sum::<u64>(),
            "reservation ledger out of sync"
        );
        self.reserved_bytes
    }

    /// Bytes still available for new reservations.
    pub fn available_bytes(&self) -> u64 {
        self.total_bytes - self.reserved_bytes
    }

    /// Lifetime maximum of [`PoolBudget::reserved_bytes`] — never above
    /// the total, by construction.
    pub fn peak_reserved_bytes(&self) -> u64 {
        self.peak_reserved
    }

    /// Number of holders with a live reservation.
    pub fn holders(&self) -> usize {
        self.reserved.len()
    }

    /// A holder's current reservation (0 if none).
    pub fn share_of(&self, holder: u64) -> u64 {
        self.reserved.get(&holder).copied().unwrap_or(0)
    }

    /// The equal share `k` concurrent holders would each get. Integer
    /// division truncates: up to `k - 1` bytes are *not* covered by
    /// `k` such shares — callers resizing every holder to this value
    /// must hand [`PoolBudget::equal_share_remainder`] to one of them
    /// (mirroring the `proportional_shares` leftover rule) or they
    /// strand those bytes on every rebalance.
    pub fn equal_share(&self, k: usize) -> u64 {
        self.total_bytes / k.max(1) as u64
    }

    /// The bytes `k` equal shares leave uncovered
    /// (`total - k * equal_share(k)`, always `< k`). Deterministically
    /// assigning this remainder to one holder makes an equal-share
    /// rebalance conserve the full budget, exactly as
    /// [`PoolBudget::proportional_shares`] does with its leftover.
    pub fn equal_share_remainder(&self, k: usize) -> u64 {
        self.total_bytes - self.equal_share(k) * k.max(1) as u64
    }

    /// Reserve `bytes` for a new holder. Fails (changing nothing) if the
    /// holder already has a reservation or the budget cannot cover it.
    #[must_use]
    pub fn reserve(&mut self, holder: u64, bytes: u64) -> bool {
        if self.reserved.contains_key(&holder) || bytes > self.available_bytes() {
            return false;
        }
        self.reserved.insert(holder, bytes);
        self.reserved_bytes += bytes;
        self.peak_reserved = self.peak_reserved.max(self.reserved_bytes);
        true
    }

    /// Resize an existing reservation. Shrinking always succeeds;
    /// growing succeeds only if the extra bytes are available. Fails for
    /// unknown holders.
    #[must_use]
    pub fn resize(&mut self, holder: u64, bytes: u64) -> bool {
        let Some(current) = self.reserved.get(&holder).copied() else {
            return false;
        };
        if bytes > current && bytes - current > self.available_bytes() {
            return false;
        }
        self.reserved.insert(holder, bytes);
        self.reserved_bytes = self.reserved_bytes - current + bytes;
        self.peak_reserved = self.peak_reserved.max(self.reserved_bytes);
        true
    }

    /// Release a holder's reservation entirely, returning the bytes
    /// freed (0 for unknown holders).
    pub fn release(&mut self, holder: u64) -> u64 {
        let freed = self.reserved.remove(&holder).unwrap_or(0);
        self.reserved_bytes -= freed;
        freed
    }

    /// Plan demand-proportional elastic shares over the whole budget.
    ///
    /// Every holder is guaranteed an *effective floor* of
    /// `min(max(request.floor, total/(2k)), total/k)` — its declared
    /// floor, raised to a base share of half the equal split so nobody
    /// starves, and capped at the equal split so the floors always fit.
    /// The remaining bytes are split proportionally to declared demand
    /// (equally when every demand is 0), with the integer remainder
    /// handed to the highest-demand holder so the full budget is
    /// distributed: the returned shares sum to exactly `total_bytes`.
    ///
    /// Pure planning — the ledger is untouched; apply with
    /// [`PoolBudget::rebalance`].
    pub fn proportional_shares(&self, requests: &[ShareRequest]) -> Vec<(u64, u64)> {
        Self::plan_proportional(self.total_bytes, requests)
    }

    /// [`PoolBudget::proportional_shares`] over an arbitrary sub-budget
    /// — the within-tenant half of a two-level tenant rebalance plans
    /// each tenant's holders over that tenant's budget with exactly the
    /// global planner's floor/remainder rules.
    fn plan_proportional(total_bytes: u64, requests: &[ShareRequest]) -> Vec<(u64, u64)> {
        let k = requests.len() as u64;
        if k == 0 {
            return Vec::new();
        }
        let cap = total_bytes / k;
        let base = total_bytes / (2 * k);
        let floors: Vec<u64> = requests
            .iter()
            .map(|r| r.floor.max(base).min(cap))
            .collect();
        let floored: u64 = floors.iter().sum();
        let remaining = total_bytes - floored; // floors ≤ k·cap ≤ total
        let weight_sum: u128 = requests.iter().map(|r| r.demand as u128).sum();
        let mut shares: Vec<(u64, u64)> = requests
            .iter()
            .zip(&floors)
            .map(|(r, &floor)| {
                let weighted = (remaining as u128 * r.demand as u128)
                    .checked_div(weight_sum)
                    .map_or_else(|| remaining / k, |w| w as u64);
                (r.holder, floor + weighted)
            })
            .collect();
        // Hand the rounding remainder to the hungriest holder: the full
        // budget is always distributed, so reclaiming idle reservation
        // conserves bytes instead of leaking them.
        let distributed: u64 = shares.iter().map(|&(_, s)| s).sum();
        let leftover = total_bytes - distributed;
        if leftover > 0 {
            let (pos, _) = requests
                .iter()
                .enumerate()
                .max_by_key(|(i, r)| (r.demand, std::cmp::Reverse(*i)))
                .expect("non-empty requests");
            shares[pos].1 += leftover;
        }
        shares
    }

    /// Atomically re-share the whole budget among the current holders by
    /// demand ([`PoolBudget::proportional_shares`]). Fails (changing
    /// nothing) unless `requests` names exactly the live holders. On
    /// success the ledger is fully subscribed (`reserved_bytes ==
    /// total_bytes`), every share respects its effective floor, and no
    /// overcommit is possible by construction.
    #[must_use]
    pub fn rebalance(&mut self, requests: &[ShareRequest]) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        if requests.len() != self.reserved.len()
            || requests
                .iter()
                .any(|r| !self.reserved.contains_key(&r.holder) || !seen.insert(r.holder))
        {
            return false;
        }
        // Distinct holders, all present, same count ⇒ exact cover.
        let shares = self.proportional_shares(requests);
        for &(holder, share) in &shares {
            self.reserved.insert(holder, share);
        }
        self.reserved_bytes = self.reserved.values().sum();
        debug_assert_eq!(self.reserved_bytes, self.total_bytes);
        self.peak_reserved = self.peak_reserved.max(self.reserved_bytes);
        true
    }

    /// Set a hard byte cap for `tenant`, enforced by every subsequent
    /// [`PoolBudget::rebalance_tenants`]. Tenants without a cap are
    /// bounded only by the pool.
    pub fn set_tenant_cap(&mut self, tenant: u64, cap_bytes: u64) {
        self.tenant_caps.insert(tenant, cap_bytes);
    }

    /// The cap configured for `tenant` (`u64::MAX` when uncapped).
    pub fn tenant_cap(&self, tenant: u64) -> u64 {
        self.tenant_caps.get(&tenant).copied().unwrap_or(u64::MAX)
    }

    /// Bytes granted to `tenant`'s holders by the last tenant
    /// rebalance (0 before any).
    pub fn tenant_reserved(&self, tenant: u64) -> u64 {
        self.tenant_reserved.get(&tenant).copied().unwrap_or(0)
    }

    /// Every tenant's lifetime high-water mark of
    /// [`PoolBudget::tenant_reserved`], in tenant-id order: the
    /// steady-state shares the scheduler actually granted, audited
    /// against the cap by the noisy-neighbor bench.
    pub fn tenant_peaks(&self) -> Vec<(u64, u64)> {
        self.tenant_peak.iter().map(|(&t, &b)| (t, b)).collect()
    }

    /// Atomically re-share the budget among the current holders with
    /// two-level tenant fair-share: the pool is first split across the
    /// tenants present by weighted fair-share
    /// ([`tenant_weighted_budgets`]) — each tenant bounded by its
    /// configured cap and by what its holders can use (Σ demand/floor)
    /// — then each tenant's budget is split among its own holders with
    /// the demand-proportional planner
    /// ([`PoolBudget::proportional_shares`] over the tenant budget).
    ///
    /// This is where per-tenant caps are *enforced*: the plan can never
    /// grant a tenant's holders more than the tenant's cap, and the
    /// per-tenant grant (plus its lifetime peak) is recorded for audit.
    /// Unlike [`PoolBudget::rebalance`] the ledger may end
    /// under-subscribed — bytes a cap withholds stay free rather than
    /// spilling to other tenants' floors.
    ///
    /// Fails (changing nothing) unless `requests` names exactly the
    /// live holders, or if holders of one tenant disagree on weight.
    #[must_use]
    pub fn rebalance_tenants(&mut self, requests: &[TenantShareRequest]) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        if requests.len() != self.reserved.len()
            || requests
                .iter()
                .any(|r| !self.reserved.contains_key(&r.req.holder) || !seen.insert(r.req.holder))
        {
            return false;
        }
        // Group holders per tenant (BTreeMap: deterministic order).
        let mut groups: BTreeMap<u64, (u32, Vec<ShareRequest>)> = BTreeMap::new();
        for r in requests {
            let entry = groups.entry(r.tenant).or_insert((r.weight, Vec::new()));
            if entry.0 != r.weight {
                return false; // holders of one tenant must agree
            }
            entry.1.push(r.req);
        }
        // Level 1: weighted fair-share across the tenants present. A
        // tenant's usable bound is what its holders ask for — demand,
        // never below the floors that keep accepted tokens resident,
        // and never below the base share its holders are guaranteed —
        // so idle tenants release pool to hungry ones (work
        // conservation) without ever dipping below their floors.
        let rows: Vec<(u64, u32, u64, u64)> = groups
            .iter()
            .map(|(&tenant, (weight, reqs))| {
                let demand: u64 = reqs.iter().map(|r| r.demand).sum();
                let floor: u64 = reqs.iter().map(|r| r.floor).sum();
                let base = (self.total_bytes / (2 * requests.len() as u64).max(1))
                    .saturating_mul(reqs.len() as u64);
                let need = demand.max(floor).max(base);
                (tenant, *weight, self.tenant_cap(tenant), need)
            })
            .collect();
        let budgets = tenant_weighted_budgets(self.total_bytes, &rows);
        // Level 2: each tenant's holders split the tenant budget with
        // the demand-proportional planner (floors clamped to the
        // tenant's equal split exactly as the global planner clamps to
        // the pool's — a holder whose true working set exceeds its
        // clamped share relies on preemption/readmission, it never
        // steals from another tenant).
        self.tenant_reserved.clear();
        for (&tenant, (_, reqs)) in &groups {
            let budget = budgets
                .iter()
                .find(|&&(t, _)| t == tenant)
                .map_or(0, |&(_, b)| b);
            debug_assert!(budget <= self.tenant_cap(tenant), "cap enforced by planner");
            let mut granted = 0;
            for (holder, share) in Self::plan_proportional(budget, reqs) {
                self.reserved.insert(holder, share);
                granted += share;
            }
            self.tenant_reserved.insert(tenant, granted);
            let peak = self.tenant_peak.entry(tenant).or_insert(0);
            *peak = (*peak).max(granted);
        }
        self.reserved_bytes = self.reserved.values().sum();
        debug_assert!(self.reserved_bytes <= self.total_bytes);
        self.peak_reserved = self.peak_reserved.max(self.reserved_bytes);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_resize_release_roundtrip() {
        let mut p = PoolBudget::new(100);
        assert!(p.reserve(7, 40));
        assert!(p.reserve(8, 60));
        assert_eq!(p.available_bytes(), 0);
        assert_eq!(p.holders(), 2);
        assert!(p.resize(7, 20));
        assert_eq!(p.available_bytes(), 20);
        assert!(p.resize(8, 80));
        assert_eq!(p.release(7), 20);
        assert_eq!(p.release(8), 80);
        assert_eq!(p.reserved_bytes(), 0);
        assert_eq!(p.peak_reserved_bytes(), 100);
    }

    #[test]
    fn overcommit_is_rejected_without_side_effects() {
        let mut p = PoolBudget::new(50);
        assert!(p.reserve(1, 30));
        assert!(!p.reserve(2, 30));
        assert_eq!(p.holders(), 1);
        assert!(!p.resize(1, 60));
        assert_eq!(p.share_of(1), 30);
        assert_eq!(p.peak_reserved_bytes(), 30);
    }

    #[test]
    fn duplicate_and_unknown_holders_fail() {
        let mut p = PoolBudget::new(50);
        assert!(p.reserve(1, 10));
        assert!(!p.reserve(1, 10), "double reservation must fail");
        assert!(!p.resize(2, 10), "unknown holder cannot resize");
        assert_eq!(p.release(2), 0, "unknown holder releases nothing");
        assert_eq!(p.share_of(2), 0);
    }

    #[test]
    fn equal_share_divides_the_budget() {
        let p = PoolBudget::new(99);
        assert_eq!(p.equal_share(1), 99);
        assert_eq!(p.equal_share(3), 33);
        assert_eq!(p.equal_share(0), 99, "zero holders degrades to full");
    }

    #[test]
    fn equal_share_remainder_covers_the_truncation() {
        for total in [0u64, 1, 99, 100, 1 << 30] {
            let p = PoolBudget::new(total);
            for k in 0usize..=7 {
                let share = p.equal_share(k);
                let rem = p.equal_share_remainder(k);
                assert_eq!(share * k.max(1) as u64 + rem, total);
                assert!(rem < k.max(1) as u64);
            }
        }
    }

    fn req(holder: u64, demand: u64, floor: u64) -> ShareRequest {
        ShareRequest {
            holder,
            demand,
            floor,
        }
    }

    #[test]
    fn proportional_shares_follow_demand_and_conserve_bytes() {
        let p = PoolBudget::new(1200);
        let shares = p.proportional_shares(&[req(1, 900, 0), req(2, 300, 0), req(3, 0, 0)]);
        let total: u64 = shares.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 1200, "full budget distributed");
        let of = |h: u64| shares.iter().find(|&&(x, _)| x == h).unwrap().1;
        // Base floor is total/(2k) = 200; the idle holder gets exactly it.
        assert_eq!(of(3), 200);
        assert!(of(1) > of(2), "deeper demand earns the bigger share");
        assert!(of(2) > of(3));
    }

    #[test]
    fn proportional_floors_are_respected_and_capped() {
        let p = PoolBudget::new(900);
        // Declared floor above the equal split is capped to it (300).
        let shares = p.proportional_shares(&[req(1, 0, 800), req(2, 0, 0), req(3, 0, 0)]);
        let of = |h: u64| shares.iter().find(|&&(x, _)| x == h).unwrap().1;
        assert!(of(1) >= 300, "floor capped at the equal split");
        assert!(of(2) >= 150 && of(3) >= 150, "base floor total/(2k)");
        assert_eq!(shares.iter().map(|&(_, s)| s).sum::<u64>(), 900);
        assert!(p.proportional_shares(&[]).is_empty());
    }

    #[test]
    fn rebalance_is_atomic_and_validates_holders() {
        let mut p = PoolBudget::new(100);
        assert!(p.reserve(1, 50));
        assert!(p.reserve(2, 50));
        // Unknown holder, missing holder, duplicate holder: all rejected.
        assert!(!p.rebalance(&[req(1, 1, 0), req(3, 1, 0)]));
        assert!(!p.rebalance(&[req(1, 1, 0)]));
        assert!(!p.rebalance(&[req(1, 1, 0), req(1, 1, 0)]));
        assert_eq!(p.share_of(1), 50);
        assert_eq!(p.share_of(2), 50);
        // A valid rebalance re-shares the full budget by demand.
        assert!(p.rebalance(&[req(1, 300, 0), req(2, 100, 0)]));
        assert_eq!(p.reserved_bytes(), 100);
        assert!(p.share_of(1) > p.share_of(2));
        assert!(p.share_of(2) >= 25, "base floor total/(2k)");
        assert!(p.peak_reserved_bytes() <= p.total_bytes());
    }

    #[test]
    fn rebalance_reclaims_idle_reservation() {
        let mut p = PoolBudget::new(1000);
        assert!(p.reserve(1, 500));
        assert!(p.reserve(2, 500));
        // Holder 1 went idle (tiny demand); its excess flows to holder 2
        // without any release/re-reserve churn.
        assert!(p.rebalance(&[req(1, 10, 100), req(2, 2000, 100)]));
        assert!(p.share_of(2) > 500);
        assert!(p.share_of(1) >= 100, "floor keeps accepted tokens resident");
        assert_eq!(
            p.share_of(1) + p.share_of(2),
            1000,
            "reclaim conserves bytes"
        );
    }

    fn treq(holder: u64, tenant: u64, weight: u32, demand: u64, floor: u64) -> TenantShareRequest {
        TenantShareRequest {
            req: req(holder, demand, floor),
            tenant,
            weight,
        }
    }

    #[test]
    fn tenant_budgets_follow_weights_and_respect_limits() {
        // Weight 3:1, no binding caps: the split follows the weights.
        let b = tenant_weighted_budgets(
            1000,
            &[(0, 3, u64::MAX, 1_000_000), (1, 1, u64::MAX, 1_000_000)],
        );
        assert_eq!(b, vec![(0, 750), (1, 250)]);
        // A binding cap saturates the heavy tenant; the rest flows on.
        let b =
            tenant_weighted_budgets(1000, &[(0, 3, 300, 1_000_000), (1, 1, u64::MAX, 1_000_000)]);
        assert_eq!(b, vec![(0, 300), (1, 700)]);
        // Need bounds a tenant the same way a cap does.
        let b =
            tenant_weighted_budgets(1000, &[(0, 1, u64::MAX, 100), (1, 1, u64::MAX, 1_000_000)]);
        assert_eq!(b, vec![(0, 100), (1, 900)]);
        // Never over-distributes.
        let b = tenant_weighted_budgets(100, &[(0, 1, 30, 10), (1, 1, 20, 5)]);
        let total: u64 = b.iter().map(|&(_, x)| x).sum();
        assert!(total <= 100);
        assert!(b.iter().all(|&(t, x)| x <= if t == 0 { 10 } else { 5 }));
    }

    #[test]
    fn tenant_budgets_are_monotone_in_weight() {
        let base = tenant_weighted_budgets(
            10_000,
            &[(0, 2, u64::MAX, u64::MAX), (1, 2, u64::MAX, u64::MAX)],
        );
        let boosted = tenant_weighted_budgets(
            10_000,
            &[(0, 5, u64::MAX, u64::MAX), (1, 2, u64::MAX, u64::MAX)],
        );
        assert!(boosted[0].1 >= base[0].1);
    }

    #[test]
    fn rebalance_tenants_enforces_caps_and_tracks_peaks() {
        let mut p = PoolBudget::new(1000);
        p.set_tenant_cap(1, 400);
        assert!(p.reserve(10, 500));
        assert!(p.reserve(11, 500));
        // Holder 10 bills tenant 0 (uncapped), holder 11 tenant 1
        // (capped at 400) — both hungry, equal weight.
        assert!(p.rebalance_tenants(&[treq(10, 0, 1, 10_000, 100), treq(11, 1, 1, 10_000, 100),]));
        assert!(p.tenant_reserved(1) <= 400, "cap must bind");
        assert_eq!(p.share_of(11), p.tenant_reserved(1));
        assert!(
            p.share_of(10) >= p.share_of(11),
            "uncapped tenant gets the slack"
        );
        assert!(p.reserved_bytes() <= p.total_bytes());
        let first = p.tenant_reserved(1);
        assert_eq!(p.tenant_peaks(), [(0, p.tenant_reserved(0)), (1, first)]);
        // Peak is a high-water mark: shrinking the tenant's grant later
        // must not lower it.
        let peak_0 = p.tenant_reserved(0);
        assert!(p.rebalance_tenants(&[treq(10, 0, 1, 10_000, 100), treq(11, 1, 1, 0, 0),]));
        assert!(p.tenant_reserved(1) <= first);
        assert_eq!(
            p.tenant_peaks(),
            [(0, peak_0.max(p.tenant_reserved(0))), (1, first)]
        );
    }

    #[test]
    fn rebalance_tenants_validates_holders_and_weights() {
        let mut p = PoolBudget::new(100);
        assert!(p.reserve(1, 50));
        assert!(p.reserve(2, 50));
        // Unknown holder / missing holder / duplicate holder.
        assert!(!p.rebalance_tenants(&[treq(1, 0, 1, 1, 0), treq(3, 0, 1, 1, 0)]));
        assert!(!p.rebalance_tenants(&[treq(1, 0, 1, 1, 0)]));
        assert!(!p.rebalance_tenants(&[treq(1, 0, 1, 1, 0), treq(1, 0, 1, 1, 0)]));
        // Holders of one tenant disagreeing on weight.
        assert!(!p.rebalance_tenants(&[treq(1, 0, 1, 1, 0), treq(2, 0, 2, 1, 0)]));
        assert_eq!(p.share_of(1), 50, "failures change nothing");
    }

    #[test]
    fn single_tenant_rebalance_matches_untenanted_planning() {
        // One tenant with no cap degenerates to the demand-proportional
        // planner over the whole pool.
        let mut a = PoolBudget::new(1200);
        assert!(a.reserve(1, 600));
        assert!(a.reserve(2, 600));
        assert!(a.rebalance(&[req(1, 900, 50), req(2, 300, 50)]));
        let mut b = PoolBudget::new(1200);
        assert!(b.reserve(1, 600));
        assert!(b.reserve(2, 600));
        assert!(b.rebalance_tenants(&[treq(1, 7, 1, 900, 50), treq(2, 7, 1, 300, 50)]));
        assert_eq!(a.share_of(1), b.share_of(1));
        assert_eq!(a.share_of(2), b.share_of(2));
    }

    #[test]
    fn peak_tracks_high_water_not_current() {
        let mut p = PoolBudget::new(100);
        assert!(p.reserve(1, 70));
        p.release(1);
        assert!(p.reserve(2, 10));
        assert_eq!(p.peak_reserved_bytes(), 70);
        assert_eq!(p.reserved_bytes(), 10);
    }
}
