//! Per-tenant fair-share policy for the request scheduler.
//!
//! PR 6 gave individual requests SLO classes and deadlines; this module
//! adds the *tenant* axis on top: every [`RequestArrival`] bills to a
//! tenant (`arrival.tenant`), and a [`TenantPolicy`] attached to
//! [`BatchConfig::with_tenants`] makes the scheduler arbitrate the
//! shared KV pool **across tenants first, requests second**:
//!
//! * **Weighted fair-share at rebalance boundaries.** At every
//!   admission / completion / preemption / drift boundary the pool is
//!   split across the tenants present by weight (water-filling, see
//!   [`ftts_kv::tenant_weighted_budgets`]), each tenant bounded by its
//!   hard KV cap, then each tenant's budget is split among its own
//!   requests demand-proportionally. A noisy tenant therefore competes
//!   with *itself* for its own budget instead of starving neighbours.
//! * **Hard KV byte caps.** [`ftts_kv::PoolBudget::rebalance_tenants`]
//!   never grants a tenant's requests more than the tenant's cap; the
//!   per-tenant steady-state peak is recorded in
//!   [`BatchRun::tenant_peak_bytes`] for audit.
//! * **Per-tenant admission quotas.** At most
//!   [`TenantSpec::max_in_flight`] of a tenant's requests hold device
//!   reservations at once; further arrivals queue (without blocking
//!   other tenants' arrivals behind them).
//! * **Working-set-aware early rejection.** Under SLO enforcement, an
//!   arrival whose *cold* prompt working set could never fit its
//!   tenant's cap is shed immediately instead of burning device time.
//!
//! `tenants: None` (the default everywhere) is bit-inert: every
//! existing scheduling path is untouched.
//!
//! [`BatchConfig::with_tenants`]: crate::BatchConfig::with_tenants
//! [`BatchRun::tenant_peak_bytes`]: crate::BatchRun
//! [`RequestArrival`]: ftts_workload::RequestArrival

use serde::{Deserialize, Serialize};

/// Maximum tenants one [`TenantPolicy`] can carry. The policy rides
/// inside the `Copy` scheduler config, so it is a fixed-capacity
/// inline table rather than a heap collection.
pub const MAX_TENANTS: usize = 8;

/// One tenant's isolation contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant id, matched against [`ftts_workload::RequestArrival`]
    /// `tenant` fields.
    pub id: u32,
    /// Fair-share weight (≥ 1): the pool splits across contending
    /// tenants proportionally to weight.
    pub weight: u32,
    /// Hard cap on the tenant's total KV grant, bytes.
    pub kv_cap_bytes: u64,
    /// Maximum requests of this tenant holding device reservations at
    /// once (0 = unlimited).
    pub max_in_flight: u32,
}

impl TenantSpec {
    /// The in-flight quota as a comparable count (`usize::MAX` when
    /// unlimited).
    pub fn quota(&self) -> usize {
        if self.max_in_flight == 0 {
            usize::MAX
        } else {
            self.max_in_flight as usize
        }
    }
}

/// A validated, fixed-capacity table of [`TenantSpec`]s.
///
/// Requests billing to a tenant *not* in the table fall back to
/// [`TenantPolicy::DEFAULT_SPEC`] (weight 1, uncapped, no quota) — the
/// serving front-end rejects unknown tenants at the wire, so inside the
/// simulator this is a graceful default rather than an error path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantPolicy {
    specs: [TenantSpec; MAX_TENANTS],
    len: usize,
}

impl TenantPolicy {
    /// The fallback contract for tenants outside the table.
    pub const DEFAULT_SPEC: TenantSpec = TenantSpec {
        id: u32::MAX,
        weight: 1,
        kv_cap_bytes: u64::MAX,
        max_in_flight: 0,
    };

    /// Build a policy from up to [`MAX_TENANTS`] specs.
    ///
    /// # Panics
    ///
    /// On more than [`MAX_TENANTS`] specs, duplicate tenant ids, a zero
    /// weight, or a zero byte cap (use `u64::MAX` for "uncapped").
    pub fn new(specs: &[TenantSpec]) -> Self {
        assert!(
            specs.len() <= MAX_TENANTS,
            "at most {MAX_TENANTS} tenants per policy"
        );
        let mut table = [Self::DEFAULT_SPEC; MAX_TENANTS];
        for (i, spec) in specs.iter().enumerate() {
            assert!(spec.weight >= 1, "tenant weight must be >= 1");
            assert!(spec.kv_cap_bytes > 0, "tenant KV cap must be > 0");
            assert!(
                specs[..i].iter().all(|s| s.id != spec.id),
                "duplicate tenant id {}",
                spec.id
            );
            table[i] = *spec;
        }
        Self {
            specs: table,
            len: specs.len(),
        }
    }

    /// The configured specs, in declaration order.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs[..self.len]
    }

    /// The contract for `tenant` ([`TenantPolicy::DEFAULT_SPEC`] when
    /// absent from the table).
    pub fn spec(&self, tenant: u32) -> TenantSpec {
        self.specs()
            .iter()
            .find(|s| s.id == tenant)
            .copied()
            .unwrap_or(Self::DEFAULT_SPEC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32, weight: u32, cap: u64, quota: u32) -> TenantSpec {
        TenantSpec {
            id,
            weight,
            kv_cap_bytes: cap,
            max_in_flight: quota,
        }
    }

    #[test]
    fn policy_lookup_and_fallback() {
        let p = TenantPolicy::new(&[spec(0, 3, 1000, 2), spec(7, 1, 500, 0)]);
        assert_eq!(p.specs().len(), 2);
        assert_eq!(p.spec(0).weight, 3);
        assert_eq!(p.spec(7).quota(), usize::MAX);
        assert_eq!(p.spec(0).quota(), 2);
        assert_eq!(p.spec(42), TenantPolicy::DEFAULT_SPEC);
    }

    #[test]
    #[should_panic(expected = "duplicate tenant id")]
    fn duplicate_ids_are_rejected() {
        let _ = TenantPolicy::new(&[spec(1, 1, 10, 0), spec(1, 1, 10, 0)]);
    }

    #[test]
    #[should_panic(expected = "weight must be >= 1")]
    fn zero_weight_is_rejected() {
        let _ = TenantPolicy::new(&[spec(1, 0, 10, 0)]);
    }
}
