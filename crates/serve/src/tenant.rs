//! The per-tenant admission ledger the protocol layer runs on.
//!
//! The scheduler's [`ftts_core::TenantPolicy`] enforces caps at KV
//! rebalance boundaries *inside* a simulation; [`TenantBudget`] is its
//! front door. It tracks, per tenant, the cold working-set bytes of
//! every open (submitted, not yet resolved) request and the open-
//! request count, and refuses a `submit` that would blow through the
//! tenant's hard cap or admission quota — working-set-aware early
//! rejection, before the request ever reaches the scheduler.

use std::collections::BTreeMap;

/// Why a submission was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant id is not registered with the ledger.
    UnknownTenant {
        /// The offending id.
        tenant: u32,
    },
    /// The request's cold working set cannot fit the tenant's hard cap
    /// (or the device pool) even with everything else evicted.
    Oversized {
        /// Bytes the request needs cold.
        need: u64,
        /// The binding limit it failed against.
        limit: u64,
    },
    /// The tenant is at its open-request quota.
    QuotaExhausted {
        /// Open requests currently held.
        open: usize,
        /// The quota.
        max_open: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Account {
    cap: u64,
    max_open: usize,
    reserved: u64,
    open: usize,
}

/// Per-tenant admission ledger: hard byte caps and open-request quotas
/// over one device KV pool.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantBudget {
    pool: u64,
    accounts: BTreeMap<u32, Account>,
}

impl TenantBudget {
    /// An empty ledger over a pool of `pool_bytes`.
    ///
    /// # Panics
    ///
    /// Panics on an empty pool.
    pub fn new(pool_bytes: u64) -> Self {
        assert!(pool_bytes > 0, "pool must be non-empty");
        Self {
            pool: pool_bytes,
            accounts: BTreeMap::new(),
        }
    }

    /// Register a tenant. `cap_bytes` is the hard KV cap (`u64::MAX` =
    /// uncapped), `max_open` the admission quota (`0` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics on a zero cap or a duplicate id.
    pub fn register(&mut self, id: u32, cap_bytes: u64, max_open: usize) {
        assert!(cap_bytes > 0, "a zero cap would admit nothing");
        let prev = self.accounts.insert(
            id,
            Account {
                cap: cap_bytes,
                max_open: if max_open == 0 { usize::MAX } else { max_open },
                reserved: 0,
                open: 0,
            },
        );
        assert!(prev.is_none(), "tenant {id} registered twice");
    }

    /// Admit one request of `bytes` cold working set for `tenant`,
    /// reserving the bytes and an open slot.
    ///
    /// # Errors
    ///
    /// Refuses unknown tenants, working sets that cannot fit the
    /// tenant's cap or the pool, and tenants at their quota. A refusal
    /// leaves the ledger untouched.
    pub fn try_admit(&mut self, tenant: u32, bytes: u64) -> Result<(), AdmitError> {
        let account = self
            .accounts
            .get_mut(&tenant)
            .ok_or(AdmitError::UnknownTenant { tenant })?;
        let limit = account.cap.min(self.pool);
        if bytes > limit {
            return Err(AdmitError::Oversized { need: bytes, limit });
        }
        if account.open >= account.max_open {
            return Err(AdmitError::QuotaExhausted {
                open: account.open,
                max_open: account.max_open,
            });
        }
        if account.reserved.saturating_add(bytes) > account.cap {
            return Err(AdmitError::Oversized {
                need: account.reserved.saturating_add(bytes),
                limit: account.cap,
            });
        }
        account.reserved += bytes;
        account.open += 1;
        Ok(())
    }

    /// Release one open request of `bytes` for `tenant` (completion or
    /// cancellation).
    ///
    /// # Panics
    ///
    /// Panics on an unknown tenant or a release the ledger never
    /// admitted — both are caller bugs.
    pub fn release(&mut self, tenant: u32, bytes: u64) {
        let account = self
            .accounts
            .get_mut(&tenant)
            .unwrap_or_else(|| panic!("release for unknown tenant {tenant}"));
        assert!(account.open > 0, "tenant {tenant} has no open requests");
        assert!(
            account.reserved >= bytes,
            "tenant {tenant} releasing {bytes} of {} reserved",
            account.reserved
        );
        account.reserved -= bytes;
        account.open -= 1;
    }

    /// Bytes currently reserved by `tenant`'s open requests.
    pub fn reserved(&self, tenant: u32) -> u64 {
        self.accounts.get(&tenant).map_or(0, |a| a.reserved)
    }

    /// Open requests `tenant` currently holds.
    pub fn open(&self, tenant: u32) -> usize {
        self.accounts.get(&tenant).map_or(0, |a| a.open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_reserves_and_release_returns() {
        let mut b = TenantBudget::new(1000);
        b.register(1, 400, 2);
        b.try_admit(1, 300).expect("fits");
        assert_eq!(b.reserved(1), 300);
        assert_eq!(b.open(1), 1);
        assert_eq!(
            b.try_admit(1, 300),
            Err(AdmitError::Oversized {
                need: 600,
                limit: 400
            }),
            "cap binds across open requests"
        );
        b.try_admit(1, 100).expect("still fits");
        assert_eq!(
            b.try_admit(1, 1),
            Err(AdmitError::QuotaExhausted {
                open: 2,
                max_open: 2
            })
        );
        b.release(1, 300);
        b.try_admit(1, 1).expect("slot freed");
    }

    #[test]
    fn unknown_tenants_and_pool_misfits_are_refused() {
        let mut b = TenantBudget::new(1000);
        b.register(0, u64::MAX, 0);
        assert_eq!(
            b.try_admit(9, 1),
            Err(AdmitError::UnknownTenant { tenant: 9 })
        );
        assert_eq!(
            b.try_admit(0, 2000),
            Err(AdmitError::Oversized {
                need: 2000,
                limit: 1000
            }),
            "uncapped tenants are still bounded by the pool"
        );
    }
}
