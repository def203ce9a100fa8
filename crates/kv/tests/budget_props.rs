//! Property-based tests for the elastic [`PoolBudget`] ledger.
//!
//! The demand-proportional rebalance is what lets deep beam searches
//! outgrow an equal split without ever endangering the ledger's core
//! guarantee, so the invariants are checked under randomized mixes of
//! reserve / resize / release / rebalance:
//!
//! 1. **Never overcommitted** — reservations (and their lifetime peak)
//!    never exceed the pool, no matter the op sequence.
//! 2. **Reclaim conserves bytes** — a rebalance redistributes exactly
//!    the full budget: idle reservation flows to hungry holders, no
//!    byte leaks, no byte is minted.
//! 3. **No starvation** — every holder's share stays at or above the
//!    base floor `total/(2k)`.
//! 4. **No stranding** — a share never drops below the holder's
//!    declared accepted-token floor (capped at the equal split, which
//!    is the most `k` holders can each be guaranteed).
//!
//! The per-tenant water-filling rule, [`tenant_weighted_budgets`], is
//! checked over randomized tenant populations: its budgets sum to at
//! most the pool and respect each tenant's cap, raising one tenant's
//! weight never shrinks its budget, and no tenant with positive demand
//! starves beside a greedy one.

use ftts_kv::{tenant_weighted_budgets, PoolBudget, ShareRequest};
use proptest::prelude::*;

/// One scripted ledger operation.
#[derive(Debug, Clone)]
enum Op {
    Reserve(u64, u64),
    Resize(u64, u64),
    Release(u64),
    /// Rebalance all live holders with per-holder (demand, floor) drawn
    /// from the two seeds.
    Rebalance(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u64..6), (0u64..2000)).prop_map(|(h, b)| Op::Reserve(h, b)),
        ((0u64..6), (0u64..2000)).prop_map(|(h, b)| Op::Resize(h, b)),
        (0u64..6).prop_map(Op::Release),
        ((1u64..1000), (0u64..1000)).prop_map(|(d, f)| Op::Rebalance(d, f)),
    ]
}

/// Deterministic per-holder demand/floor derived from the script seeds.
fn share_requests(pool: &PoolBudget, demand_seed: u64, floor_seed: u64) -> Vec<ShareRequest> {
    (0u64..6)
        .filter(|h| pool.share_of(*h) > 0 || pool_has(pool, *h))
        .map(|h| ShareRequest {
            holder: h,
            demand: (h + 1) * demand_seed % 1700,
            floor: (h + 1) * floor_seed % 900,
        })
        .collect()
}

/// A reproducible tenant population over a pool: ids `0..n` with
/// derived weights (1–4) and caps (uncapped, or one to three quarters
/// of the pool), as `(id, weight, cap)` rows.
fn tenants(pool: u64, n: usize, seed: u64) -> Vec<(u64, u32, u64)> {
    (0..n as u64)
        .map(|id| {
            let mix = seed.wrapping_mul(0x9E37_79B9).wrapping_add(id);
            let weight = 1 + u32::try_from(mix % 4).expect("small");
            let cap = if mix % 3 == 0 {
                u64::MAX
            } else {
                (pool / 4).max(1) * (1 + mix % 3)
            };
            (id, weight, cap)
        })
        .collect()
}

/// `share_of` returns 0 both for unknown holders and zero-byte
/// reservations; a zero-byte reservation is still a live holder.
fn pool_has(pool: &PoolBudget, holder: u64) -> bool {
    // Probe: a duplicate reserve fails only for live holders.
    let mut probe = pool.clone();
    !probe.reserve(holder, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn elastic_ledger_invariants_hold(
        total in 64u64..4096,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut pool = PoolBudget::new(total);
        for op in &ops {
            match *op {
                Op::Reserve(h, b) => {
                    let before = pool.reserved_bytes();
                    let ok = pool.reserve(h, b);
                    if !ok {
                        prop_assert_eq!(pool.reserved_bytes(), before, "failed op mutated state");
                    }
                }
                Op::Resize(h, b) => {
                    let _ = pool.resize(h, b);
                }
                Op::Release(h) => {
                    let _ = pool.release(h);
                }
                Op::Rebalance(demand_seed, floor_seed) => {
                    let reqs = share_requests(&pool, demand_seed, floor_seed);
                    let holders = pool.holders();
                    if reqs.len() != holders || holders == 0 {
                        continue;
                    }
                    let before = pool.reserved_bytes();
                    let ok = pool.rebalance(&reqs);
                    if !ok {
                        prop_assert_eq!(pool.reserved_bytes(), before);
                        continue;
                    }
                    let k = reqs.len() as u64;
                    // (2) Reclaim conserves bytes: the whole budget and
                    // nothing but the budget is distributed.
                    prop_assert_eq!(pool.reserved_bytes(), total);
                    let sum: u64 = reqs.iter().map(|r| pool.share_of(r.holder)).sum();
                    prop_assert_eq!(sum, total, "shares must cover the ledger exactly");
                    for r in &reqs {
                        let share = pool.share_of(r.holder);
                        // (3) No starvation below the base floor.
                        prop_assert!(
                            share >= total / (2 * k),
                            "holder {} starved: {} < base floor {}",
                            r.holder, share, total / (2 * k)
                        );
                        // (4) Accepted tokens are never stranded: the
                        // declared floor holds up to the equal split.
                        prop_assert!(
                            share >= r.floor.min(total / k),
                            "holder {} stranded: {} < floor {}",
                            r.holder, share, r.floor.min(total / k)
                        );
                    }
                }
            }
            // (1) Never overcommitted, at every step.
            prop_assert!(pool.reserved_bytes() <= pool.total_bytes());
            prop_assert!(pool.peak_reserved_bytes() <= pool.total_bytes());
            prop_assert!(pool.available_bytes() <= pool.total_bytes());
        }
    }

    #[test]
    fn planned_shares_always_fit_and_respect_floors(
        total in 1u64..1_000_000,
        demands in prop::collection::vec(0u64..1_000_000, 1..9),
        floors in prop::collection::vec(0u64..1_000_000, 1..9),
    ) {
        let pool = PoolBudget::new(total);
        let k = demands.len().min(floors.len());
        let reqs: Vec<ShareRequest> = (0..k)
            .map(|i| ShareRequest { holder: i as u64, demand: demands[i], floor: floors[i] })
            .collect();
        let shares = pool.proportional_shares(&reqs);
        prop_assert_eq!(shares.len(), k);
        prop_assert_eq!(shares.iter().map(|&(_, s)| s).sum::<u64>(), total);
        for (r, &(h, s)) in reqs.iter().zip(&shares) {
            prop_assert_eq!(h, r.holder);
            prop_assert!(s >= total / (2 * k as u64));
            prop_assert!(s >= r.floor.min(total / k as u64));
        }
    }

    #[test]
    fn shares_sum_within_pool_and_respect_caps(
        pool in 1_000u64..1_000_000,
        n in 1usize..5,
        seed in 0u64..10_000,
        demands in prop::collection::vec(0u64..2_000_000, 5..6),
    ) {
        let rows = tenants(pool, n, seed);
        let needs: Vec<(u64, u32, u64, u64)> = rows
            .iter()
            .map(|&(id, weight, cap)| (id, weight, cap, demands[id as usize]))
            .collect();
        let shares = tenant_weighted_budgets(pool, &needs);
        prop_assert_eq!(shares.len(), n);
        prop_assert!(shares.iter().map(|&(_, s)| s).sum::<u64>() <= pool, "pool never oversubscribed");
        for (&(tenant, share), &(id, _, cap)) in shares.iter().zip(&rows) {
            prop_assert_eq!(tenant, id);
            prop_assert!(share <= cap, "tenant {} share {} over cap {}", tenant, share, cap);
        }
    }

    #[test]
    fn shares_are_monotone_in_weight(
        pool in 10_000u64..1_000_000,
        weight_lo in 1u32..4,
        bump in 1u32..4,
        other_weight in 1u32..5,
    ) {
        let share = |weight: u32| {
            let needs = [(0, weight, u64::MAX, pool), (1, other_weight, u64::MAX, pool)];
            tenant_weighted_budgets(pool, &needs)[0].1
        };
        prop_assert!(
            share(weight_lo + bump) >= share(weight_lo),
            "raising tenant 0's weight must not shrink its share ({} -> {})",
            share(weight_lo),
            share(weight_lo + bump)
        );
    }

    #[test]
    fn no_starvation_beside_a_greedy_tenant(
        pool in 10_000u64..1_000_000,
        n in 2usize..5,
        seed in 0u64..10_000,
        greedy in 1u64..u64::MAX,
    ) {
        // Tenant 0 asks for anything up to the whole address space, the
        // others for the pool: every one of them gets a positive share.
        let needs: Vec<(u64, u32, u64, u64)> = tenants(pool, n, seed)
            .into_iter()
            .map(|(id, weight, cap)| (id, weight, cap, if id == 0 { greedy } else { pool }))
            .collect();
        for (tenant, share) in tenant_weighted_budgets(pool, &needs) {
            prop_assert!(share > 0, "tenant {tenant} with positive demand must not starve");
        }
    }
}
