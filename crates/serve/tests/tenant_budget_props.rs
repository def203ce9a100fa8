//! `TenantBudget` invariants under randomized tenant populations and
//! admit/release churn:
//!
//! 1. A tenant's reserved bytes never exceed its hard cap, no matter
//!    the admit/release interleaving.
//! 2. A refused admission leaves the ledger untouched.
//!
//! The weighted fair-share rule the scheduler rebalances by is checked
//! in `ftts-kv` (`tests/budget_props.rs`).

use ftts_serve::TenantBudget;
use proptest::prelude::*;

/// A reproducible tenant population over a pool: ids 0..n with
/// derived caps and quotas. Returns the ledger plus the per-tenant caps
/// so tests can assert against them independently.
fn build(pool: u64, n: usize, seed: u64) -> (TenantBudget, Vec<u64>) {
    let mut budget = TenantBudget::new(pool);
    let mut caps = Vec::new();
    for id in 0..n as u32 {
        let mix = seed.wrapping_mul(0x9E37_79B9).wrapping_add(u64::from(id));
        let cap = if mix % 3 == 0 {
            u64::MAX
        } else {
            (pool / 4).max(1) * (1 + mix % 3)
        };
        let max_open = usize::try_from(mix % 5).expect("small"); // 0 = unlimited
        budget.register(id, cap, max_open);
        caps.push(cap);
    }
    (budget, caps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reserved_never_exceeds_cap_under_churn(
        pool in 1_000u64..1_000_000,
        n in 1usize..5,
        seed in 0u64..10_000,
        ops in prop::collection::vec((0u32..5, 0u64..400_000), 1..40),
    ) {
        let (mut budget, caps) = build(pool, n, seed);
        // Track our own open ledger so releases are always legal.
        let mut held: Vec<(u32, u64)> = Vec::new();
        for (i, &(t, bytes)) in ops.iter().enumerate() {
            let tenant = t % n as u32;
            if i % 3 == 2 && !held.is_empty() {
                let (rt, rb) = held.swap_remove(i % held.len());
                budget.release(rt, rb);
            } else if budget.try_admit(tenant, bytes).is_ok() {
                held.push((tenant, bytes));
            }
            // The cap invariant must hold at every step, not just at
            // quiescence.
            for id in 0..n as u32 {
                prop_assert!(
                    budget.reserved(id) <= caps[id as usize],
                    "tenant {} reserved {} over cap {}",
                    id,
                    budget.reserved(id),
                    caps[id as usize]
                );
            }
        }
        // Releasing everything drains the ledger completely.
        for (t, b) in held.drain(..) {
            budget.release(t, b);
        }
        for id in 0..n as u32 {
            prop_assert_eq!(budget.reserved(id), 0);
            prop_assert_eq!(budget.open(id), 0);
        }
    }

    #[test]
    fn admission_respects_caps_exactly(
        pool in 1_000u64..100_000,
        cap_frac in 1u64..4,
        requests in prop::collection::vec(1u64..50_000, 1..30),
    ) {
        let cap = pool / cap_frac;
        let mut budget = TenantBudget::new(pool);
        budget.register(0, cap.max(1), 0);
        for &bytes in &requests {
            let before = budget.reserved(0);
            match budget.try_admit(0, bytes) {
                Ok(()) => prop_assert!(budget.reserved(0) <= cap.max(1), "cap held"),
                Err(_) => prop_assert_eq!(budget.reserved(0), before, "refusal is side-effect free"),
            }
        }
    }
}
