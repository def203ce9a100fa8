//! Asymmetric Multi-Model Memory Allocation (paper Sec. 4.3).
//!
//! The generator decodes token-by-token (bandwidth-bound, KV-hungry);
//! the verifier prefills whole steps (compute-bound, saturating with
//! under 1 GB of KV). Splitting the shared budget evenly or by weight
//! size is therefore far from optimal. The planner minimizes the total
//! iteration time
//!
//! ```text
//! T_tot = ceil(N/B_pre) · T_roof^pre(B_pre, S)
//!       + ceil(N/B_dec) · S_dec · T_roof^dec(B_dec, S̄_cache)
//! ```
//!
//! subject to the shared KV budget `M` (Sec. 4.3.1), via a linear search
//! that is trivially fast (the paper reports < 1 ms; see the
//! `alloc_search` criterion bench). Two refinements make the search
//! faithful to a *caching* serving system:
//!
//! * **Retention-aware prefill cost.** A verifier cache smaller than the
//!   frontier's working set (`tree_tokens`) evicts paths between
//!   iterations and must re-prefill them; the expected verified tokens
//!   per beam grow from `S_dec` toward the full path as the miss rate
//!   rises. The same amplification applies to generator recomputation.
//! * **Offloading extension** (Sec. 4.3.2). Under extreme budgets the
//!   inactive model's KV is swapped to host memory, relaxing the coupled
//!   constraint into two independent ones at the price of PCIe
//!   transfers; the planner picks whichever strategy is faster.

use ftts_engine::{EngineConfig, MemoryPlan, MemoryPlanner, PlanContext};
use ftts_hw::Roofline;

/// The roofline-guided KV allocator.
#[derive(Debug, Clone, Default)]
pub struct RooflinePlanner {
    /// Permit the offloading extension (Sec. 4.3.2).
    pub allow_offload: bool,
}

/// Derived per-model byte requirements for a plan evaluation.
struct Demand {
    /// Bytes one in-flight verifier sequence occupies.
    ver_per_seq: u64,
    /// Bytes one in-flight generator sequence occupies.
    gen_per_seq: u64,
    /// Bytes the verifier needs to retain the whole frontier tree.
    ver_tree: u64,
    /// Bytes the generator needs to retain the whole frontier tree.
    gen_tree: u64,
}

impl RooflinePlanner {
    /// Planner with offloading disabled.
    pub fn new() -> Self {
        Self {
            allow_offload: false,
        }
    }

    /// Planner that may choose the offloading strategy.
    pub fn with_offload() -> Self {
        Self {
            allow_offload: true,
        }
    }

    fn demand(config: &EngineConfig, ctx: &PlanContext) -> Demand {
        let path = ctx.avg_ctx + ctx.step_tokens;
        Demand {
            ver_per_seq: config.models.ver_spec.kv_bytes(path.max(1)).max(1),
            gen_per_seq: config.models.gen_spec.kv_bytes(path.max(1)).max(1),
            ver_tree: config.models.ver_spec.kv_bytes(ctx.tree_tokens.max(1)),
            gen_tree: config.models.gen_spec.kv_bytes(ctx.tree_tokens.max(1)),
        }
    }

    /// Expected miss rate of a cache of `bytes` serving a working set of
    /// `tree` bytes.
    fn miss_rate(bytes: u64, tree: u64) -> f64 {
        if tree == 0 || bytes >= tree {
            0.0
        } else {
            1.0 - bytes as f64 / tree as f64
        }
    }

    /// Total time for one TTS iteration with `v` bytes of verifier KV
    /// and `g` bytes of generator KV. Returns `None` when infeasible.
    fn t_tot(
        gen: &Roofline,
        ver: &Roofline,
        ctx: &PlanContext,
        d: &Demand,
        v: u64,
        g: u64,
    ) -> Option<f64> {
        if v < d.ver_per_seq || g < d.gen_per_seq {
            return None;
        }
        let n = ctx.n_beams.max(1);
        // Verifier: evicted paths must be re-prefilled, so the expected
        // new tokens per beam grow with the miss rate. Without
        // cross-iteration verifier caching every verification re-prefills
        // the full input (the paper's `S`), so the miss rate is 1.
        let b_pre = ((v / d.ver_per_seq) as usize).clamp(1, n);
        let miss_v = if ctx.ver_caching {
            Self::miss_rate(v, d.ver_tree)
        } else {
            1.0
        };
        let ver_tokens = ctx.step_tokens as f64 + miss_v * ctx.avg_ctx as f64;
        let pre_batches = (n as f64 / b_pre as f64).ceil();
        let cached = (ctx.avg_ctx as f64 * (1.0 - miss_v)) as u64;
        let t_pre = ver
            .prefill_batch(b_pre, ver_tokens.round() as u64, cached)
            .seconds;

        // Generator: group serialization plus eviction-induced
        // recomputation.
        let b_dec = ((g / d.gen_per_seq) as usize).clamp(1, n);
        let dec_batches = (n as f64 / b_dec as f64).ceil();
        let cache_len = ctx.avg_ctx + ctx.step_tokens / 2;
        let t_dec = gen.decode_seconds(b_dec, cache_len);
        let miss_g = Self::miss_rate(g, d.gen_tree);
        let recompute_tokens = (miss_g * n as f64 * ctx.avg_ctx as f64).round() as u64;
        let t_recompute = if recompute_tokens > 0 {
            gen.prefill_batch(n, recompute_tokens / n as u64 + 1, 0)
                .seconds
        } else {
            0.0
        };
        Some(pre_batches * t_pre + dec_batches * ctx.step_tokens as f64 * t_dec + t_recompute)
    }

    /// Candidate verifier allocations: batch-aligned sizes (the paper's
    /// `B_pre` linear search) plus the retention point.
    fn candidates(ctx: &PlanContext, d: &Demand) -> Vec<u64> {
        let m = ctx.kv_budget_bytes;
        let n = ctx.n_beams.max(1) as u64;
        let mut out = Vec::new();
        let b_max = (m / d.ver_per_seq).min(n);
        // Up to 128 evenly spread batch sizes keep the search < 1 ms.
        let stride = (b_max / 128).max(1);
        let mut b = 1;
        while b <= b_max {
            out.push(b * d.ver_per_seq);
            b += stride;
        }
        // Retention points: exactly the tree, and tree + one batch —
        // only meaningful when the verifier cache persists.
        if ctx.ver_caching {
            for v in [d.ver_tree, d.ver_tree + d.ver_per_seq] {
                if v > 0 && v <= m {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The joint-constraint search (Sec. 4.3.1 + retention awareness).
    fn search_joint(
        &self,
        config: &EngineConfig,
        ctx: &PlanContext,
        gen: &Roofline,
        ver: &Roofline,
    ) -> Option<(MemoryPlan, f64)> {
        let m = ctx.kv_budget_bytes;
        let d = Self::demand(config, ctx);
        let n = ctx.n_beams.max(1);
        let mut best: Option<(MemoryPlan, f64)> = None;
        for v in Self::candidates(ctx, &d) {
            if v >= m {
                continue;
            }
            // The decoder is memory-sensitive: it gets the remainder.
            let g = m - v;
            let Some(t) = Self::t_tot(gen, ver, ctx, &d, v, g) else {
                continue;
            };
            let better = match &best {
                None => true,
                // Ties resolve toward the larger decoding allocation.
                Some((p, t_best)) => {
                    t < *t_best - 1e-12 || ((t - *t_best).abs() <= 1e-12 && g > p.gen_kv_bytes)
                }
            };
            if better {
                let b_pre = ((v / d.ver_per_seq) as usize).clamp(1, n);
                best = Some((
                    MemoryPlan {
                        gen_kv_bytes: g,
                        ver_kv_bytes: v,
                        ver_batch: b_pre,
                        offload: false,
                    },
                    t,
                ));
            }
        }
        best
    }

    /// The offload-relaxed evaluation (Sec. 4.3.2): each model may use
    /// the whole budget while active; the inactive model's working set
    /// crosses PCIe at each phase switch.
    fn search_offload(
        &self,
        config: &EngineConfig,
        ctx: &PlanContext,
        gen: &Roofline,
        ver: &Roofline,
    ) -> Option<(MemoryPlan, f64)> {
        let m = ctx.kv_budget_bytes;
        let d = Self::demand(config, ctx);
        let n = ctx.n_beams.max(1);
        let t = Self::t_tot(gen, ver, ctx, &d, m, m)?;
        let moved = d.ver_tree.min(m) + d.gen_tree.min(m);
        let overhead = config.device.pcie_transfer_seconds(moved) * 2.0;
        let b_pre = ((m / d.ver_per_seq) as usize).clamp(1, n);
        let plan = MemoryPlan {
            gen_kv_bytes: m,
            ver_kv_bytes: m,
            ver_batch: b_pre,
            offload: true,
        };
        Some((plan, t + overhead))
    }
}

impl MemoryPlanner for RooflinePlanner {
    fn name(&self) -> &'static str {
        "roofline"
    }

    fn plan(&mut self, config: &EngineConfig, ctx: &PlanContext) -> MemoryPlan {
        let gen = Roofline::new(config.device.clone(), config.models.gen_spec.clone());
        let ver = Roofline::new(config.device.clone(), config.models.ver_spec.clone());
        let joint = self.search_joint(config, ctx, &gen, &ver);
        let offload = if self.allow_offload {
            self.search_offload(config, ctx, &gen, &ver)
        } else {
            None
        };
        match (joint, offload) {
            (Some((p, tj)), Some((o, to))) => {
                if to < tj {
                    o
                } else {
                    p
                }
            }
            (Some((p, _)), None) => p,
            (None, Some((o, _))) => o,
            (None, None) => {
                // Degenerate budget: a minimal static split that at least
                // lets single-sequence work limp along.
                MemoryPlan {
                    gen_kv_bytes: ctx.kv_budget_bytes / 2,
                    ver_kv_bytes: ctx.kv_budget_bytes - ctx.kv_budget_bytes / 2,
                    ver_batch: 1,
                    offload: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftts_engine::{EngineConfig, ModelPairing, StaticSplitPlanner};
    use ftts_hw::{GpuDevice, GB};

    fn ctx(budget: u64, n: usize) -> PlanContext {
        // A mid-search frontier: ~50 unique tree tokens per beam per
        // level of sharing — realistic for beam search with B=4.
        PlanContext {
            kv_budget_bytes: budget,
            n_beams: n,
            avg_ctx: 768,
            step_tokens: 200,
            ver_seq: 968,
            tree_tokens: (n as u64) * 320 + 768,
            ver_caching: true,
        }
    }

    fn config() -> EngineConfig {
        EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_7b())
    }

    #[test]
    fn plan_always_fits_the_budget() {
        let mut p = RooflinePlanner::new();
        for budget in [GB / 4, GB, 4 * GB, 12 * GB] {
            for n in [4usize, 64, 512] {
                let plan = p.plan(&config(), &ctx(budget, n));
                assert!(plan.fits(budget), "budget {budget} n {n}");
                assert!(plan.ver_batch >= 1);
            }
        }
    }

    #[test]
    fn verifier_gets_a_small_share_despite_its_size() {
        // The asymmetry insight: under a binding budget the 1.5B
        // generator receives far more KV than the weight-proportional
        // split would give it (the 7B verifier saturates once its batch
        // and working set fit), correcting the naive allocation.
        let mut roofline = RooflinePlanner::new();
        let mut static_split = StaticSplitPlanner;
        let c = ctx(4 * GB, 64);
        let smart = roofline.plan(&config(), &c);
        let naive = static_split.plan(&config(), &c);
        let smart_share = smart.gen_kv_bytes as f64 / (4 * GB) as f64;
        let naive_share = naive.gen_kv_bytes as f64 / (4 * GB) as f64;
        assert!(
            smart_share > naive_share,
            "roofline gen share {smart_share:.2} must beat weight-proportional {naive_share:.2}"
        );
        assert!(smart.fits(4 * GB));
    }

    #[test]
    fn verifier_keeps_its_working_set_when_affordable() {
        // With plenty of memory the verifier allocation should cover the
        // frontier tree so verification stays incremental.
        let mut p = RooflinePlanner::new();
        let c = ctx(16 * GB, 64);
        let d = RooflinePlanner::demand(&config(), &c);
        let plan = p.plan(&config(), &c);
        assert!(
            plan.ver_kv_bytes >= d.ver_tree,
            "verifier {} should retain the tree {}",
            plan.ver_kv_bytes,
            d.ver_tree
        );
    }

    #[test]
    fn smart_plan_beats_static_split_on_t_tot() {
        let cfg = config();
        let c = ctx(6 * GB, 128);
        let gen = Roofline::new(cfg.device.clone(), cfg.models.gen_spec.clone());
        let ver = Roofline::new(cfg.device.clone(), cfg.models.ver_spec.clone());
        let mut roofline = RooflinePlanner::new();
        let smart = roofline.plan(&cfg, &c);
        let mut naive = StaticSplitPlanner;
        let static_plan = naive.plan(&cfg, &c);
        let d = RooflinePlanner::demand(&cfg, &c);
        let eval = |plan: &MemoryPlan| {
            RooflinePlanner::t_tot(&gen, &ver, &c, &d, plan.ver_kv_bytes, plan.gen_kv_bytes)
                .unwrap_or(f64::INFINITY)
        };
        assert!(
            eval(&smart) <= eval(&static_plan),
            "roofline {} must beat static {}",
            eval(&smart),
            eval(&static_plan)
        );
    }

    #[test]
    fn tiny_budget_without_offload_still_returns_a_plan() {
        let mut p = RooflinePlanner::new();
        let plan = p.plan(&config(), &ctx(64 * 1024 * 1024, 64));
        assert!(plan.fits(64 * 1024 * 1024));
    }

    #[test]
    fn offload_kicks_in_only_when_profitable() {
        let mut p = RooflinePlanner::with_offload();
        // Plenty of memory: no reason to pay PCIe.
        let rich = p.plan(&config(), &ctx(12 * GB, 64));
        assert!(!rich.offload, "rich budget should not offload");
        // Starved: the 7B verifier alone exceeds the joint budget's
        // verifier share, so time-multiplexing wins.
        let poor_budget = 400 * 1024 * 1024;
        let poor = p.plan(&config(), &ctx(poor_budget, 64));
        assert!(poor.fits(poor_budget));
        assert!(poor.offload, "starved budget should offload: {poor:?}");
    }

    #[test]
    fn planner_name_is_roofline() {
        assert_eq!(RooflinePlanner::new().name(), "roofline");
        assert!(RooflinePlanner::with_offload().allow_offload);
    }
}
