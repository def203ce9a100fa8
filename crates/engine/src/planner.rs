//! Memory planning interface.
//!
//! The generator and verifier share one KV budget (paper Sec. 3.2.3).
//! A [`MemoryPlanner`] decides the split — and, in the extended search
//! space, whether to time-multiplex the whole budget by offloading the
//! inactive model's KV to host memory (Sec. 4.3.2). The engine re-invokes
//! the planner whenever the system state changes (frontier size or
//! context growth), mirroring the paper's dynamic invocation.
//!
//! [`StaticSplitPlanner`] is the baseline: two independent vLLM instances
//! sized proportionally to their model's weights. The roofline-guided
//! search lives in `ftts-core`.

use serde::{Deserialize, Serialize};

use crate::config::EngineConfig;

/// System state handed to the planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanContext {
    /// Total KV budget to split, in bytes.
    pub kv_budget_bytes: u64,
    /// Number of beams in the current frontier.
    pub n_beams: usize,
    /// Mean context length per beam, in tokens.
    pub avg_ctx: u64,
    /// Expected tokens per thinking step (decode horizon `S_dec`).
    pub step_tokens: u64,
    /// Expected verifier input length (`S` in the paper's formulation).
    pub ver_seq: u64,
    /// Unique tokens in the union of all frontier paths — the working
    /// set a cache must retain across iterations to avoid recomputation
    /// (prefix sharing already accounted for).
    pub tree_tokens: u64,
    /// Whether the verifier retains KV across iterations (FastTTS) or
    /// re-prefills full paths every round (baseline).
    pub ver_caching: bool,
}

/// A KV partition decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Generator KV capacity, bytes.
    pub gen_kv_bytes: u64,
    /// Verifier KV capacity, bytes.
    pub ver_kv_bytes: u64,
    /// Verifier prefill batch size (`B_pre`).
    pub ver_batch: usize,
    /// Time-multiplex the budget: swap the inactive model's KV to host
    /// memory between phases, paying PCIe transfers.
    pub offload: bool,
}

impl MemoryPlan {
    /// Sanity-check the plan against a budget.
    pub fn fits(&self, kv_budget_bytes: u64) -> bool {
        if self.offload {
            // Relaxed, independent constraints (Sec. 4.3.2).
            self.gen_kv_bytes <= kv_budget_bytes && self.ver_kv_bytes <= kv_budget_bytes
        } else {
            self.gen_kv_bytes + self.ver_kv_bytes <= kv_budget_bytes
        }
    }
}

/// Working-set demand estimate of one request, in bytes: live beams ×
/// mean path depth (plus one decode step of growth) × KV bytes/token of
/// *both* models (the pool share is split between generator and
/// verifier mirrors by the planner), floored by the resident unique
/// tree so a request never under-declares memory it already holds.
///
/// A scheduler sharing one KV pool across requests sizes
/// demand-proportional elastic shares with this — deep beam searches
/// declare more and stop starving behind shallow ones hoarding an equal
/// split.
pub fn working_set_demand(config: &EngineConfig, ctx: &PlanContext) -> u64 {
    let per_token =
        config.models.gen_spec.kv_bytes_per_token() + config.models.ver_spec.kv_bytes_per_token();
    let depth = ctx.avg_ctx + ctx.step_tokens;
    let forward = (ctx.n_beams.max(1) as u64) * depth * per_token;
    let resident = ctx.tree_tokens * config.models.gen_spec.kv_bytes_per_token();
    forward.max(resident)
}

/// Clones a boxed [`MemoryPlanner`]; every `Clone` planner has it.
pub trait MemoryPlannerClone {
    /// A boxed copy of this planner, state included.
    fn box_clone(&self) -> Box<dyn MemoryPlanner>;
}

impl<T: MemoryPlanner + Clone + 'static> MemoryPlannerClone for T {
    fn box_clone(&self) -> Box<dyn MemoryPlanner> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn MemoryPlanner> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Decides the generator/verifier KV split.
pub trait MemoryPlanner: MemoryPlannerClone + std::fmt::Debug + Send {
    /// Planner name for reports.
    fn name(&self) -> &'static str;

    /// Produce a plan for the given state.
    fn plan(&mut self, config: &EngineConfig, ctx: &PlanContext) -> MemoryPlan;
}

/// Baseline: split the KV budget in proportion to each model's weight
/// bytes — what running two separately-configured vLLM instances does.
#[derive(Debug, Clone, Default)]
pub struct StaticSplitPlanner;

impl MemoryPlanner for StaticSplitPlanner {
    fn name(&self) -> &'static str {
        "static-split"
    }

    fn plan(&mut self, config: &EngineConfig, ctx: &PlanContext) -> MemoryPlan {
        let w_gen = config.models.gen_spec.weight_bytes() as f64;
        let w_ver = config.models.ver_spec.weight_bytes() as f64;
        let gen_share = w_gen / (w_gen + w_ver);
        let gen_kv = (ctx.kv_budget_bytes as f64 * gen_share) as u64;
        let ver_kv = ctx.kv_budget_bytes - gen_kv;
        let per_seq = config.models.ver_spec.kv_bytes(ctx.ver_seq.max(1)).max(1);
        let ver_batch = ((ver_kv / per_seq) as usize).clamp(1, 512);
        MemoryPlan {
            gen_kv_bytes: gen_kv,
            ver_kv_bytes: ver_kv,
            ver_batch,
            offload: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPairing;
    use ftts_hw::GpuDevice;

    fn ctx(budget: u64) -> PlanContext {
        PlanContext {
            kv_budget_bytes: budget,
            n_beams: 16,
            avg_ctx: 512,
            step_tokens: 256,
            ver_seq: 768,
            tree_tokens: 16 * 768,
            ver_caching: false,
        }
    }

    #[test]
    fn static_split_is_weight_proportional() {
        let cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_7b());
        let mut p = StaticSplitPlanner;
        let plan = p.plan(&cfg, &ctx(10 << 30));
        assert!(plan.fits(10 << 30));
        // 7B verifier gets the lion's share under the naive split.
        assert!(plan.ver_kv_bytes > 3 * plan.gen_kv_bytes);
        assert!(!plan.offload);
        assert!(plan.ver_batch >= 1);
    }

    #[test]
    fn equal_models_split_evenly() {
        let cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        let mut p = StaticSplitPlanner;
        let plan = p.plan(&cfg, &ctx(8 << 30));
        let ratio = plan.gen_kv_bytes as f64 / plan.ver_kv_bytes as f64;
        assert!((ratio - 1.0).abs() < 0.01);
    }

    #[test]
    fn fits_checks_joint_and_relaxed_constraints() {
        let joint = MemoryPlan {
            gen_kv_bytes: 6,
            ver_kv_bytes: 6,
            ver_batch: 1,
            offload: false,
        };
        assert!(!joint.fits(10));
        let offload = MemoryPlan {
            gen_kv_bytes: 9,
            ver_kv_bytes: 9,
            ver_batch: 1,
            offload: true,
        };
        assert!(offload.fits(10));
        assert!(!offload.fits(8));
    }
}
