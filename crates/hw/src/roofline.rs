//! Roofline latency model for batched prefill and decode kernels.
//!
//! This implements the paper's Sec. 4.3.1 performance law,
//! `T_roof = max(FLOPs/P, Bytes/BW)`, specialized to the two kernel shapes
//! a TTS serving system executes:
//!
//! * **Prefill** (verification): large GEMMs over whole sequences —
//!   compute-bound almost immediately, hence the verifier saturates with
//!   under 1 GB of KV cache (Fig. 6, left).
//! * **Decode** (generation): one token per sequence per step — every
//!   iteration must stream the full weights plus the batch's KV cache, so
//!   throughput keeps improving with batch size (and thus KV memory) far
//!   longer (Fig. 6, right).
//!
//! Each returned [`KernelCost`] also carries the compute-utilization
//! fraction used to reconstruct the paper's Nsight traces (Fig. 4 / 17).

use serde::{Deserialize, Serialize};

use crate::{GpuDevice, ModelSpec};

/// Which serving phase a kernel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Generator decode (token-by-token generation).
    Generation,
    /// Verifier prefill (reasoning-step scoring).
    Verification,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Generation => write!(f, "generation"),
            Phase::Verification => write!(f, "verification"),
        }
    }
}

/// Cost of one simulated kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Wall-clock seconds under the roofline.
    pub seconds: f64,
    /// Total floating point work, in FLOPs.
    pub flops: f64,
    /// Total bytes moved to/from HBM.
    pub bytes: f64,
    /// Fraction of *peak* tensor throughput achieved in `[0, 1]`.
    pub compute_util: f64,
    /// Whether the compute term of the roofline dominated the memory term.
    pub compute_bound: bool,
}

impl KernelCost {
    /// A zero-cost kernel (empty batch).
    pub fn zero() -> Self {
        Self {
            seconds: 0.0,
            flops: 0.0,
            bytes: 0.0,
            compute_util: 0.0,
            compute_bound: false,
        }
    }
}

/// Roofline cost model for one model running on one device.
///
/// # Example
///
/// ```
/// use ftts_hw::{GpuDevice, ModelSpec, Roofline};
/// let roof = Roofline::new(GpuDevice::rtx4090(), ModelSpec::qwen25_math_1_5b());
/// // Larger decode batches amortize the weight sweep: total batch
/// // throughput rises even though the step takes slightly longer.
/// let b1 = roof.decode_step(1, 512);
/// let b64 = roof.decode_step(64, 512);
/// assert!(b64.seconds < 64.0 * b1.seconds);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    device: std::sync::Arc<GpuDevice>,
    model: std::sync::Arc<ModelSpec>,
    decode: DecodeTerms,
}

/// The terms of [`Roofline::decode_step`] that depend on neither batch
/// nor context, derived once from the model: the same `f64` values the
/// model's formulas give, so a step costs the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DecodeTerms {
    /// GEMM FLOPs per decoded token (`2 * params`).
    gemm_flops: f64,
    /// Attention FLOPs per decoded token per context token.
    attn_flops_per_ctx: f64,
    /// Bytes of one weight sweep.
    weight_bytes: f64,
    /// KV bytes per token.
    kv_bytes_per_token: f64,
}

impl DecodeTerms {
    /// The terms of [`ModelSpec::decode_flops_per_token`],
    /// [`ModelSpec::weight_bytes`] and [`ModelSpec::kv_bytes_per_token`],
    /// each in the order those formulas evaluate it.
    fn new(model: &ModelSpec) -> Self {
        Self {
            gemm_flops: 2.0 * model.param_count() as f64,
            attn_flops_per_ctx: 4.0
                * model.n_layers as f64
                * (model.n_heads * model.head_dim) as f64,
            weight_bytes: model.weight_bytes() as f64,
            kv_bytes_per_token: model.kv_bytes_per_token() as f64,
        }
    }
}

impl Roofline {
    /// Create a cost model for `model` running on `device`.
    ///
    /// Accepts either owned specs or shared `Arc`s: the engine hands out
    /// `Arc` clones so building a per-request `Roofline` never deep-copies
    /// device/model descriptions.
    pub fn new(
        device: impl Into<std::sync::Arc<GpuDevice>>,
        model: impl Into<std::sync::Arc<ModelSpec>>,
    ) -> Self {
        let model = model.into();
        Self {
            device: device.into(),
            decode: DecodeTerms::new(&model),
            model,
        }
    }

    /// Device this model runs on.
    pub fn device(&self) -> &GpuDevice {
        self.device.as_ref()
    }

    /// Model being costed.
    pub fn model(&self) -> &ModelSpec {
        self.model.as_ref()
    }

    fn roofline_seconds(&self, flops: f64, bytes: f64) -> f64 {
        let t_compute = flops / self.device.effective_flops();
        let t_memory = bytes / self.device.effective_bandwidth();
        t_compute.max(t_memory)
    }

    fn cost(&self, flops: f64, bytes: f64) -> KernelCost {
        if flops <= 0.0 && bytes <= 0.0 {
            return KernelCost::zero();
        }
        let seconds = self.roofline_seconds(flops, bytes);
        let compute_util = if seconds > 0.0 {
            (flops / seconds / self.device.peak_flops).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let compute_bound =
            flops / self.device.effective_flops() >= bytes / self.device.effective_bandwidth();
        KernelCost {
            seconds,
            flops,
            bytes,
            compute_util,
            compute_bound,
        }
    }

    /// Cost of one decode iteration: `batch` sequences each produce one
    /// token, with mean cached context `avg_ctx` tokens.
    ///
    /// Bytes = one full weight sweep (shared by the batch) + reading each
    /// sequence's KV cache + writing one new KV entry per sequence.
    ///
    /// FLOPs are [`ModelSpec::decode_flops_per_token`] per sequence. The
    /// terms that depend on neither batch nor context are derived once,
    /// when the roofline is built.
    pub fn decode_step(&self, batch: usize, avg_ctx: u64) -> KernelCost {
        if batch == 0 {
            return KernelCost::zero();
        }
        let (flops, bytes) = self.decode_work(batch, avg_ctx);
        self.cost(flops, bytes)
    }

    /// The `seconds` of [`Roofline::decode_step`], bit for bit (the same
    /// float operations in the same order), without working out the
    /// rest of the cost.
    pub fn decode_seconds(&self, batch: usize, avg_ctx: u64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let (flops, bytes) = self.decode_work(batch, avg_ctx);
        if flops <= 0.0 && bytes <= 0.0 {
            return 0.0;
        }
        self.roofline_seconds(flops, bytes)
    }

    /// FLOPs and bytes of one decode step over a non-empty batch.
    fn decode_work(&self, batch: usize, avg_ctx: u64) -> (f64, f64) {
        let DecodeTerms {
            gemm_flops,
            attn_flops_per_ctx,
            weight_bytes,
            kv_bytes_per_token,
        } = self.decode;
        let b = batch as f64;
        let ctx = avg_ctx as f64;
        let flops = b * (gemm_flops + attn_flops_per_ctx * ctx);
        let bytes = weight_bytes + b * ctx * kv_bytes_per_token + b * kv_bytes_per_token;
        (flops, bytes)
    }

    /// Cost of prefilling one sequence: `new_tokens` fresh tokens on top
    /// of a `cached_tokens`-long cached prefix.
    pub fn prefill(&self, new_tokens: u64, cached_tokens: u64) -> KernelCost {
        self.prefill_batch(1, new_tokens, cached_tokens)
    }

    /// Cost of prefilling `batch` sequences, each adding `new_per_seq`
    /// fresh tokens on top of a `cached_per_seq`-long cached prefix.
    ///
    /// Attention is per-sequence: each new token attends to its own
    /// cached prefix plus its causal predecessors, never across batch
    /// members — getting this wrong overstates verifier cost
    /// quadratically in the batch size.
    /// This is the one-part [`Roofline::prefill_fused`].
    pub fn prefill_batch(&self, batch: usize, new_per_seq: u64, cached_per_seq: u64) -> KernelCost {
        self.prefill_fused(&[(batch, new_per_seq, cached_per_seq)])
    }

    /// Cost of one prefill sweep fused from heterogeneous sub-batches:
    /// each `(batch, new_per_seq, cached_per_seq)` part keeps its own
    /// attention shape (a fused kernel never changes per-sequence
    /// attention work), but the weight sweep is streamed **once** for
    /// the whole launch instead of once per part — exactly the saving
    /// cross-request verifier co-batching is after.
    pub fn prefill_fused(&self, parts: &[(usize, u64, u64)]) -> KernelCost {
        let mut flops = 0.0;
        // Weights once, read each part's reused prefix KV, write KV for
        // its new tokens.
        let mut bytes = self.model.weight_bytes() as f64;
        let kv_per_token = self.model.kv_bytes_per_token() as f64;
        for &(batch, new_per_seq, cached_per_seq) in parts {
            if batch == 0 || new_per_seq == 0 {
                continue;
            }
            flops += batch as f64 * self.model.prefill_flops(new_per_seq, cached_per_seq);
            bytes += batch as f64 * cached_per_seq as f64 * kv_per_token;
            bytes += batch as f64 * new_per_seq as f64 * kv_per_token;
        }
        if flops <= 0.0 {
            return KernelCost::zero();
        }
        self.cost(flops, bytes)
    }

    /// Batch decode throughput in tokens/second at the given batch size
    /// and context (used by the memory-allocation search, Fig. 10).
    pub fn decode_throughput(&self, batch: usize, avg_ctx: u64) -> f64 {
        let seconds = self.decode_seconds(batch, avg_ctx);
        if seconds == 0.0 {
            0.0
        } else {
            batch as f64 / seconds
        }
    }

    /// Batch prefill throughput in tokens/second for sequences of length
    /// `seq` processed `batch` at a time.
    pub fn prefill_throughput(&self, batch: usize, seq: u64) -> f64 {
        let tokens = batch as u64 * seq;
        let c = self.prefill_batch(batch, seq, 0);
        if c.seconds == 0.0 {
            0.0
        } else {
            tokens as f64 / c.seconds
        }
    }

    /// Maximum decode batch size representable in `kv_budget_bytes` of KV
    /// cache at per-sequence context `ctx`.
    pub fn max_decode_batch(&self, kv_budget_bytes: u64, ctx: u64) -> usize {
        let per_seq = self.model.kv_bytes(ctx).max(1);
        (kv_budget_bytes / per_seq) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roof_1_5b() -> Roofline {
        Roofline::new(GpuDevice::rtx4090(), ModelSpec::qwen25_math_1_5b())
    }

    #[test]
    fn single_stream_decode_is_bandwidth_bound() {
        let c = roof_1_5b().decode_step(1, 256);
        // The weight sweep dominates: ~3.1 GB over ~806 GB/s ≈ 3.8 ms.
        assert!(c.seconds > 3e-3 && c.seconds < 6e-3, "got {}", c.seconds);
        assert!(
            c.compute_util < 0.10,
            "decode must be low-util, got {}",
            c.compute_util
        );
    }

    #[test]
    fn prefill_is_compute_bound_at_modest_batch() {
        let c = roof_1_5b().prefill(8 * 640, 0);
        assert!(
            c.compute_util > 0.4,
            "prefill util too low: {}",
            c.compute_util
        );
        assert!(c.compute_bound);
        assert!(!roof_1_5b().decode_step(1, 256).compute_bound);
    }

    #[test]
    fn decode_throughput_increases_with_batch() {
        let roof = roof_1_5b();
        let mut last = 0.0;
        for b in [1usize, 4, 16, 64, 256] {
            let thr = roof.decode_throughput(b, 512);
            assert!(thr > last, "throughput must rise with batch size");
            last = thr;
        }
    }

    #[test]
    fn decode_throughput_saturates_sublinearly() {
        let roof = roof_1_5b();
        let t64 = roof.decode_throughput(64, 2048);
        let t512 = roof.decode_throughput(512, 2048);
        assert!(t512 < 8.0 * t64, "KV traffic must bend the curve");
    }

    #[test]
    fn prefill_saturates_much_faster_than_decode() {
        // Reproduces the *shape* of Fig. 6: fraction of asymptotic
        // throughput reached with a fixed small KV budget is far higher
        // for prefill than for decode.
        let roof = roof_1_5b();
        let kv_budget = crate::GB; // 1 GB
        let seq = 640u64;
        let b_pre = roof.max_decode_batch(kv_budget, seq).max(1);
        let pre_frac = roof.prefill_throughput(b_pre, seq) / roof.prefill_throughput(4096, seq);
        let dec_ctx = 512u64;
        let b_dec = roof.max_decode_batch(kv_budget, dec_ctx).max(1);
        let dec_frac =
            roof.decode_throughput(b_dec, dec_ctx) / roof.decode_throughput(65_536, dec_ctx);
        assert!(
            pre_frac > 0.8,
            "prefill should hit >80% with 1 GB, got {pre_frac}"
        );
        assert!(
            dec_frac < pre_frac,
            "decode must saturate slower: {dec_frac} vs {pre_frac}"
        );
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let roof = roof_1_5b();
        assert_eq!(roof.decode_step(0, 100), KernelCost::zero());
        assert_eq!(roof.prefill(0, 100), KernelCost::zero());
        assert_eq!(roof.decode_throughput(0, 100), 0.0);
    }

    #[test]
    fn max_decode_batch_respects_budget() {
        let roof = roof_1_5b();
        let ctx = 1024u64;
        let b = roof.max_decode_batch(2 * crate::GB, ctx);
        let used = b as u64 * roof.model().kv_bytes(ctx);
        assert!(used <= 2 * crate::GB);
        let next = (b as u64 + 1) * roof.model().kv_bytes(ctx);
        assert!(next > 2 * crate::GB);
    }

    #[test]
    fn bigger_model_is_slower() {
        let small = roof_1_5b().decode_step(8, 512).seconds;
        let big = Roofline::new(GpuDevice::rtx4090(), ModelSpec::qwen25_math_7b())
            .decode_step(8, 512)
            .seconds;
        assert!(big > 3.0 * small);
    }

    #[test]
    fn cached_prefix_reduces_prefill_cost() {
        let roof = roof_1_5b();
        let cold = roof.prefill(1024, 0);
        let warm = roof.prefill(256, 768);
        assert!(warm.seconds < cold.seconds);
    }

    #[test]
    fn batched_prefill_attends_per_sequence() {
        let roof = roof_1_5b();
        // 8 sequences of 640 tokens do strictly less attention work than
        // one 5120-token sequence.
        let batched = roof.prefill_batch(8, 640, 0);
        let monolith = roof.prefill(8 * 640, 0);
        assert!(batched.flops < monolith.flops);
        assert!(batched.seconds < monolith.seconds);
        assert_eq!(roof.prefill_batch(0, 100, 0), KernelCost::zero());
    }

    #[test]
    fn fused_prefill_amortizes_the_weight_sweep_only() {
        let roof = roof_1_5b();
        let a = (4usize, 300u64, 600u64);
        let b = (2usize, 900u64, 100u64);
        let fused = roof.prefill_fused(&[a, b]);
        let solo_a = roof.prefill_batch(a.0, a.1, a.2);
        let solo_b = roof.prefill_batch(b.0, b.1, b.2);
        // Per-sequence attention work is preserved exactly...
        assert!((fused.flops - (solo_a.flops + solo_b.flops)).abs() < 1.0);
        // ...but the weights are streamed once, not twice.
        let w = roof.model().weight_bytes() as f64;
        assert!((fused.bytes - (solo_a.bytes + solo_b.bytes - w)).abs() < 1.0);
        assert!(fused.seconds <= solo_a.seconds + solo_b.seconds);
        // One part degenerates to the uniform batch cost.
        assert_eq!(roof.prefill_fused(&[a]), roof.prefill_batch(a.0, a.1, a.2));
        assert_eq!(roof.prefill_fused(&[]), KernelCost::zero());
        assert_eq!(roof.prefill_fused(&[(0, 10, 0)]), KernelCost::zero());
    }

    #[test]
    fn decode_step_matches_the_unfactored_formula_bit_for_bit() {
        let devices = [
            GpuDevice::rtx4090(),
            GpuDevice::rtx4070ti(),
            GpuDevice::rtx3070ti(),
            GpuDevice::jetson_orin(),
            GpuDevice::a100_80g(),
        ];
        // Generator and verifier of every `ModelPairing` preset
        // (ftts-engine): 1.5B+1.5B, 1.5B+7B and 7B+1.5B.
        let models = [
            ModelSpec::qwen25_math_1_5b(),
            ModelSpec::skywork_prm_1_5b(),
            ModelSpec::math_shepherd_7b(),
            ModelSpec::qwen25_math_7b(),
        ];
        for device in &devices {
            for model in &models {
                let roof = Roofline::new(device.clone(), model.clone());
                let kv = model.kv_bytes_per_token() as f64;
                for batch in 0..=64usize {
                    let b = batch as f64;
                    for ctx in 0..=8_192u64 {
                        let expected = if batch == 0 {
                            KernelCost::zero()
                        } else {
                            roof.cost(
                                b * model.decode_flops_per_token(ctx),
                                model.weight_bytes() as f64 + b * ctx as f64 * kv + b * kv,
                            )
                        };
                        let got = roof.decode_step(batch, ctx);
                        let seconds = roof.decode_seconds(batch, ctx);
                        let same = got.seconds.to_bits() == expected.seconds.to_bits()
                            && seconds.to_bits() == got.seconds.to_bits()
                            && got.flops.to_bits() == expected.flops.to_bits()
                            && got.bytes.to_bits() == expected.bytes.to_bits()
                            && got.compute_util.to_bits() == expected.compute_util.to_bits()
                            && got.compute_bound == expected.compute_bound;
                        assert!(
                            same,
                            "{} / {} at batch {batch}, ctx {ctx}: {got:?} vs {expected:?}",
                            device.name, model.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn phase_display_is_stable() {
        assert_eq!(Phase::Generation.to_string(), "generation");
        assert_eq!(Phase::Verification.to_string(), "verification");
    }
}
