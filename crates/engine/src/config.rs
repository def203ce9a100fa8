//! Engine configuration.

use std::sync::Arc;

use ftts_hw::{GpuDevice, ModelSpec};
use ftts_model::{GeneratorProfile, PrmProfile};
use serde::{Deserialize, Serialize};

/// A generator + verifier pairing: cost specs (`ftts-hw`) and behaviour
/// profiles (`ftts-model`) for both models.
///
/// All four components are immutable per-request state and are held
/// behind `Arc`, so cloning a pairing (which the serving facade does for
/// every request) is four reference-count bumps, not a deep copy of
/// model descriptions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPairing {
    /// Generator architecture (costs).
    pub gen_spec: Arc<ModelSpec>,
    /// Verifier architecture (costs).
    pub ver_spec: Arc<ModelSpec>,
    /// Generator behaviour.
    pub gen_profile: Arc<GeneratorProfile>,
    /// Verifier behaviour.
    pub prm_profile: Arc<PrmProfile>,
}

impl ModelPairing {
    /// Build a pairing from owned specs and profiles.
    pub fn new(
        gen_spec: ModelSpec,
        ver_spec: ModelSpec,
        gen_profile: GeneratorProfile,
        prm_profile: PrmProfile,
    ) -> Self {
        Self {
            gen_spec: Arc::new(gen_spec),
            ver_spec: Arc::new(ver_spec),
            gen_profile: Arc::new(gen_profile),
            prm_profile: Arc::new(prm_profile),
        }
    }

    /// The paper's memory-constrained configuration: 1.5B generator +
    /// 1.5B verifier.
    pub fn pair_1_5b_1_5b() -> Self {
        Self::new(
            ModelSpec::qwen25_math_1_5b(),
            ModelSpec::skywork_prm_1_5b(),
            GeneratorProfile::qwen25_math_1_5b(),
            PrmProfile::skywork_1_5b(),
        )
    }

    /// The paper's verifier-heavy configuration: 1.5B generator + 7B
    /// verifier.
    pub fn pair_1_5b_7b() -> Self {
        Self::new(
            ModelSpec::qwen25_math_1_5b(),
            ModelSpec::math_shepherd_7b(),
            GeneratorProfile::qwen25_math_1_5b(),
            PrmProfile::math_shepherd_7b(),
        )
    }

    /// The paper's generator-heavy configuration: 7B generator + 1.5B
    /// verifier.
    pub fn pair_7b_1_5b() -> Self {
        Self::new(
            ModelSpec::qwen25_math_7b(),
            ModelSpec::skywork_prm_1_5b(),
            GeneratorProfile::qwen25_math_7b(),
            PrmProfile::skywork_1_5b(),
        )
    }

    /// Figure label, e.g. `"1.5B+7B"`.
    pub fn label(&self) -> String {
        format!(
            "{}+{}",
            self.gen_spec.size_label(),
            self.ver_spec.size_label()
        )
    }

    /// Combined weight bytes of both models.
    pub fn weight_bytes(&self) -> u64 {
        self.gen_spec.weight_bytes() + self.ver_spec.weight_bytes()
    }
}

/// Speculative Beam Extension settings (paper Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpecConfig {
    /// Master switch, LookAhead Verification (Sec. 4.1.3) included:
    /// with verifier prefix caching on, completed speculative
    /// continuations are verified together with the current step.
    pub enabled: bool,
    /// Mean of the truncation-ratio distribution `R`: duplicates keep on
    /// average `R` of the speculative tokens (Alg. 1 line 19). `R = 0`
    /// keeps nothing (slot filling still helps utilization); the paper's
    /// best setting is `R = 0.85` (Fig. 17 right).
    pub truncation_ratio: f64,
}

impl SpecConfig {
    /// Standard deviation of the truncation ratio draw.
    pub const TRUNCATION_SIGMA: f64 = 0.08;

    /// Speculation disabled (the vLLM baseline).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            truncation_ratio: 0.0,
        }
    }

    /// The paper's default FastTTS setting.
    pub fn fasttts_default() -> Self {
        Self {
            enabled: true,
            truncation_ratio: 0.85,
        }
    }
}

impl Default for SpecConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Device to simulate (shared, never deep-cloned per request).
    pub device: Arc<GpuDevice>,
    /// Generator + verifier models.
    pub models: ModelPairing,
    /// Fraction of VRAM the serving system may use, weights included
    /// (vLLM's `gpu_memory_utilization`; the paper uses 0.9, or 0.4 for
    /// the memory-constrained setting).
    pub memory_fraction: f64,
    /// Enable prefix caching in both KV caches (vLLM has this on by
    /// default; disable to model the "w/o prefix cache" baseline).
    pub prefix_sharing: bool,
    /// Retain verifier KV across TTS iterations. The baseline issues each
    /// verification as an independent request that prefills the whole
    /// path (HF `search-and-learn` semantics — the recomputation
    /// LookAhead Verification eliminates, Sec. 4.1.3); FastTTS mirrors
    /// paths in the verifier cache and extends them incrementally.
    pub ver_prefix_caching: bool,
    /// Speculative Beam Extension settings.
    pub spec: SpecConfig,
    /// Record a utilization trace (costs memory; used by Fig. 4/17).
    pub trace: bool,
    /// Experiment seed (combined with problem seeds).
    pub seed: u64,
}

impl EngineConfig {
    /// Bytes reserved for CUDA graphs and intermediate activations.
    pub const RESERVED_BYTES: u64 = 512 * 1024 * 1024;

    /// A baseline-flavored config on the given device.
    pub fn baseline(device: impl Into<Arc<GpuDevice>>, models: ModelPairing) -> Self {
        Self {
            device: device.into(),
            models,
            memory_fraction: 0.9,
            prefix_sharing: true,
            ver_prefix_caching: false,
            spec: SpecConfig::disabled(),
            trace: false,
            seed: 0,
        }
    }

    /// Total KV budget in bytes shared by generator and verifier after
    /// weights and reservations.
    pub fn kv_budget_bytes(&self) -> u64 {
        let usable = (self.device.vram_bytes as f64 * self.memory_fraction) as u64;
        usable
            .saturating_sub(self.models.weight_bytes())
            .saturating_sub(Self::RESERVED_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairings_have_expected_labels() {
        assert_eq!(ModelPairing::pair_1_5b_1_5b().label(), "1.5B+1.5B");
        assert_eq!(ModelPairing::pair_1_5b_7b().label(), "1.5B+7B");
        assert_eq!(ModelPairing::pair_7b_1_5b().label(), "7B+1.5B");
    }

    #[test]
    fn kv_budget_subtracts_weights_and_reserve() {
        let cfg = EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        let budget = cfg.kv_budget_bytes();
        assert!(
            budget > 10 * (1 << 30),
            "two 1.5B models leave >10 GiB on a 4090"
        );
        let constrained = EngineConfig {
            memory_fraction: 0.4,
            ..EngineConfig::baseline(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b())
        };
        assert!(constrained.kv_budget_bytes() < 4 * (1 << 30));
        assert!(constrained.kv_budget_bytes() > 0);
    }

    #[test]
    fn kv_budget_saturates_when_weights_do_not_fit() {
        let cfg = EngineConfig::baseline(GpuDevice::rtx3070ti(), ModelPairing::pair_1_5b_7b());
        // 1.5B + 7B weights (~18 GB) cannot fit in 8 GB.
        assert_eq!(cfg.kv_budget_bytes(), 0);
    }

    #[test]
    fn spec_presets() {
        assert!(!SpecConfig::disabled().enabled);
        let f = SpecConfig::fasttts_default();
        assert!(f.enabled);
        assert!((f.truncation_ratio - 0.85).abs() < 1e-12);
        assert_eq!(SpecConfig::default(), SpecConfig::disabled());
    }
}
