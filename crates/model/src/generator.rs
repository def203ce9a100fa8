//! The synthetic reasoning generator.

use std::cell::RefCell;
use std::collections::HashMap;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dist::{lognormal_clipped, normal};
use crate::rng::stream;

/// Distribution of thinking-step token counts for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepProfile {
    /// Median tokens per thinking step.
    pub median_tokens: f64,
    /// Log-space sigma (tail heaviness).
    pub sigma: f64,
    /// Minimum tokens per step.
    pub min_tokens: u64,
    /// Hard cap per step (the serving system's max-new-tokens between
    /// verifications).
    pub max_tokens: u64,
    /// Mean number of reasoning steps before termination.
    pub mean_depth: f64,
    /// Spread of the termination depth (logistic hazard scale).
    pub depth_spread: f64,
    /// Hard cap on steps.
    pub max_depth: u32,
}

impl StepProfile {
    /// Competition-math profile (AIME-like): long, very irregular steps.
    pub fn aime() -> Self {
        Self {
            median_tokens: 140.0,
            sigma: 1.0,
            min_tokens: 8,
            max_tokens: 1200,
            mean_depth: 8.0,
            depth_spread: 1.6,
            max_depth: 12,
        }
    }

    /// Broader-difficulty math profile (AMC-like): shorter steps.
    pub fn amc() -> Self {
        Self {
            median_tokens: 90.0,
            sigma: 0.9,
            min_tokens: 8,
            max_tokens: 1024,
            mean_depth: 6.0,
            depth_spread: 1.4,
            max_depth: 10,
        }
    }

    /// MATH-500 profile.
    pub fn math500() -> Self {
        Self {
            median_tokens: 110.0,
            sigma: 0.95,
            min_tokens: 8,
            max_tokens: 1024,
            mean_depth: 7.0,
            depth_spread: 1.5,
            max_depth: 11,
        }
    }

    /// Code-generation profile (HumanEval-like): moderately long steps,
    /// shallower trees.
    pub fn humaneval() -> Self {
        Self {
            median_tokens: 160.0,
            sigma: 0.8,
            min_tokens: 16,
            max_tokens: 1024,
            mean_depth: 5.0,
            depth_spread: 1.2,
            max_depth: 8,
        }
    }
}

/// Static behavioural parameters of a generator model.
///
/// `capability` is a quality-logit offset: larger models start reasoning
/// paths at higher latent quality, which is how the 7B generator earns
/// its accuracy advantage in Fig. 14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorProfile {
    /// Display name (matches the `ftts-hw` spec name).
    pub name: String,
    /// Quality-logit capability offset.
    pub capability: f64,
    /// Initial quality spread across paths.
    pub init_sigma: f64,
    /// Per-step quality drift.
    pub step_drift: f64,
    /// Per-step quality noise.
    pub step_sigma: f64,
    /// Logistic slope mapping final quality to answer correctness.
    pub answer_slope: f64,
    /// Logistic intercept for answer correctness.
    pub answer_bias: f64,
}

impl GeneratorProfile {
    /// Behaviour profile for Qwen2.5-Math-1.5B.
    ///
    /// Calibrated so that the full pipeline lands in the paper's
    /// reported accuracy bands (Fig. 3 / Fig. 14); see EXPERIMENTS.md.
    /// The slightly negative drift models reasoning drift-off-course:
    /// without verifier pruning, long chains degrade.
    pub fn qwen25_math_1_5b() -> Self {
        Self {
            name: "Qwen2.5-Math-1.5B-Instruct".to_string(),
            capability: 0.55,
            init_sigma: 0.40,
            step_drift: -0.02,
            step_sigma: 0.30,
            answer_slope: 1.6,
            answer_bias: 0.0,
        }
    }

    /// Behaviour profile for Qwen2.5-Math-7B.
    pub fn qwen25_math_7b() -> Self {
        Self {
            name: "Qwen2.5-Math-7B-Instruct".to_string(),
            capability: 1.25,
            ..Self::qwen25_math_1_5b()
        }
    }
}

/// One problem instance as the generator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Root seed; all path keys derive from it.
    pub seed: u64,
    /// Difficulty in quality-logit units (higher is harder).
    pub difficulty: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Size of the answer space (e.g. AIME answers are integers 0–999).
    pub answer_space: u32,
    /// Zipf-like concentration of wrong answers onto common distractors;
    /// higher values make majority voting harder to fool.
    pub decoy_concentration: f64,
    /// Step-length and depth profile.
    pub steps: StepProfile,
}

impl ProblemSpec {
    /// The canonical correct answer (index 0 by convention; answers are
    /// compared symbolically so the value itself is arbitrary).
    pub fn correct_answer(&self) -> u32 {
        0
    }
}

/// Latent state of one reasoning path node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeLatent {
    /// Stable path key (drives all downstream randomness).
    pub key: u64,
    /// Key of the depth-1 ancestor: the "solution approach" this path
    /// committed to. Wrong answers cluster *within* an approach, which is
    /// why diversity-preserving search (DVTS) pays off — a herded beam
    /// family votes for the same wrong answer.
    pub approach: u64,
    /// Latent correctness potential, in logits.
    pub quality: f64,
    /// Reasoning depth (0 = prompt).
    pub depth: u32,
    /// Whether this node ends its reasoning path.
    pub terminal: bool,
    /// Final answer if terminal.
    pub answer: Option<u32>,
}

/// The generator's plan for one thinking step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepPlan {
    /// Tokens this step will emit.
    pub n_tokens: u64,
    /// Latent state of the resulting child node.
    pub latent: NodeLatent,
}

/// Deterministic synthetic generator model.
///
/// All methods are pure functions of `(profile, problem, parent latent,
/// branch)` — see the crate docs for why this matters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticGenerator {
    profile: std::sync::Arc<GeneratorProfile>,
}

impl SyntheticGenerator {
    /// Create a generator with the given behaviour profile (owned or
    /// shared — per-request construction from a shared profile is free).
    pub fn new(profile: impl Into<std::sync::Arc<GeneratorProfile>>) -> Self {
        Self {
            profile: profile.into(),
        }
    }

    /// The behaviour profile.
    pub fn profile(&self) -> &GeneratorProfile {
        self.profile.as_ref()
    }

    /// Latent state of the prompt (root of the reasoning tree).
    pub fn root_latent(&self, problem: &ProblemSpec) -> NodeLatent {
        let key = crate::rng::mix64(problem.seed, 0x726F_6F74);
        let mut rng = stream(&[key, 0xA11C_E5ED]);
        let quality = normal(
            &mut rng,
            self.profile.capability - problem.difficulty,
            self.profile.init_sigma,
        );
        NodeLatent {
            key,
            approach: key,
            quality,
            depth: 0,
            terminal: false,
            answer: None,
        }
    }

    /// Plan the thinking step produced by branching `branch` from
    /// `parent`. Deterministic in `(problem, parent.key, branch)`.
    pub fn plan_step(&self, problem: &ProblemSpec, parent: &NodeLatent, branch: u64) -> StepPlan {
        assert!(!parent.terminal, "cannot extend a terminal path");
        let key = crate::rng::key_child(parent.key, branch);
        let mut rng = stream(&[key, 0x57E9_90A1]);
        let depth = parent.depth + 1;
        // A path commits to its approach on the first step.
        let approach = if parent.depth == 0 {
            key
        } else {
            parent.approach
        };
        let quality =
            parent.quality + normal(&mut rng, self.profile.step_drift, self.profile.step_sigma);
        let n_tokens = lognormal_clipped(
            &mut rng,
            problem.steps.median_tokens,
            problem.steps.sigma,
            problem.steps.min_tokens,
            problem.steps.max_tokens,
        );
        let terminal = self.is_terminal(problem, depth, &mut rng);
        let answer = if terminal {
            Some(self.draw_answer(problem, quality, key, approach))
        } else {
            None
        };
        StepPlan {
            n_tokens,
            latent: NodeLatent {
                key,
                approach,
                quality,
                depth,
                terminal,
                answer,
            },
        }
    }

    fn is_terminal<R: rand::Rng>(&self, problem: &ProblemSpec, depth: u32, rng: &mut R) -> bool {
        if depth >= problem.steps.max_depth {
            return true;
        }
        // Logistic hazard centred at mean_depth.
        let z = (depth as f64 - problem.steps.mean_depth) / problem.steps.depth_spread;
        let hazard = 1.0 / (1.0 + (-z).exp());
        rng.gen::<f64>() < hazard
    }

    /// Draw the final answer for a terminal node: correct with
    /// probability `sigmoid(slope * quality + bias)`. Wrong answers are
    /// Zipf-popular decoys, and with probability
    /// [`APPROACH_DECOY_PROB`](Self::APPROACH_DECOY_PROB) the decoy is
    /// the *approach's* characteristic wrong answer — so a whole beam
    /// family that herded onto one flawed approach votes for the same
    /// wrong value.
    fn draw_answer(&self, problem: &ProblemSpec, quality: f64, key: u64, approach: u64) -> u32 {
        let mut rng = stream(&[key, 0xAB5_3E11]);
        if rng.gen::<f64>() < self.p_correct(quality) {
            return problem.correct_answer();
        }
        if rng.gen::<f64>() < Self::APPROACH_DECOY_PROB {
            let mut arng = stream(&[approach, problem.seed, 0xDE_C0]);
            Self::zipf_decoy(problem, &mut arng)
        } else {
            Self::zipf_decoy(problem, &mut rng)
        }
    }

    /// Probability that a wrong answer is the approach's shared decoy
    /// rather than an idiosyncratic one.
    pub const APPROACH_DECOY_PROB: f64 = 0.8;

    /// Zipf over decoys `1..answer_space`. The normaliser is the same
    /// for every draw of a dataset, so it comes from a per-thread memo
    /// (see [`zipf_normaliser`]); the inverse-CDF walk below exits after
    /// a few terms at the datasets' concentrations (s >= 1.8).
    fn zipf_decoy<R: rand::Rng>(problem: &ProblemSpec, rng: &mut R) -> u32 {
        let n = (problem.answer_space.max(2) - 1) as usize;
        let s = problem.decoy_concentration;
        let total = zipf_normaliser(n, s);
        let mut u = rng.gen::<f64>() * total;
        for k in 1..=n {
            u -= (k as f64).powf(-s);
            if u <= 0.0 {
                return k as u32;
            }
        }
        n as u32
    }

    /// Probability that a terminal node with this quality answers
    /// correctly: `sigmoid(slope * quality + bias)`.
    pub fn p_correct(&self, quality: f64) -> f64 {
        let logit = self.profile.answer_slope * quality + self.profile.answer_bias;
        1.0 / (1.0 + (-logit).exp())
    }
}

thread_local! {
    /// Zipf normalisers already summed on this thread, keyed by
    /// `(terms, exponent bits)`. A pass draws about a hundred thousand
    /// wrong answers over a handful of datasets, so nearly every lookup
    /// hits.
    static ZIPF_NORMALISERS: RefCell<HashMap<(usize, u64), f64>> = RefCell::new(HashMap::new());
}

/// `sum(k^-s for k in 1..=n)`, summed once per thread per `(n, s)` in
/// exactly the order of the direct sum, so a memo hit returns the same
/// bits a fresh sum would.
fn zipf_normaliser(n: usize, s: f64) -> f64 {
    ZIPF_NORMALISERS.with(|memo| {
        *memo
            .borrow_mut()
            .entry((n, s.to_bits()))
            .or_insert_with(|| (1..=n).map(|k| (k as f64).powf(-s)).sum())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> ProblemSpec {
        ProblemSpec {
            seed: 99,
            difficulty: 1.0,
            prompt_tokens: 128,
            answer_space: 64,
            decoy_concentration: 1.2,
            steps: StepProfile::aime(),
        }
    }

    fn generator() -> SyntheticGenerator {
        SyntheticGenerator::new(GeneratorProfile::qwen25_math_1_5b())
    }

    #[test]
    fn plan_step_is_deterministic() {
        let g = generator();
        let p = problem();
        let root = g.root_latent(&p);
        let a = g.plan_step(&p, &root, 3);
        let b = g.plan_step(&p, &root, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn branches_differ() {
        let g = generator();
        let p = problem();
        let root = g.root_latent(&p);
        let a = g.plan_step(&p, &root, 0);
        let b = g.plan_step(&p, &root, 1);
        assert_ne!(a.latent.key, b.latent.key);
        assert_ne!(a.n_tokens, b.n_tokens);
    }

    #[test]
    fn paths_terminate_within_max_depth() {
        let g = generator();
        let p = problem();
        let mut node = g.root_latent(&p);
        let mut steps = 0;
        while !node.terminal {
            node = g.plan_step(&p, &node, 0).latent;
            steps += 1;
            assert!(steps <= p.steps.max_depth, "never terminated");
        }
        assert!(node.answer.is_some());
    }

    #[test]
    fn terminal_paths_cannot_extend() {
        let g = generator();
        let p = problem();
        let mut node = g.root_latent(&p);
        while !node.terminal {
            node = g.plan_step(&p, &node, 0).latent;
        }
        let result = std::panic::catch_unwind(|| g.plan_step(&p, &node, 0));
        assert!(result.is_err());
    }

    #[test]
    fn capability_improves_root_quality_distribution() {
        let small = SyntheticGenerator::new(GeneratorProfile::qwen25_math_1_5b());
        let big = SyntheticGenerator::new(GeneratorProfile::qwen25_math_7b());
        let mut sum_small = 0.0;
        let mut sum_big = 0.0;
        for seed in 0..200 {
            let p = ProblemSpec { seed, ..problem() };
            sum_small += small.root_latent(&p).quality;
            sum_big += big.root_latent(&p).quality;
        }
        assert!(sum_big > sum_small + 50.0, "7B must start clearly higher");
    }

    #[test]
    fn answers_are_correct_more_often_at_high_quality() {
        let g = generator();
        let p = problem();
        let count_correct = |quality: f64| -> usize {
            (0..500u64)
                .filter(|&i| {
                    let latent = NodeLatent {
                        key: i * 7 + 1,
                        approach: i * 7 + 1,
                        quality,
                        depth: 11,
                        terminal: false,
                        answer: None,
                    };
                    // Force a terminal step at max depth.
                    let step = g.plan_step(&p, &latent, 0);
                    step.latent.answer == Some(p.correct_answer())
                })
                .count()
        };
        let low = count_correct(-2.0);
        let high = count_correct(2.0);
        assert!(high > low + 100, "high quality {high} vs low {low}");
    }

    #[test]
    fn decoys_cluster_on_popular_distractors() {
        let g = generator();
        let p = problem();
        let mut counts = vec![0u32; p.answer_space as usize];
        for i in 0..2000u64 {
            let latent = NodeLatent {
                key: i,
                approach: i,
                quality: -6.0,
                depth: 11,
                terminal: false,
                answer: None,
            };
            let step = g.plan_step(&p, &latent, 0);
            if let Some(a) = step.latent.answer {
                counts[a as usize] += 1;
            }
        }
        // Decoy 1 (most popular) should beat decoy 20 clearly.
        assert!(counts[1] > 3 * counts[20].max(1));
    }

    /// `(answer_space, decoy_concentration)` of the four datasets, in
    /// `ftts_workload::Dataset::all()` order (AIME, AMC, MATH-500,
    /// HumanEval), then the crate-doc example.
    const DECOY_PARAMS: [(u32, f64); 5] =
        [(1000, 1.8), (800, 2.0), (500, 1.9), (50, 2.5), (64, 1.2)];

    fn direct_normaliser(n: usize, s: f64) -> f64 {
        (1..=n).map(|k| (k as f64).powf(-s)).sum()
    }

    /// `zipf_decoy` without the memo: the normaliser summed on every
    /// draw.
    fn zipf_decoy_direct<R: Rng>(problem: &ProblemSpec, rng: &mut R) -> u32 {
        let n = (problem.answer_space.max(2) - 1) as usize;
        let s = problem.decoy_concentration;
        let mut u = rng.gen::<f64>() * direct_normaliser(n, s);
        for k in 1..=n {
            u -= (k as f64).powf(-s);
            if u <= 0.0 {
                return k as u32;
            }
        }
        n as u32
    }

    #[test]
    fn zipf_normaliser_memo_returns_the_direct_sum_bits() {
        let check = || {
            for (space, s) in DECOY_PARAMS {
                let n = (space - 1) as usize;
                let cached =
                    || ZIPF_NORMALISERS.with(|m| m.borrow().contains_key(&(n, s.to_bits())));
                assert!(!cached(), "a new thread starts with an empty memo");
                let miss = zipf_normaliser(n, s);
                assert!(cached());
                let hit = zipf_normaliser(n, s);
                let direct = direct_normaliser(n, s);
                assert_eq!(miss.to_bits(), direct.to_bits(), "miss, n {n}, s {s}");
                assert_eq!(hit.to_bits(), direct.to_bits(), "hit, n {n}, s {s}");
            }
            // The exponent is part of the key: HumanEval's term count
            // under the crate-doc exponent is a new entry.
            let (n, s) = (49, 1.2);
            assert_eq!(
                zipf_normaliser(n, s).to_bits(),
                direct_normaliser(n, s).to_bits()
            );
        };
        let threads: Vec<_> = (0..2).map(|_| std::thread::spawn(check)).collect();
        for t in threads {
            t.join().expect("memo check thread");
        }
    }

    #[test]
    fn zipf_decoy_draws_match_the_unmemoized_formula() {
        for (i, (space, s)) in DECOY_PARAMS.into_iter().enumerate() {
            let p = ProblemSpec {
                answer_space: space,
                decoy_concentration: s,
                ..problem()
            };
            let mut memo_rng = stream(&[i as u64, 0xDEC0]);
            let mut direct_rng = stream(&[i as u64, 0xDEC0]);
            for draw in 0..2_000 {
                assert_eq!(
                    SyntheticGenerator::zipf_decoy(&p, &mut memo_rng),
                    zipf_decoy_direct(&p, &mut direct_rng),
                    "draw {draw}, answer space {space}, s {s}"
                );
            }
        }
    }

    #[test]
    fn p_correct_is_monotone() {
        let g = generator();
        assert!(g.p_correct(1.0) > g.p_correct(0.0));
        assert!(g.p_correct(0.0) > g.p_correct(-1.0));
    }

    #[test]
    fn step_profiles_vary_by_dataset() {
        assert!(StepProfile::aime().median_tokens > StepProfile::amc().median_tokens);
    }
}
