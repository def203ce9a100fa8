//! Benchmark dataset definitions.

use ftts_model::{normal, stream, ProblemSpec, StepProfile};
use serde::{Deserialize, Serialize};

/// A benchmark the paper evaluates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// AIME 2024 — hard competition math (30 problems).
    Aime2024,
    /// AMC 2023 — broader-difficulty competition math (40 problems).
    Amc2023,
    /// MATH-500 — the motivation-study benchmark (Fig. 3).
    Math500,
    /// HumanEval — code generation (Fig. 15).
    HumanEval,
}

impl Dataset {
    /// All datasets.
    pub fn all() -> [Dataset; 4] {
        [
            Dataset::Aime2024,
            Dataset::Amc2023,
            Dataset::Math500,
            Dataset::HumanEval,
        ]
    }

    /// Mean and spread of problem difficulty, in quality-logit units.
    /// Calibrated against the paper's accuracy bands (see EXPERIMENTS.md).
    fn difficulty_params(self) -> (f64, f64) {
        match self {
            Dataset::Aime2024 => (3.10, 0.50),
            Dataset::Amc2023 => (1.70, 0.60),
            Dataset::Math500 => (1.50, 0.70),
            Dataset::HumanEval => (1.90, 0.50),
        }
    }

    /// Mean and spread of prompt lengths, in tokens.
    fn prompt_params(self) -> (f64, f64) {
        match self {
            Dataset::Aime2024 => (140.0, 30.0),
            Dataset::Amc2023 => (110.0, 25.0),
            Dataset::Math500 => (100.0, 25.0),
            Dataset::HumanEval => (180.0, 40.0),
        }
    }

    /// Size of the answer space for voting purposes.
    fn answer_space(self) -> u32 {
        match self {
            // AIME answers are integers 0–999; AMC/MATH effective answer
            // spaces are similar in size once normalized.
            Dataset::Aime2024 => 1000,
            Dataset::Amc2023 => 800,
            Dataset::Math500 => 500,
            // Code either passes or fails tests, but distinct wrong
            // programs cluster into failure modes.
            Dataset::HumanEval => 50,
        }
    }

    /// Zipf concentration of wrong answers onto common distractors.
    /// Real competition problems have *attractive* wrong answers, so
    /// wrong paths cluster and majority voting can lose.
    fn decoy_concentration(self) -> f64 {
        match self {
            Dataset::Aime2024 => 1.80,
            Dataset::Amc2023 => 2.00,
            Dataset::Math500 => 1.90,
            Dataset::HumanEval => 2.50,
        }
    }

    /// Step-length / depth profile for this dataset.
    pub fn step_profile(self) -> StepProfile {
        match self {
            Dataset::Aime2024 => StepProfile::aime(),
            Dataset::Amc2023 => StepProfile::amc(),
            Dataset::Math500 => StepProfile::math500(),
            Dataset::HumanEval => StepProfile::humaneval(),
        }
    }

    /// Short display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Aime2024 => "AIME",
            Dataset::Amc2023 => "AMC",
            Dataset::Math500 => "MATH-500",
            Dataset::HumanEval => "HumanEval",
        }
    }

    /// Generate `n` deterministic problems for this dataset.
    ///
    /// The same `(dataset, seed)` always yields the same problems, and
    /// problem `i` is independent of `n` (prefix-stable), so experiments
    /// with different subset sizes stay comparable.
    pub fn problems(self, n: usize, seed: u64) -> Vec<ProblemSpec> {
        let (d_mu, d_sigma) = self.difficulty_params();
        let (p_mu, p_sigma) = self.prompt_params();
        let tag = self as u64 + 0x0DA7_A5E7;
        (0..n as u64)
            .map(|i| {
                let mut rng = stream(&[seed, tag, i]);
                let difficulty = normal(&mut rng, d_mu, d_sigma).max(0.05);
                let prompt_tokens =
                    normal(&mut rng, p_mu, p_sigma).round().clamp(32.0, 512.0) as u64;
                ProblemSpec {
                    seed: ftts_model::mix64(seed, ftts_model::mix64(tag, i)),
                    difficulty,
                    prompt_tokens,
                    answer_space: self.answer_space(),
                    decoy_concentration: self.decoy_concentration(),
                    steps: self.step_profile(),
                }
            })
            .collect()
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problems_are_deterministic_and_prefix_stable() {
        let a = Dataset::Aime2024.problems(10, 7);
        let b = Dataset::Aime2024.problems(10, 7);
        assert_eq!(a, b);
        let prefix = Dataset::Aime2024.problems(4, 7);
        assert_eq!(&a[..4], &prefix[..]);
    }

    #[test]
    fn decoy_parameters_match_the_generator_memo_tests() {
        // ftts-model's decoy-normaliser tests cover exactly these pairs.
        let params: Vec<(u32, f64)> = Dataset::all()
            .iter()
            .map(|d| (d.answer_space(), d.decoy_concentration()))
            .collect();
        assert_eq!(params, [(1000, 1.8), (800, 2.0), (500, 1.9), (50, 2.5)]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::Amc2023.problems(5, 1);
        let b = Dataset::Amc2023.problems(5, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn datasets_have_distinct_problem_seeds() {
        let a = Dataset::Aime2024.problems(5, 1);
        let b = Dataset::Amc2023.problems(5, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed);
        }
    }

    #[test]
    fn aime_is_hardest_math_dataset() {
        let mean = |d: Dataset| {
            let ps = d.problems(200, 3);
            ps.iter().map(|p| p.difficulty).sum::<f64>() / ps.len() as f64
        };
        let aime = mean(Dataset::Aime2024);
        let amc = mean(Dataset::Amc2023);
        let math = mean(Dataset::Math500);
        assert!(
            aime > amc && aime > math,
            "AIME must be hardest: aime {aime}, math {math}, amc {amc}"
        );
    }

    #[test]
    fn difficulty_is_positive() {
        for d in Dataset::all() {
            for p in d.problems(100, 11) {
                assert!(p.difficulty > 0.0);
                assert!((32..=512).contains(&p.prompt_tokens));
            }
        }
    }

    #[test]
    fn labels_are_figure_ready() {
        assert_eq!(Dataset::Aime2024.to_string(), "AIME");
        assert_eq!(Dataset::HumanEval.label(), "HumanEval");
    }
}
