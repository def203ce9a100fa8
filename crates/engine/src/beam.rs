//! Beam (reasoning path) bookkeeping.

use ftts_kv::NodeId;
use ftts_model::{NodeLatent, StepPlan};
use serde::{Deserialize, Serialize};

/// Identifier of a beam within one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BeamId(pub u32);

impl std::fmt::Display for BeamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "beam#{}", self.0)
    }
}

/// Lifecycle state of a beam.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BeamState {
    /// Currently generating / awaiting verification.
    Active,
    /// Reached a terminal reasoning state; outcome recorded.
    Completed,
    /// Pruned by the search algorithm.
    Pruned,
}

/// One in-flight speculative continuation branch of a beam
/// (pre-generating what would become child `branch` after selection).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SpecBranch {
    /// Which future child this branch pre-generates (0 = continuation).
    pub branch: u64,
    /// KV node holding the speculative tokens.
    pub node: NodeId,
    /// The (deterministic) plan of that future step.
    pub plan: StepPlan,
    /// Verifier-noise state of that future step.
    pub eps: f64,
    /// Tokens generated so far.
    pub generated: u64,
    /// Whether the whole step was pre-generated.
    pub complete: bool,
    /// LookAhead: the step was already verified; its score.
    pub preverified: Option<f64>,
    /// LookAhead: verifier-cache node holding the pre-verified step.
    pub ver_node: Option<NodeId>,
}

/// A reasoning path being served.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Beam {
    /// Beam id.
    pub id: BeamId,
    /// Parent beam id (None for the initial expansion of the prompt).
    pub parent: Option<BeamId>,
    /// Which initial subtree this beam descends from (DVTS selection).
    pub subtree: u32,
    /// Leaf node in the generator KV cache (this step's tokens).
    pub kv: NodeId,
    /// Leaf node in the verifier KV cache, if the path is mirrored there.
    pub ver_kv: Option<NodeId>,
    /// Latent state of the step this beam is generating / just generated.
    pub latent: NodeLatent,
    /// AR(1) verifier-noise state for this step.
    pub eps: f64,
    /// Verifier score of this step once verified.
    pub score: Option<f64>,
    /// Verifier score of the previous step (SelectSPEC's retention proxy).
    pub prev_score: f64,
    /// Target tokens for the current step.
    pub step_target: u64,
    /// Tokens of the current step already produced (inherited speculative
    /// head start plus decoded so far).
    pub step_done: u64,
    /// LookAhead pre-verified score for this step, if any.
    pub preverified: Option<f64>,
    /// Lifecycle state.
    pub state: BeamState,
    /// In-flight speculative branches (cleared at branching).
    pub(crate) spec: Vec<SpecBranch>,
    /// Simulated time this beam's path completed (terminal verification).
    pub completed_at: Option<f64>,
}

impl Beam {
    /// Tokens still to decode for the current step.
    pub fn remaining(&self) -> u64 {
        self.step_target.saturating_sub(self.step_done)
    }

    /// Whether the current step is fully generated.
    pub fn step_complete(&self) -> bool {
        self.remaining() == 0
    }
}

/// Immutable view of a verified beam handed to the search algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoredBeam {
    /// Beam id.
    pub id: BeamId,
    /// Verifier score of the newest step, in (0, 1).
    pub score: f64,
    /// Reasoning depth (steps completed).
    pub depth: u32,
    /// Whether the path has terminated.
    pub terminal: bool,
    /// Which initial subtree the beam belongs to.
    pub subtree: u32,
    /// Total path length in tokens (prompt included).
    pub path_tokens: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beam() -> Beam {
        let mut kv = ftts_kv::KvCache::new(ftts_kv::KvCacheConfig {
            capacity_bytes: 1 << 16,
            bytes_per_token: 4,
            prefix_sharing: true,
        });
        let node = kv.root(8).unwrap();
        Beam {
            id: BeamId(1),
            parent: None,
            subtree: 0,
            kv: node,
            ver_kv: None,
            latent: NodeLatent {
                key: 1,
                approach: 1,
                quality: 0.0,
                depth: 1,
                terminal: false,
                answer: None,
            },
            eps: 0.0,
            score: None,
            prev_score: 0.5,
            step_target: 100,
            step_done: 40,
            preverified: None,
            state: BeamState::Active,
            spec: Vec::new(),
            completed_at: None,
        }
    }

    #[test]
    fn remaining_subtracts_head_start() {
        let b = beam();
        assert_eq!(b.remaining(), 60);
        assert!(!b.step_complete());
    }

    #[test]
    fn overshoot_saturates() {
        let mut b = beam();
        b.step_done = 150;
        assert_eq!(b.remaining(), 0);
        assert!(b.step_complete());
    }

    #[test]
    fn ids_display() {
        assert_eq!(BeamId(7).to_string(), "beam#7");
    }
}
