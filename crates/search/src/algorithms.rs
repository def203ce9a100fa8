//! The five search-algorithm drivers.

use ftts_engine::{BeamId, ScoredBeam, SearchDriver, SelectCtx};
use serde::{Deserialize, Serialize};

/// Rank beams by score (descending), breaking ties by id so selection is
/// deterministic.
fn ranked(frontier: &[ScoredBeam]) -> Vec<&ScoredBeam> {
    let mut v: Vec<&ScoredBeam> = frontier.iter().collect();
    v.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    v
}

/// The TTS algorithms evaluated in the paper (Fig. 2 / Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchKind {
    /// Best-of-N sampling with outcome scoring.
    BestOfN,
    /// Standard verifier-guided beam search.
    BeamSearch,
    /// Diverse verifier tree search.
    Dvts,
    /// Score-adaptive branching.
    DynamicBranching,
    /// Depth-varying verification granularity.
    VaryingGranularity,
}

impl SearchKind {
    /// All variants, in the paper's Fig. 11 order.
    pub fn all() -> [SearchKind; 5] {
        [
            SearchKind::BeamSearch,
            SearchKind::Dvts,
            SearchKind::DynamicBranching,
            SearchKind::VaryingGranularity,
            SearchKind::BestOfN,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SearchKind::BestOfN => "Best-of-N",
            SearchKind::BeamSearch => "Beam Search",
            SearchKind::Dvts => "DVTS",
            SearchKind::DynamicBranching => "Dynamic Branching",
            SearchKind::VaryingGranularity => "Varying Granularity",
        }
    }
}

impl std::fmt::Display for SearchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The branching factor `b` of every tree search: each surviving beam
/// expands into `b` children (the average, for [`DynamicBranching`]),
/// so `n / b` beams survive each selection.
pub const BRANCHING: usize = 4;

/// Build a boxed driver for `kind` with beam budget `n`.
pub fn make_driver(kind: SearchKind, n: usize) -> Box<dyn SearchDriver + Send> {
    match kind {
        SearchKind::BestOfN => Box::new(BestOfN::new(n)),
        SearchKind::BeamSearch => Box::new(BeamSearch::new(n)),
        SearchKind::Dvts => Box::new(Dvts::new(n)),
        SearchKind::DynamicBranching => Box::new(DynamicBranching::new(n)),
        SearchKind::VaryingGranularity => Box::new(VaryingGranularity::new(n)),
    }
}

/// Best-of-N: `n` independent chains; no intermediate verification (the
/// outcome reward model scores terminal outputs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestOfN {
    n: usize,
}

impl BestOfN {
    /// `n` parallel chains.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Self { n }
    }
}

impl SearchDriver for BestOfN {
    fn name(&self) -> &'static str {
        "best-of-n"
    }

    fn branching(&self) -> usize {
        1
    }

    fn verify_every_step(&self) -> bool {
        false
    }

    fn select(&mut self, frontier: &[ScoredBeam], _ctx: &SelectCtx) -> Vec<(BeamId, usize)> {
        // Every chain continues independently until it terminates.
        frontier.iter().map(|s| (s.id, 1)).collect()
    }
}

/// Standard beam search: keep the global top `n/b`, expand each into
/// `b` = [`BRANCHING`] children (Hugging Face `search-and-learn`
/// semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeamSearch {
    n: usize,
}

impl BeamSearch {
    /// Beam budget `n`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "n must be positive");
        Self { n }
    }
}

impl SearchDriver for BeamSearch {
    fn name(&self) -> &'static str {
        "beam-search"
    }

    fn branching(&self) -> usize {
        BRANCHING
    }

    fn select(&mut self, frontier: &[ScoredBeam], _ctx: &SelectCtx) -> Vec<(BeamId, usize)> {
        let keep = (self.n / BRANCHING).max(1).min(frontier.len());
        ranked(frontier)[..keep]
            .iter()
            .map(|s| (s.id, BRANCHING))
            .collect()
    }
}

/// Diverse Verifier Tree Search: the frontier is partitioned into the
/// `n/b` independent subtrees rooted at the initial expansion; the best
/// beam of each subtree survives and expands into `b` = [`BRANCHING`]
/// children (Sec. 3.1, "Diverse Selection").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dvts {
    n: usize,
}

impl Dvts {
    /// Beam budget `n`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "n must be positive");
        Self { n }
    }
}

impl SearchDriver for Dvts {
    fn name(&self) -> &'static str {
        "dvts"
    }

    fn branching(&self) -> usize {
        BRANCHING
    }

    fn select(&mut self, frontier: &[ScoredBeam], _ctx: &SelectCtx) -> Vec<(BeamId, usize)> {
        use std::collections::HashMap;
        // The n initial beams form n/b independent subtrees of width b;
        // subtree ids inherited from the initial expansion are grouped
        // accordingly.
        let group = |s: &ScoredBeam| s.subtree / BRANCHING as u32;
        let mut best: HashMap<u32, &ScoredBeam> = HashMap::new();
        for s in frontier {
            let entry = best.entry(group(s)).or_insert(s);
            if s.score > entry.score || (s.score == entry.score && s.id < entry.id) {
                *entry = s;
            }
        }
        let mut picks: Vec<(BeamId, usize)> =
            best.into_values().map(|s| (s.id, BRANCHING)).collect();
        picks.sort_by_key(|&(id, _)| id);
        picks
    }
}

/// Dynamic branching: the `n`-beam budget is apportioned across surviving
/// beams proportionally to their verifier scores (largest-remainder
/// method), so strong beams branch wider and weak ones are pruned
/// (Sec. 3.1, "Dynamic Branching"; Fig. 11 caption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicBranching {
    n: usize,
}

impl DynamicBranching {
    /// Beam budget `n`; [`BRANCHING`] is the *average* branching factor,
    /// which sets how many parents survive (`n/b`).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "n must be positive");
        Self { n }
    }
}

impl SearchDriver for DynamicBranching {
    fn name(&self) -> &'static str {
        "dynamic-branching"
    }

    fn branching(&self) -> usize {
        BRANCHING
    }

    fn select(&mut self, frontier: &[ScoredBeam], _ctx: &SelectCtx) -> Vec<(BeamId, usize)> {
        let keep = (self.n / BRANCHING).max(1).min(frontier.len());
        let survivors = &ranked(frontier)[..keep];
        let total: f64 = survivors.iter().map(|s| s.score.max(1e-6)).sum();
        // Largest-remainder apportionment of n children.
        let quotas: Vec<f64> = survivors
            .iter()
            .map(|s| s.score.max(1e-6) / total * self.n as f64)
            .collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut assigned: usize = counts.iter().sum();
        let mut order: Vec<usize> = (0..survivors.len()).collect();
        order.sort_by(|&x, &y| {
            let rx = quotas[x] - quotas[x].floor();
            let ry = quotas[y] - quotas[y].floor();
            ry.partial_cmp(&rx).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut i = 0;
        while assigned < self.n && i < order.len() {
            counts[order[i]] += 1;
            assigned += 1;
            i += 1;
        }
        survivors
            .iter()
            .zip(counts)
            .filter(|(_, c)| *c > 0)
            .map(|(s, c)| (s.id, c))
            .collect()
    }
}

/// Varying Granularity: beam search with a depth-dependent cap on the
/// thinking-step length — short, tightly verified steps early, long steps
/// later (Fig. 11 caption: 64 tokens for the first 3 steps, 2048 after).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaryingGranularity {
    inner: BeamSearch,
}

impl VaryingGranularity {
    /// Step-token cap through depth `SWITCH_DEPTH`, and past it.
    const EARLY_CAP: u64 = 64;
    const LATE_CAP: u64 = 2048;
    const SWITCH_DEPTH: u32 = 3;

    /// Beam budget `n`, with the paper's granularity schedule.
    pub fn new(n: usize) -> Self {
        Self {
            inner: BeamSearch::new(n),
        }
    }
}

impl SearchDriver for VaryingGranularity {
    fn name(&self) -> &'static str {
        "varying-granularity"
    }

    fn branching(&self) -> usize {
        self.inner.branching()
    }

    fn step_token_cap(&self, depth: u32) -> Option<u64> {
        Some(if depth <= Self::SWITCH_DEPTH {
            Self::EARLY_CAP
        } else {
            Self::LATE_CAP
        })
    }

    fn select(&mut self, frontier: &[ScoredBeam], ctx: &SelectCtx) -> Vec<(BeamId, usize)> {
        self.inner.select(frontier, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beam(id: u32, score: f64, subtree: u32) -> ScoredBeam {
        ScoredBeam {
            id: BeamId(id),
            score,
            depth: 1,
            terminal: false,
            subtree,
            path_tokens: 100,
        }
    }

    #[test]
    fn beam_search_keeps_top_n_over_b() {
        let mut d = BeamSearch::new(8);
        let frontier: Vec<ScoredBeam> = (0..8).map(|i| beam(i, i as f64 / 10.0, 0)).collect();
        let picks = d.select(&frontier, &ctx());
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0].0, BeamId(7));
        assert_eq!(picks[1].0, BeamId(6));
        assert!(picks.iter().all(|&(_, c)| c == 4));
    }

    fn ctx() -> SelectCtx {
        SelectCtx {
            iteration: 0,
            n_target: 8,
            completed: 0,
        }
    }

    #[test]
    fn beam_search_tie_breaks_by_id() {
        let mut d = BeamSearch::new(4);
        let frontier = vec![beam(3, 0.5, 0), beam(1, 0.5, 0)];
        let picks = d.select(&frontier, &ctx());
        assert_eq!(picks[0].0, BeamId(1));
    }

    #[test]
    fn best_of_n_keeps_everything_with_single_children() {
        let mut d = BestOfN::new(8);
        let frontier: Vec<ScoredBeam> = (0..8).map(|i| beam(i, 0.1, i)).collect();
        let picks = d.select(&frontier, &ctx());
        assert_eq!(picks.len(), 8);
        assert!(picks.iter().all(|&(_, c)| c == 1));
        assert!(!d.verify_every_step());
        assert_eq!(d.branching(), 1);
    }

    #[test]
    fn dvts_selects_one_per_subtree_group() {
        let mut d = Dvts::new(8);
        // Initial subtrees 0..7 fold into groups {0..3} and {4..7}.
        let frontier = vec![
            beam(0, 0.9, 0),
            beam(1, 0.2, 1),
            beam(2, 0.4, 4),
            beam(3, 0.8, 5),
        ];
        let picks = d.select(&frontier, &ctx());
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0].0, BeamId(0));
        assert_eq!(picks[1].0, BeamId(3));
        assert!(picks.iter().all(|&(_, c)| c == 4));
    }

    #[test]
    fn dvts_preserves_diversity_against_global_ranking() {
        // Group 1's best (0.3) survives even though group 0 holds the
        // global top-2.
        let mut d = Dvts::new(8);
        let frontier = vec![beam(0, 0.9, 0), beam(1, 0.8, 1), beam(2, 0.3, 6)];
        let picks = d.select(&frontier, &ctx());
        let ids: Vec<u32> = picks.iter().map(|&(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn dynamic_branching_apportions_exactly_n() {
        let mut d = DynamicBranching::new(16);
        let frontier = vec![
            beam(0, 0.9, 0),
            beam(1, 0.5, 0),
            beam(2, 0.4, 0),
            beam(3, 0.1, 0),
            beam(4, 0.05, 0),
        ];
        let picks = d.select(&frontier, &ctx());
        let total: usize = picks.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 16);
        // Highest scoring survivor branches widest.
        let by_id: std::collections::HashMap<u32, usize> =
            picks.iter().map(|&(id, c)| (id.0, c)).collect();
        let max = picks.iter().map(|&(_, c)| c).max().unwrap();
        assert_eq!(by_id.get(&0), Some(&max));
    }

    #[test]
    fn dynamic_branching_prunes_to_survivor_count() {
        let mut d = DynamicBranching::new(8);
        let frontier: Vec<ScoredBeam> = (0..8).map(|i| beam(i, 0.5, 0)).collect();
        let picks = d.select(&frontier, &ctx());
        assert_eq!(picks.len(), 2, "n/b survivors");
    }

    #[test]
    fn varying_granularity_caps_by_depth() {
        let d = VaryingGranularity::new(8);
        assert_eq!(d.step_token_cap(1), Some(64));
        assert_eq!(d.step_token_cap(3), Some(64));
        assert_eq!(d.step_token_cap(4), Some(2048));
    }

    #[test]
    fn factory_builds_all_kinds() {
        for kind in SearchKind::all() {
            let d = make_driver(kind, 16);
            assert!(!d.name().is_empty());
            assert!(d.branching() >= 1);
        }
        assert_eq!(SearchKind::Dvts.to_string(), "DVTS");
    }

    #[test]
    fn a_driver_cloned_mid_search_selects_like_the_original() {
        // A frontier per iteration: scores and subtrees shift with the
        // iteration, so each selection differs.
        let frontier = |it: u32| -> Vec<ScoredBeam> {
            (0..12)
                .map(|i| ScoredBeam {
                    depth: it + 1,
                    ..beam(i, f64::from((i * 7 + it * 3) % 11) / 11.0, (i + it) % 6)
                })
                .collect()
        };
        let ctx = |it: u32| SelectCtx {
            iteration: it,
            n_target: 16,
            completed: it as usize,
        };
        for kind in SearchKind::all() {
            let mut original = make_driver(kind, 16);
            for it in 0..3 {
                original.select(&frontier(it), &ctx(it));
            }
            let mut clone = original.box_clone();
            assert_eq!(clone.name(), original.name());
            for it in 3..8 {
                assert_eq!(
                    clone.step_token_cap(it),
                    original.step_token_cap(it),
                    "{kind}"
                );
                assert_eq!(
                    clone.select(&frontier(it), &ctx(it)),
                    original.select(&frontier(it), &ctx(it)),
                    "{kind}: iteration {it}"
                );
            }
        }
    }

    #[test]
    fn empty_frontier_yields_empty_selection() {
        for kind in SearchKind::all() {
            let mut d = make_driver(kind, 8);
            assert!(d.select(&[], &ctx()).is_empty(), "{kind}");
        }
    }
}
