//! Answer-selection metrics (Fig. 14).

use std::collections::HashMap;

/// Majority vote over final answers; ties break toward the answer with
/// the higher total verifier score, then toward the smaller answer id so
/// the result is deterministic.
///
/// Returns `None` when no beam produced an answer.
///
/// # Example
///
/// ```
/// use ftts_metrics::top1_majority;
/// let picked = top1_majority(&[(7, 0.9), (7, 0.2), (3, 0.8)]);
/// assert_eq!(picked, Some(7));
/// ```
pub fn top1_majority(answers: &[(u32, f64)]) -> Option<u32> {
    if answers.is_empty() {
        return None;
    }
    let mut tally: HashMap<u32, (usize, f64)> = HashMap::new();
    for &(a, score) in answers {
        let e = tally.entry(a).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += score;
    }
    tally
        .into_iter()
        .max_by(|(a1, (c1, s1)), (a2, (c2, s2))| {
            c1.cmp(c2)
                .then(s1.partial_cmp(s2).unwrap_or(std::cmp::Ordering::Equal))
                .then(a2.cmp(a1)) // smaller id wins on full tie
        })
        .map(|(a, _)| a)
}

/// Pass@N: rank candidates by verifier score (descending) and report
/// whether any of the top `n` is correct (paper Sec. 6.3: "the N
/// candidates are selected based on their verifier score").
///
/// # Example
///
/// ```
/// use ftts_metrics::pass_at_n;
/// let c = [(0.9, false), (0.8, true), (0.1, true)];
/// assert!(!pass_at_n(&c, 1));
/// assert!(pass_at_n(&c, 2));
/// ```
pub fn pass_at_n(candidates: &[(f64, bool)], n: usize) -> bool {
    if n == 0 || candidates.is_empty() {
        return false;
    }
    let mut ranked: Vec<&(f64, bool)> = candidates.iter().collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    ranked.iter().take(n).any(|(_, correct)| *correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_prefers_count_over_score() {
        let picked = top1_majority(&[(1, 0.1), (1, 0.1), (2, 0.99)]);
        assert_eq!(picked, Some(1));
    }

    #[test]
    fn majority_breaks_count_ties_by_score() {
        let picked = top1_majority(&[(1, 0.4), (2, 0.9)]);
        assert_eq!(picked, Some(2));
    }

    #[test]
    fn majority_full_tie_is_deterministic() {
        let picked = top1_majority(&[(5, 0.5), (9, 0.5)]);
        assert_eq!(picked, Some(5));
    }

    #[test]
    fn majority_of_empty_is_none() {
        assert_eq!(top1_majority(&[]), None);
    }

    #[test]
    fn pass_at_n_ranks_by_score() {
        let c = [(0.2, true), (0.9, false), (0.5, false)];
        assert!(!pass_at_n(&c, 2), "correct answer is ranked last");
        assert!(pass_at_n(&c, 3));
    }

    #[test]
    fn pass_at_n_edge_cases() {
        assert!(!pass_at_n(&[], 5));
        assert!(!pass_at_n(&[(0.5, true)], 0));
        assert!(pass_at_n(&[(0.5, true)], 10), "n larger than pool is fine");
    }

    #[test]
    fn pass_at_n_is_monotone_in_n() {
        let c = [(0.9, false), (0.7, false), (0.6, true), (0.2, false)];
        let mut prev = false;
        for n in 0..=c.len() {
            let now = pass_at_n(&c, n);
            assert!(!prev || now, "pass@N must be monotone");
            prev = now;
        }
    }
}
