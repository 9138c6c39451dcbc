//! Ranking metrics: Hits@k and MRR (§VIII-A).

use pinsql_sqlkit::SqlId;

/// 1-based rank of the first ranked template that appears in the annotated
/// set; `None` when no ranked template is annotated.
pub fn first_hit_rank(ranked: &[SqlId], truth: &[SqlId]) -> Option<usize> {
    ranked.iter().position(|id| truth.contains(id)).map(|p| p + 1)
}

/// Fraction of cases whose first hit lands within the top `k`.
pub fn hits_at_k(ranks: &[Option<usize>], k: usize) -> f64 {
    if ranks.is_empty() {
        return 0.0;
    }
    let hits = ranks.iter().filter(|r| r.is_some_and(|r| r <= k)).count();
    hits as f64 / ranks.len() as f64
}

/// Mean reciprocal rank; a miss contributes 0.
pub fn mean_reciprocal_rank(ranks: &[Option<usize>]) -> f64 {
    if ranks.is_empty() {
        return 0.0;
    }
    ranks.iter().map(|r| r.map_or(0.0, |r| 1.0 / r as f64)).sum::<f64>() / ranks.len() as f64
}

/// Aggregated ranking quality over a case set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankSummary {
    pub hits_at_1: f64,
    pub hits_at_5: f64,
    pub mrr: f64,
    /// Mean wall-clock seconds per case.
    pub mean_time_s: f64,
}

impl RankSummary {
    /// Builds a summary from per-case first-hit ranks and timings.
    pub fn from_ranks(ranks: &[Option<usize>], times_s: &[f64]) -> Self {
        let mean_time_s = if times_s.is_empty() {
            0.0
        } else {
            times_s.iter().sum::<f64>() / times_s.len() as f64
        };
        Self {
            hits_at_1: hits_at_k(ranks, 1),
            hits_at_5: hits_at_k(ranks, 5),
            mrr: mean_reciprocal_rank(ranks),
            mean_time_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(x: u64) -> SqlId {
        SqlId(x)
    }

    #[test]
    fn first_hit_rank_finds_first_annotated() {
        let ranked = vec![id(10), id(20), id(30)];
        assert_eq!(first_hit_rank(&ranked, &[id(20), id(30)]), Some(2));
        assert_eq!(first_hit_rank(&ranked, &[id(10)]), Some(1));
        assert_eq!(first_hit_rank(&ranked, &[id(99)]), None);
        assert_eq!(first_hit_rank(&[], &[id(1)]), None);
    }

    #[test]
    fn hits_at_k_counts_within_k() {
        let ranks = vec![Some(1), Some(3), Some(7), None];
        assert_eq!(hits_at_k(&ranks, 1), 0.25);
        assert_eq!(hits_at_k(&ranks, 5), 0.5);
        assert_eq!(hits_at_k(&ranks, 10), 0.75);
        assert_eq!(hits_at_k(&[], 1), 0.0);
    }

    #[test]
    fn mrr_matches_definition() {
        let ranks = vec![Some(1), Some(2), None, Some(4)];
        let expect = (1.0 + 0.5 + 0.0 + 0.25) / 4.0;
        assert!((mean_reciprocal_rank(&ranks) - expect).abs() < 1e-12);
        assert_eq!(mean_reciprocal_rank(&[]), 0.0);
    }

    #[test]
    fn summary_aggregates() {
        let ranks = vec![Some(1), Some(2)];
        let s = RankSummary::from_ranks(&ranks, &[0.5, 1.5]);
        assert_eq!(s.hits_at_1, 0.5);
        assert_eq!(s.hits_at_5, 1.0);
        assert!((s.mrr - 0.75).abs() < 1e-12);
        assert_eq!(s.mean_time_s, 1.0);
    }
}
