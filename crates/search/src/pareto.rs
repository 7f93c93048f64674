//! Pareto analysis over the candidate log: the Fig. 1 design-space view.
//!
//! The Fig. 9 search returns a single min-area SLA-satisfying design, but
//! vendors often want the whole frontier — which extra square millimetres
//! buy which latency. This module extracts the (area, TTFT, TBT)
//! non-dominated set from a search's candidate log.

use ador_units::{Area, Seconds};

use crate::{SearchOutcome, SearchStep};

/// One non-dominated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Candidate name (encodes the SA/MT/core configuration).
    pub candidate: String,
    /// Die area.
    pub area: Area,
    /// Predicted TTFT at the search's operating point.
    pub ttft: Seconds,
    /// Predicted TBT at the search's operating point.
    pub tbt: Seconds,
}

impl ParetoPoint {
    fn dominates(&self, other: &Self) -> bool {
        let no_worse = self.area <= other.area && self.ttft <= other.ttft && self.tbt <= other.tbt;
        let better = self.area < other.area || self.ttft < other.ttft || self.tbt < other.tbt;
        no_worse && better
    }
}

/// Extracts the (area, TTFT, TBT) Pareto frontier from a search outcome's
/// candidate log, sorted by area.
///
/// # Examples
///
/// ```
/// use ador_search::{pareto_frontier, SearchInput, UserRequirements, VendorConstraints, Workload};
///
/// let input = SearchInput {
///     vendor: VendorConstraints::a100_class(),
///     user: UserRequirements::chatbot(),
///     workload: Workload::new(ador_model::presets::llama3_8b(), 128, 1024),
/// };
/// let outcome = ador_search::search(&input)?;
/// let frontier = pareto_frontier(&outcome);
/// assert!(!frontier.is_empty());
/// // Along the frontier, spending more area must buy some latency back.
/// for pair in frontier.windows(2) {
///     assert!(pair[1].ttft < pair[0].ttft || pair[1].tbt < pair[0].tbt);
/// }
/// # Ok::<(), ador_search::SearchError>(())
/// ```
pub fn pareto_frontier(outcome: &SearchOutcome) -> Vec<ParetoPoint> {
    let points: Vec<ParetoPoint> = outcome
        .steps
        .iter()
        .map(|s: &SearchStep| ParetoPoint {
            candidate: s.candidate.clone(),
            area: s.area,
            ttft: s.ttft,
            tbt: s.tbt,
        })
        .collect();
    let mut frontier: Vec<ParetoPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| a.area.partial_cmp(&b.area).expect("areas are never NaN"));
    frontier.dedup_by(|a, b| a.area == b.area && a.ttft == b.ttft && a.tbt == b.tbt);
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchInput, UserRequirements, VendorConstraints, Workload};
    use ador_model::presets;

    fn outcome() -> SearchOutcome {
        crate::search(&SearchInput {
            vendor: VendorConstraints::a100_class(),
            user: UserRequirements::chatbot(),
            workload: Workload::new(presets::llama3_8b(), 128, 1024),
        })
        .unwrap()
    }

    #[test]
    fn frontier_is_nonempty_and_nondominated() {
        let frontier = pareto_frontier(&outcome());
        assert!(!frontier.is_empty());
        for a in &frontier {
            for b in &frontier {
                assert!(!a.dominates(b), "{} dominates {}", a.candidate, b.candidate);
            }
        }
    }

    #[test]
    fn frontier_is_subset_of_candidates() {
        let out = outcome();
        let frontier = pareto_frontier(&out);
        assert!(frontier.len() <= out.steps.len());
        for p in &frontier {
            assert!(out.steps.iter().any(|s| s.candidate == p.candidate));
        }
    }

    #[test]
    fn frontier_sorted_by_area_with_latency_payback() {
        let frontier = pareto_frontier(&outcome());
        for pair in frontier.windows(2) {
            assert!(pair[0].area <= pair[1].area);
            // More silicon must buy back some latency dimension.
            assert!(
                pair[1].ttft < pair[0].ttft || pair[1].tbt < pair[0].tbt,
                "{} -> {}",
                pair[0].candidate,
                pair[1].candidate
            );
        }
    }
}
