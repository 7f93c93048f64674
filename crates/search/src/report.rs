//! Search results and errors.

use core::fmt;

use ador_hw::{Architecture, AreaBreakdown};
use ador_perf::Deployment;
use ador_units::{Area, Seconds};

/// One evaluated candidate in the search log.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchStep {
    /// Candidate name (encodes SA/MT/core configuration).
    pub candidate: String,
    /// Estimated die area.
    pub area: Area,
    /// Predicted TTFT at the workload's prompt length.
    pub ttft: Seconds,
    /// Predicted TBT at the workload's batch.
    pub tbt: Seconds,
    /// Whether it met the user requirements.
    pub satisfied: bool,
}

/// The proposed architecture plus everything the paper's Fig. 9 reports:
/// QoS, utilization context, area/cost estimate, and the feedback notes
/// when requirements could not be met.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The proposed architecture.
    pub architecture: Architecture,
    /// Itemized die area.
    pub area: AreaBreakdown,
    /// The deployment the workload needs (TP width, link).
    pub deployment: Deployment,
    /// Predicted time-to-first-token at the operating point.
    pub ttft: Seconds,
    /// Predicted time-between-tokens at the operating point.
    pub tbt: Seconds,
    /// Whether the user requirements were met.
    pub satisfied: bool,
    /// How much QoS headroom remains (negative when unsatisfied).
    pub qos_margin: f64,
    /// The full candidate log.
    pub steps: Vec<SearchStep>,
    /// Feedback-path notes ("additional hardware specifications needed").
    pub notes: Vec<String>,
}

impl fmt::Display for SearchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "proposed: {}", self.architecture)?;
        writeln!(f, "die area: {}", self.area.total())?;
        writeln!(f, "deployment: {}", self.deployment)?;
        writeln!(
            f,
            "QoS: TTFT {} / TBT {} ({})",
            self.ttft,
            self.tbt,
            if self.satisfied {
                "meets SLA"
            } else {
                "misses SLA"
            }
        )?;
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

/// Why the search could not produce an outcome at all.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// No candidate fit the vendor's physical budget.
    NoFeasibleCandidate {
        /// The offered area budget.
        area_budget: Area,
        /// The workload's model.
        model: String,
    },
    /// The workload could not be placed on the device budget.
    DeploymentPlanning(String),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::NoFeasibleCandidate { area_budget, model } => write!(
                f,
                "no candidate for '{model}' fits within {area_budget} \
                 (SRAM or area budget too small for any configuration)"
            ),
            SearchError::DeploymentPlanning(msg) => write!(f, "deployment planning failed: {msg}"),
        }
    }
}

impl std::error::Error for SearchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_model() {
        let e = SearchError::NoFeasibleCandidate {
            area_budget: Area::from_mm2(100.0),
            model: "LLaMA3 8B".into(),
        };
        assert!(format!("{e}").contains("LLaMA3 8B"));
        let _: &dyn std::error::Error = &e;
    }
}
