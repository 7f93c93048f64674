//! ADOR: Automatic Dataflow Optimization and ExploRation for LLM serving.
//!
//! This is the facade crate of the ADOR reproduction (ISPASS 2025). It
//! re-exports every subsystem and offers the high-level [`Ador`] entry
//! point that mirrors the paper's Fig. 9 flow: feed in vendor constraints,
//! user SLAs and a workload; get back a proposed architecture with
//! predicted QoS; optionally validate it in the serving simulator.
//!
//! Subsystem tour:
//!
//! * [`units`] — typed quantities (bytes, bandwidth, time, FLOPs, area);
//! * [`model`] — LLM configurations, operator graphs, workload statistics;
//! * [`hw`] — the architecture template: systolic arrays, MAC trees,
//!   vector units, memory system, area model;
//! * [`noc`] — collectives, overlap analysis, ring NoC, P2P links;
//! * [`parallel`] — tensor-parallel placement
//!   ([`TensorParallel::for_memory`](parallel::TensorParallel::for_memory)),
//!   sync costs and multi-device scaling, with pipeline parallelism as the
//!   §IV-D comparison;
//! * [`perf`] — the operator-level performance model and compiler stack;
//! * [`serving`] — the discrete-event serving simulator and QoS metrics;
//! * [`spec`] — speculative decoding: draft/verify cost accounting and
//!   SLO-customized speculation depth;
//! * [`cluster`] — multi-replica fleets: routing policies, multi-tenant
//!   traffic and fleet-wide QoS;
//! * [`search`] — the design-space search;
//! * [`baselines`] — A100 / H100 / TPUv4 / Groq TSP / LLMCompass designs;
//! * [`analysis`] — `ador-lint`, the static-analysis pass that enforces
//!   the simulator's determinism and panic-safety contracts.
//!
//! # Examples
//!
//! ```
//! use ador_core::prelude::*;
//!
//! // Explore: what should an A100-class chip look like for LLaMA3-8B?
//! let outcome = Ador::new(presets::llama3_8b())
//!     .batch(128)
//!     .seq_len(1024)
//!     .explore()?;
//! assert!(outcome.architecture.is_hda());
//!
//! // Evaluate: how does the proposal compare with the A100 at the
//! // operating point?
//! let comparison = Ador::new(presets::llama3_8b())
//!     .batch(128)
//!     .seq_len(1024)
//!     .compare(&outcome.architecture, &baselines::a100())?;
//! assert!(comparison.tbt_ratio > 1.0); // the proposal generates faster
//! # Ok::<(), ador_core::AdorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ador_analysis as analysis;
pub use ador_baselines as baselines;
pub use ador_cluster as cluster;
pub use ador_hw as hw;
pub use ador_model as model;
pub use ador_noc as noc;
pub use ador_parallel as parallel;
pub use ador_perf as perf;
pub use ador_search as search;
pub use ador_serving as serving;
pub use ador_spec as spec;
pub use ador_telemetry as telemetry;
pub use ador_units as units;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use crate::baselines;
    pub use crate::model::{presets, ModelConfig, Phase};
    pub use crate::perf::{Deployment, Evaluator};
    pub use crate::search::{SearchInput, UserRequirements, VendorConstraints, Workload};
    pub use crate::serving::{ServingSim, SimConfig, Slo, TraceProfile};
    pub use crate::units::{Bandwidth, Bytes, Seconds};
    pub use crate::{Ador, AdorError, Comparison};
}

use core::fmt;

use ador_model::ModelConfig;
use ador_perf::{Deployment, Evaluator};
use ador_search::{SearchInput, SearchOutcome, UserRequirements, VendorConstraints, Workload};
use ador_serving::{QosReport, ServingSim, SimConfig, TraceProfile};
use ador_units::Seconds;

/// Top-level error for the facade API.
#[derive(Debug)]
pub enum AdorError {
    /// The design search failed.
    Search(ador_search::SearchError),
    /// The performance model rejected a configuration.
    Perf(ador_perf::PerfError),
    /// The serving simulator failed.
    Serving(ador_serving::SimError),
}

impl fmt::Display for AdorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdorError::Search(e) => write!(f, "search: {e}"),
            AdorError::Perf(e) => write!(f, "perf: {e}"),
            AdorError::Serving(e) => write!(f, "serving: {e}"),
        }
    }
}

impl std::error::Error for AdorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdorError::Search(e) => Some(e),
            AdorError::Perf(e) => Some(e),
            AdorError::Serving(e) => Some(e),
        }
    }
}

impl From<ador_search::SearchError> for AdorError {
    fn from(e: ador_search::SearchError) -> Self {
        AdorError::Search(e)
    }
}

impl From<ador_perf::PerfError> for AdorError {
    fn from(e: ador_perf::PerfError) -> Self {
        AdorError::Perf(e)
    }
}

impl From<ador_serving::SimError> for AdorError {
    fn from(e: ador_serving::SimError) -> Self {
        AdorError::Serving(e)
    }
}

/// Head-to-head comparison of two architectures at one operating point.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Challenger TTFT.
    pub ttft_a: Seconds,
    /// Reference TTFT.
    pub ttft_b: Seconds,
    /// Challenger TBT.
    pub tbt_a: Seconds,
    /// Reference TBT.
    pub tbt_b: Seconds,
    /// `ttft_b / ttft_a` — above 1 means the challenger is faster to first
    /// token.
    pub ttft_ratio: f64,
    /// `tbt_b / tbt_a` — above 1 means the challenger generates faster.
    pub tbt_ratio: f64,
}

/// The high-level framework handle: a builder over the Fig. 9 inputs.
///
/// See the [crate-level examples](crate).
#[derive(Debug, Clone)]
pub struct Ador {
    model: ModelConfig,
    vendor: VendorConstraints,
    user: UserRequirements,
    batch: usize,
    seq_len: usize,
}

impl Ador {
    /// Starts a session targeting `model` with A100-class vendor
    /// constraints and the chatbot SLA.
    pub fn new(model: ModelConfig) -> Self {
        Self {
            model,
            vendor: VendorConstraints::a100_class(),
            user: UserRequirements::chatbot(),
            batch: 64,
            seq_len: 1024,
        }
    }

    /// Sets the vendor constraints.
    pub fn vendor(mut self, vendor: VendorConstraints) -> Self {
        self.vendor = vendor;
        self
    }

    /// Sets the user requirements.
    pub fn user(mut self, user: UserRequirements) -> Self {
        self.user = user;
        self
    }

    /// Sets the operating-point batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the operating-point sequence length.
    pub fn seq_len(mut self, seq_len: usize) -> Self {
        self.seq_len = seq_len;
        self
    }

    fn search_input(&self) -> SearchInput {
        SearchInput {
            vendor: self.vendor,
            user: self.user,
            workload: Workload::new(self.model.clone(), self.batch, self.seq_len),
        }
    }

    /// Runs the design search (Fig. 9).
    ///
    /// # Errors
    ///
    /// Returns [`AdorError::Search`] when no candidate fits the budget.
    pub fn explore(&self) -> Result<SearchOutcome, AdorError> {
        Ok(ador_search::search(&self.search_input())?)
    }

    /// Evaluates an architecture at this session's operating point,
    /// returning `(ttft, tbt)`.
    ///
    /// # Errors
    ///
    /// Returns [`AdorError::Perf`] when the model does not fit.
    pub fn evaluate(&self, arch: &ador_hw::Architecture) -> Result<(Seconds, Seconds), AdorError> {
        let deployment = self.deployment()?;
        let eval = Evaluator::new(arch, &self.model, deployment)?;
        Ok((
            eval.ttft(1, self.seq_len)?,
            eval.decode_interval(self.batch, self.seq_len)?,
        ))
    }

    /// Compares challenger `a` against reference `b` at the operating
    /// point.
    ///
    /// # Errors
    ///
    /// Returns [`AdorError::Perf`] when either architecture cannot serve
    /// the model.
    pub fn compare(
        &self,
        a: &ador_hw::Architecture,
        b: &ador_hw::Architecture,
    ) -> Result<Comparison, AdorError> {
        let (ttft_a, tbt_a) = self.evaluate(a)?;
        let (ttft_b, tbt_b) = self.evaluate(b)?;
        Ok(Comparison {
            ttft_a,
            ttft_b,
            tbt_a,
            tbt_b,
            ttft_ratio: ttft_b.get() / ttft_a.get(),
            tbt_ratio: tbt_b.get() / tbt_a.get(),
        })
    }

    /// Validates an architecture in the serving simulator (Fig. 14b).
    ///
    /// # Errors
    ///
    /// Returns [`AdorError::Serving`] on simulator failures.
    pub fn simulate_serving(
        &self,
        arch: &ador_hw::Architecture,
        cfg: SimConfig,
        profile: TraceProfile,
    ) -> Result<QosReport, AdorError> {
        let deployment = self.deployment()?;
        Ok(ServingSim::new(arch, &self.model, deployment, cfg)?.run(profile)?)
    }

    fn deployment(&self) -> Result<Deployment, AdorError> {
        Workload::new(self.model.clone(), self.batch, self.seq_len)
            .deployment(&self.vendor)
            .map_err(AdorError::Search)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_model::presets;

    #[test]
    fn explore_then_compare_beats_a100() {
        let session = Ador::new(presets::llama3_8b()).batch(128).seq_len(1024);
        let outcome = session.explore().unwrap();
        let cmp = session
            .compare(&outcome.architecture, &baselines::a100())
            .unwrap();
        assert!(cmp.tbt_ratio > 1.0, "{cmp:?}");
    }

    #[test]
    fn evaluate_rejects_oversized_model() {
        let mut session = Ador::new(presets::llama3_70b()).batch(32).seq_len(512);
        session.vendor.max_devices = 1;
        let err = session.evaluate(&baselines::ador_table3()).unwrap_err();
        assert!(matches!(err, AdorError::Search(_)));
    }

    #[test]
    fn serving_validation_runs() {
        let session = Ador::new(presets::llama3_8b()).batch(64).seq_len(1024);
        let report = session
            .simulate_serving(
                &baselines::ador_table3(),
                SimConfig::new(2.0, 64).with_requests(20),
                TraceProfile::short_chat(),
            )
            .unwrap();
        assert_eq!(report.completed, 20);
    }

    #[test]
    fn errors_chain_sources() {
        let e = AdorError::Perf(ador_perf::PerfError::InvalidArchitecture("x".into()));
        assert!(std::error::Error::source(&e).is_some());
    }
}
