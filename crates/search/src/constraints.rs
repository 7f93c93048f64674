//! Search inputs: vendor constraints, user requirements, workload
//! (the "\<ADOR Input Data\>" box of Fig. 9).

use ador_model::ModelConfig;
use ador_perf::Deployment;
use ador_units::{Area, Bandwidth, Bytes, Frequency, Seconds};
use serde::{Deserialize, Serialize};

use crate::report::SearchError;

/// What the vendor can spend (Fig. 9: area budget, power budget,
/// hardware utilization — we model the silicon side).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VendorConstraints {
    /// Maximum die area.
    pub area_budget: Area,
    /// On-chip SRAM budget (local + global).
    pub sram_budget: Bytes,
    /// DRAM bandwidth of the chosen memory system.
    pub memory_bandwidth: Bandwidth,
    /// DRAM capacity.
    pub memory_capacity: Bytes,
    /// Largest P2P bandwidth the vendor will pay for.
    pub p2p_budget: Bandwidth,
    /// Device budget for multi-device serving.
    pub max_devices: usize,
    /// Target process node.
    pub process: ador_hw::ProcessNode,
    /// Core clock.
    pub frequency: Frequency,
}

impl VendorConstraints {
    /// A100-class constraints — the paper's §VI-A experimental setup
    /// ("ADOR proposed hardware configurations with similar specifications
    /// as the A100").
    pub fn a100_class() -> Self {
        Self {
            area_budget: Area::from_mm2(826.0),
            sram_budget: Bytes::from_mib(80),
            memory_bandwidth: Bandwidth::from_tbps(2.0),
            memory_capacity: Bytes::from_gib(80),
            p2p_budget: Bandwidth::from_gbps(128.0),
            max_devices: 16,
            process: ador_hw::ProcessNode::N7,
            frequency: Frequency::from_mhz(1500.0),
        }
    }
}

/// What the end-user demands (Fig. 9: TTFT, TBT, requests/s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserRequirements {
    /// Maximum time-to-first-token at the workload's prompt length.
    pub ttft_max: Seconds,
    /// Maximum time-between-tokens at the workload's batch size.
    pub tbt_max: Seconds,
    /// Sustained request rate target (used by serving-level validation).
    pub requests_per_sec: f64,
}

impl UserRequirements {
    /// A chatbot-grade SLA: first token within 100 ms, ≥40 tokens/s per
    /// stream, ~20 req/s per device — the regime of Figs. 15–16.
    pub fn chatbot() -> Self {
        Self {
            ttft_max: Seconds::from_millis(100.0),
            tbt_max: Seconds::from_millis(25.0),
            requests_per_sec: 20.0,
        }
    }

    /// A relaxed batch-serving SLA.
    pub fn batch_serving() -> Self {
        Self {
            ttft_max: Seconds::from_millis(500.0),
            tbt_max: Seconds::from_millis(50.0),
            requests_per_sec: 5.0,
        }
    }
}

/// The serving workload the design must carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Target model.
    pub model: ModelConfig,
    /// Decode batch size at the operating point.
    pub batch: usize,
    /// Context / prompt length at the operating point.
    pub seq_len: usize,
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if batch or sequence length is zero.
    pub fn new(model: ModelConfig, batch: usize, seq_len: usize) -> Self {
        assert!(
            batch > 0 && seq_len > 0,
            "workload needs batch > 0 and seq_len > 0"
        );
        Self {
            model,
            batch,
            seq_len,
        }
    }

    /// Average decode-step work per device, for the bandwidth law.
    pub fn decode_flops(&self) -> ador_units::FlopCount {
        ador_model::workload::StepSummary::compute(
            &self.model,
            ador_model::Phase::decode(self.batch, self.seq_len),
        )
        .flops
    }

    /// Plans the tensor-parallel deployment this workload needs on devices
    /// of the vendor's memory capacity.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::DeploymentPlanning`] when the batch or the
    /// sequence length is zero, or when the model cannot be placed within
    /// the vendor's device budget.
    pub fn deployment(&self, vendor: &VendorConstraints) -> Result<Deployment, SearchError> {
        if self.batch == 0 || self.seq_len == 0 {
            return Err(SearchError::DeploymentPlanning(format!(
                "workload needs batch > 0 and seq_len > 0, got batch {} and seq_len {}",
                self.batch, self.seq_len
            )));
        }
        let kv = self.model.kv_cache_bytes(self.batch, 2 * self.seq_len);
        let plan = ador_parallel::ParallelPlan::for_memory(
            &self.model,
            kv,
            vendor.memory_capacity,
            vendor.max_devices,
        )
        .map_err(|e| SearchError::DeploymentPlanning(e.to_string()))?;
        Ok(Deployment::tensor_parallel(plan.devices()))
    }
}

/// The full search input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchInput {
    /// Vendor-side constraints.
    pub vendor: VendorConstraints,
    /// User-side requirements.
    pub user: UserRequirements,
    /// Target workload.
    pub workload: Workload,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_model::presets;

    #[test]
    fn a100_class_matches_datasheet() {
        let v = VendorConstraints::a100_class();
        assert_eq!(v.memory_capacity, Bytes::from_gib(80));
        assert!((v.memory_bandwidth.as_tbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deployment_planning_scales_with_model() {
        let v = VendorConstraints::a100_class();
        let small = Workload::new(presets::llama3_8b(), 64, 1024);
        let large = Workload::new(presets::llama3_70b(), 64, 1024);
        assert_eq!(small.deployment(&v).unwrap().devices, 1);
        assert!(large.deployment(&v).unwrap().devices >= 2);
    }

    #[test]
    fn oversized_model_is_an_error() {
        let mut v = VendorConstraints::a100_class();
        v.max_devices = 1;
        let w = Workload::new(presets::llama3_70b(), 64, 1024);
        assert!(matches!(
            w.deployment(&v),
            Err(SearchError::DeploymentPlanning(_))
        ));
    }

    #[test]
    fn chatbot_sla_is_stricter_than_batch() {
        let chat = UserRequirements::chatbot();
        let batch = UserRequirements::batch_serving();
        assert!(chat.tbt_max < batch.tbt_max);
        assert!(chat.ttft_max < batch.ttft_max);
    }
}
