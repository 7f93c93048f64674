//! The model-parallelism mapper (paper Fig. 7a): decide how many devices a
//! model needs and how to split it.

use core::fmt;

use ador_model::ModelConfig;
use ador_units::Bytes;

use crate::TensorParallel;

impl TensorParallel {
    /// Plans a deployment of `model` with `kv_budget` bytes of KV cache on
    /// devices of `device_capacity` memory. Serving uses pure tensor
    /// parallelism (the paper's choice, §IV-D), so the plan grows the TP
    /// width in powers of two and picks the [recommended](Self::recommended)
    /// sync strategy for it.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::ExceedsDeviceBudget`] if even `max_devices`
    /// devices cannot hold the model, or [`PlanError::Unsplittable`] if the
    /// model has fewer KV heads than the TP width would require.
    pub fn for_memory(
        model: &ModelConfig,
        kv_budget: Bytes,
        device_capacity: Bytes,
        max_devices: usize,
    ) -> Result<Self, PlanError> {
        let total = model
            .weight_bytes()
            .checked_add(kv_budget)
            .ok_or(PlanError::Unsplittable {
                tp: 0,
                kv_heads: model.kv_heads,
            })?;
        let mut tp = 1usize;
        loop {
            let per_device = total * (1.0 / tp as f64);
            if per_device <= device_capacity {
                break;
            }
            tp *= 2;
            if tp > max_devices {
                return Err(PlanError::ExceedsDeviceBudget {
                    needed: tp,
                    budget: max_devices,
                    total_bytes: total,
                });
            }
        }
        // Attention heads shard across TP devices; the KV heads must divide.
        if tp > 1 && model.kv_heads % tp.min(model.kv_heads) != 0 && model.heads % tp != 0 {
            return Err(PlanError::Unsplittable {
                tp,
                kv_heads: model.kv_heads,
            });
        }
        Ok(Self::recommended(tp))
    }
}

/// Why a parallel plan could not be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The model (plus KV budget) does not fit even on the whole device
    /// budget.
    ExceedsDeviceBudget {
        /// Devices that would have been needed.
        needed: usize,
        /// Devices available.
        budget: usize,
        /// Bytes that had to be placed.
        total_bytes: Bytes,
    },
    /// The TP width does not divide the model's heads.
    Unsplittable {
        /// Attempted TP width.
        tp: usize,
        /// The model's KV head count.
        kv_heads: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ExceedsDeviceBudget {
                needed,
                budget,
                total_bytes,
            } => write!(
                f,
                "placing {total_bytes} needs {needed} devices but only {budget} are available"
            ),
            PlanError::Unsplittable { tp, kv_heads } => {
                write!(
                    f,
                    "tensor-parallel width {tp} does not divide {kv_heads} KV heads"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_model::presets;
    use ador_noc::SyncStrategy;

    const GIB80: Bytes = Bytes::new(80 * 1024 * 1024 * 1024);

    #[test]
    fn llama3_8b_fits_one_device() {
        let m = presets::llama3_8b();
        let kv = m.kv_cache_bytes(64, 2048);
        let plan = TensorParallel::for_memory(&m, kv, GIB80, 16).unwrap();
        assert_eq!(plan.devices, 1);
    }

    #[test]
    fn llama3_70b_needs_multiple_devices() {
        // Fig. 15b serves LLaMA3-70B on 8 devices; weights alone are
        // ~141 GB, and a healthy KV budget pushes the power-of-two TP to 4+.
        let m = presets::llama3_70b();
        let kv = m.kv_cache_bytes(128, 2048);
        let plan = TensorParallel::for_memory(&m, kv, GIB80, 16).unwrap();
        assert!(plan.devices >= 4, "{plan}");
        assert_eq!(plan.strategy, SyncStrategy::AllGather);
    }

    #[test]
    fn two_device_plans_use_megatron() {
        let m = presets::yi_34b(); // ~69 GB of weights
        let kv = m.kv_cache_bytes(64, 2048);
        let plan = TensorParallel::for_memory(&m, kv, GIB80, 16).unwrap();
        assert_eq!(plan.devices, 2);
        assert_eq!(plan.strategy, SyncStrategy::Megatron);
    }

    #[test]
    fn budget_violation_reported() {
        let m = presets::llama3_70b();
        let kv = m.kv_cache_bytes(256, 8192);
        let err = TensorParallel::for_memory(&m, kv, Bytes::from_gib(8), 4).unwrap_err();
        match err {
            PlanError::ExceedsDeviceBudget { needed, budget, .. } => {
                assert!(needed > budget);
            }
            other => panic!("unexpected error {other}"),
        }
        // Error type is usable through the std Error trait (C-GOOD-ERR).
        let _: &dyn std::error::Error = &err;
    }
}
