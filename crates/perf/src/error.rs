//! Error type for the performance model.

use core::fmt;

use ador_model::Phase;
use ador_units::Bytes;

/// Why a performance evaluation could not proceed.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfError {
    /// The model's per-device weight shard exceeds device memory.
    ModelTooLarge {
        /// Model name.
        model: String,
        /// Bytes needed per device (weights / TP width).
        needed: Bytes,
        /// Device memory capacity.
        capacity: Bytes,
        /// TP width that was attempted.
        devices: usize,
    },
    /// The KV cache for the requested phase does not fit next to the
    /// weights.
    KvCacheTooLarge {
        /// Bytes of KV cache per device.
        kv: Bytes,
        /// Bytes left after weights.
        available: Bytes,
    },
    /// The architecture failed validation, or prices a step at a
    /// non-finite time.
    InvalidArchitecture(String),
    /// The phase has a zero batch or a zero prompt/context length.
    InvalidPhase(Phase),
    /// A step plan was priced on an evaluator bound to another model.
    PlanModelMismatch {
        /// The model the plan was built for.
        plan: String,
        /// The model the evaluator is bound to.
        evaluator: String,
    },
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::ModelTooLarge {
                model,
                needed,
                capacity,
                devices,
            } => write!(
                f,
                "model '{model}' needs {needed} per device across {devices} device(s) \
                 but only {capacity} is available"
            ),
            PerfError::KvCacheTooLarge { kv, available } => {
                write!(
                    f,
                    "KV cache of {kv} exceeds the {available} left after weights"
                )
            }
            PerfError::InvalidArchitecture(msg) => write!(f, "invalid architecture: {msg}"),
            PerfError::InvalidPhase(phase) => {
                write!(
                    f,
                    "{phase} has nothing to run: batch and length must be positive"
                )
            }
            PerfError::PlanModelMismatch { plan, evaluator } => write!(
                f,
                "step plan for '{plan}' priced on an evaluator bound to '{evaluator}'"
            ),
        }
    }
}

impl std::error::Error for PerfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = PerfError::ModelTooLarge {
            model: "LLaMA3 70B".to_string(),
            needed: Bytes::from_gib(141),
            capacity: Bytes::from_gib(80),
            devices: 1,
        };
        let s = format!("{e}");
        assert!(s.contains("LLaMA3 70B") && s.contains("141") && s.contains("80"));
        let _: &dyn std::error::Error = &e; // C-GOOD-ERR
    }
}
