//! Mixture-of-experts sizing arithmetic.

/// Mixture-of-experts layer configuration (paper §V-A mentions MoE layers as
/// a weight-reuse case when sizing the MAC tree).
///
/// # Examples
///
/// ```
/// use ador_model::MoeConfig;
///
/// let mixtral = MoeConfig::new(8, 2);
/// // A single request activates exactly top-k experts...
/// assert_eq!(mixtral.expected_active_experts(1), 2.0 / 8.0 * 8.0 / 8.0 * 8.0);
/// // ...while a large batch touches essentially all of them.
/// assert!(mixtral.expected_active_experts(64) > 7.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoeConfig {
    /// Number of experts per MoE layer.
    pub num_experts: usize,
    /// Experts routed per token (top-k).
    pub experts_per_token: usize,
}

impl MoeConfig {
    /// Creates an MoE configuration with `num_experts` experts and top-`k`
    /// routing.
    pub const fn new(num_experts: usize, experts_per_token: usize) -> Self {
        Self {
            num_experts,
            experts_per_token,
        }
    }

    /// Expected number of **distinct** experts activated by a decode step of
    /// `batch` tokens, assuming uniform routing: each token draws
    /// `experts_per_token` distinct experts, so a given expert stays idle
    /// with probability `(1 - k/E)^batch`.
    ///
    /// This is what determines how many expert weight matrices must be
    /// streamed from DRAM in one step — the reason MoE weight traffic grows
    /// with batch size even though per-token compute is constant.
    pub fn expected_active_experts(&self, batch: usize) -> f64 {
        let e = self.num_experts as f64;
        let k = self.experts_per_token as f64;
        if batch == 0 {
            return 0.0;
        }
        e * (1.0 - (1.0 - k / e).powi(batch as i32))
    }

    /// Router (gate) parameters: one `hidden × num_experts` matrix.
    pub fn router_params(&self, hidden: usize) -> u64 {
        (hidden * self.num_experts) as u64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description if the expert counts are inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_experts == 0 {
            return Err("MoE must have at least one expert".to_string());
        }
        if self.experts_per_token == 0 || self.experts_per_token > self.num_experts {
            return Err(format!(
                "experts_per_token ({}) must be in [1, num_experts ({})]",
                self.experts_per_token, self.num_experts
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_token_activates_topk() {
        let moe = MoeConfig::new(8, 2);
        assert!((moe.expected_active_experts(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn large_batch_saturates_all_experts() {
        let moe = MoeConfig::new(8, 2);
        assert!(moe.expected_active_experts(256) > 7.999);
    }

    #[test]
    fn zero_batch_activates_nothing() {
        assert_eq!(MoeConfig::new(8, 2).expected_active_experts(0), 0.0);
    }

    #[test]
    fn validation_bounds() {
        assert!(MoeConfig::new(0, 1).validate().is_err());
        assert!(MoeConfig::new(8, 0).validate().is_err());
        assert!(MoeConfig::new(8, 9).validate().is_err());
        assert!(MoeConfig::new(8, 8).validate().is_ok());
    }

    proptest! {
        #[test]
        fn activation_monotone_in_batch(e in 2usize..64, k in 1usize..4, b in 1usize..200) {
            let k = k.min(e);
            let moe = MoeConfig::new(e, k);
            let small = moe.expected_active_experts(b);
            let large = moe.expected_active_experts(b + 1);
            prop_assert!(large >= small - 1e-9);
            prop_assert!(large <= e as f64 + 1e-9);
            prop_assert!(small >= k as f64 - 1e-9);
        }
    }
}
