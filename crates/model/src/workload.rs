//! Aggregate workload statistics: the numbers behind the paper's
//! motivation figures.
//!
//! * [`StepSummary`] totals one inference step's compute and traffic;
//! * [`kv_read_share`] reproduces Fig. 3a (fraction of DRAM reads that are
//!   KV-cache, growing with batch);
//! * [`attention_op_share`] reproduces Fig. 3b (fraction of operations spent
//!   in self-attention, growing with sequence length).

use ador_units::{Bytes, FlopCount};

use crate::{graph, ModelConfig, OpClass, Operator, Phase};

/// Totals for one inference step of a model under a given phase.
///
/// # Examples
///
/// ```
/// use ador_model::{presets, Phase};
/// use ador_model::workload::StepSummary;
///
/// let s = StepSummary::compute(&presets::llama3_8b(), Phase::decode(128, 8192));
/// // At batch 128 and 8 K context, KV reads dwarf the weight stream.
/// assert!(s.kv_read_bytes > s.weight_bytes * 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSummary {
    /// Total floating-point work.
    pub flops: FlopCount,
    /// Model weights streamed (shared across batch).
    pub weight_bytes: Bytes,
    /// KV-cache reads (per-request).
    pub kv_read_bytes: Bytes,
    /// KV-cache writes.
    pub kv_write_bytes: Bytes,
    /// On-chip activation traffic (reads + writes).
    pub act_bytes: Bytes,
    /// FLOPs in attention-class operators.
    pub attention_flops: FlopCount,
    /// FLOPs in weight-matmul-class operators.
    pub weight_matmul_flops: FlopCount,
    /// FLOPs in vector-class operators.
    pub vector_flops: FlopCount,
}

impl StepSummary {
    /// Computes the summary for `cfg` under `phase`.
    pub fn compute(cfg: &ModelConfig, phase: Phase) -> Self {
        Self::from_operators(
            &graph::layer_operators(cfg, phase),
            cfg.layers,
            &graph::once_operators(cfg, phase),
        )
    }

    /// Totals an already-built step: `layer_ops` repeated `layers` times
    /// plus `once_ops` run once — the lists [`graph::layer_operators`] and
    /// [`graph::once_operators`] return.
    pub fn from_operators(layer_ops: &[Operator], layers: usize, once_ops: &[Operator]) -> Self {
        let mut s = Self {
            flops: FlopCount::ZERO,
            weight_bytes: Bytes::ZERO,
            kv_read_bytes: Bytes::ZERO,
            kv_write_bytes: Bytes::ZERO,
            act_bytes: Bytes::ZERO,
            attention_flops: FlopCount::ZERO,
            weight_matmul_flops: FlopCount::ZERO,
            vector_flops: FlopCount::ZERO,
        };
        let mut add = |ops: &[Operator], mult: f64| {
            for op in ops {
                let f = op.flops() * mult;
                s.flops += f;
                s.weight_bytes += op.weight_bytes * mult;
                s.kv_read_bytes += op.kv_read_bytes * mult;
                s.kv_write_bytes += op.kv_write_bytes * mult;
                s.act_bytes += (op.act_in_bytes + op.act_out_bytes) * mult;
                match op.class {
                    OpClass::Attention => s.attention_flops += f,
                    OpClass::WeightMatMul => s.weight_matmul_flops += f,
                    OpClass::Vector => s.vector_flops += f,
                }
            }
        };
        add(layer_ops, layers as f64);
        add(once_ops, 1.0);
        s
    }

    /// All DRAM traffic for the step (weights + KV in and out).
    pub fn dram_bytes(&self) -> Bytes {
        self.weight_bytes + self.kv_read_bytes + self.kv_write_bytes
    }

    /// FLOPs per DRAM byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops.get() / self.dram_bytes().get() as f64
    }
}

/// Fraction of decode-step DRAM **reads** that are KV-cache entries, as in
/// Fig. 3a ("over 90 % of the data read from DRAM pertains to key-value
/// pairs" at batch 128, sequence 8192).
///
/// # Examples
///
/// ```
/// use ador_model::{presets, workload::kv_read_share};
///
/// let share = kv_read_share(&presets::llama3_8b(), 128, 8192);
/// assert!(share > 0.9);
/// let single = kv_read_share(&presets::llama3_8b(), 1, 8192);
/// assert!(single < share);
/// ```
pub fn kv_read_share(cfg: &ModelConfig, batch: usize, context_len: usize) -> f64 {
    let s = StepSummary::compute(cfg, Phase::decode(batch, context_len));
    let reads = s.weight_bytes + s.kv_read_bytes;
    s.kv_read_bytes.get() as f64 / reads.get() as f64
}

/// Fraction of a decode step's MACs spent in self-attention at the given
/// context length, as in Fig. 3b (grows from ~25 % toward ~72 % as context
/// stretches from 4 K to 64 K for LLaMA3-8B-class models).
///
/// # Examples
///
/// ```
/// use ador_model::{presets, workload::attention_op_share};
///
/// let m = presets::llama3_8b();
/// assert!(attention_op_share(&m, 65536) > 0.6);
/// assert!(attention_op_share(&m, 4096) < attention_op_share(&m, 65536));
/// ```
pub fn attention_op_share(cfg: &ModelConfig, context_len: usize) -> f64 {
    let s = StepSummary::compute(cfg, Phase::decode(1, context_len));
    let matmul = s.attention_flops + s.weight_matmul_flops;
    s.attention_flops.get() / matmul.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use proptest::prelude::*;

    #[test]
    fn fig3a_kv_reads_dominate_at_batch_128() {
        // Paper: "in recent models with a batch size of 128, over 90 % of the
        // data that needs to be read from DRAM pertains to key-value pairs"
        // (sequence length 8192). With strict byte accounting the dense
        // models land at 0.81–0.95 depending on their GQA grouping — KV
        // dominates everywhere, and the widest-KV model clears 90 %.
        for m in [
            presets::llama3_8b(),
            presets::qwen2_7b(),
            presets::gemma2_9b(),
        ] {
            let share = kv_read_share(&m, 128, 8192);
            assert!(share > 0.78, "{}: {share:.3}", m.name);
        }
        assert!(kv_read_share(&presets::gemma2_9b(), 128, 8192) > 0.90);
        // Mixtral streams all eight experts at high batch (~93 GB of
        // weights), so its KV share is lower but KV still wins.
        assert!(kv_read_share(&presets::mixtral_8x7b(), 128, 8192) > 0.55);
    }

    #[test]
    fn fig3a_share_grows_with_batch() {
        let m = presets::llama3_8b();
        let shares: Vec<f64> = [1, 16, 64, 128]
            .iter()
            .map(|&b| kv_read_share(&m, b, 8192))
            .collect();
        assert!(shares.windows(2).all(|w| w[0] < w[1]), "{shares:?}");
    }

    #[test]
    fn fig3b_attention_share_grows_with_context() {
        let m = presets::llama3_8b();
        let s4k = attention_op_share(&m, 4096);
        let s8k = attention_op_share(&m, 8192);
        let s64k = attention_op_share(&m, 65536);
        assert!(s4k < s8k && s8k < s64k);
        // Paper reports ~71.7 % at 64 K; our strict-MAC accounting lands close.
        assert!((0.6..0.8).contains(&s64k), "{s64k}");
        assert!((0.08..0.35).contains(&s4k), "{s4k}");
    }

    #[test]
    fn prefill_is_compute_dense() {
        let m = presets::llama3_8b();
        let prefill = StepSummary::compute(&m, Phase::prefill(1, 1024));
        let decode = StepSummary::compute(&m, Phase::decode(1, 1024));
        assert!(prefill.arithmetic_intensity() > 100.0 * decode.arithmetic_intensity());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn summary_components_sum(b in 1usize..64, ctx in 16usize..2048) {
            let m = presets::llama2_7b();
            let s = StepSummary::compute(&m, Phase::decode(b, ctx));
            let parts = s.attention_flops + s.weight_matmul_flops + s.vector_flops;
            prop_assert!((parts.get() - s.flops.get()).abs() <= 1e-6 * s.flops.get());
        }

        #[test]
        fn kv_share_in_unit_interval(b in 1usize..256, ctx in 1usize..16384) {
            let share = kv_read_share(&presets::llama3_8b(), b, ctx);
            prop_assert!((0.0..=1.0).contains(&share));
        }
    }
}
