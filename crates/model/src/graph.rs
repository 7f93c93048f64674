//! Lowering a [`ModelConfig`] + [`Phase`] into the operator list the
//! hardware models consume.
//!
//! Byte accounting conventions:
//!
//! * `weight_bytes` — model weights streamed from DRAM, **shared** across the
//!   batch (read once per step regardless of batch size);
//! * `kv_read_bytes` / `kv_write_bytes` — per-request KV-cache traffic that
//!   scales with batch (the unsharable part, paper §II-B);
//! * activation bytes — on-chip traffic used for local-memory sizing
//!   (paper Fig. 12).

use ador_units::Bytes;

use crate::{MatMulShape, ModelConfig, OpClass, OpKind, OpName, Operator, Phase};

fn matmul(
    name: OpName,
    class: OpClass,
    shape: MatMulShape,
    weight_bytes: Bytes,
    act_in: Bytes,
    act_out: Bytes,
) -> Operator {
    Operator {
        name,
        kind: OpKind::MatMul(shape),
        class,
        weight_bytes,
        kv_read_bytes: Bytes::ZERO,
        kv_write_bytes: Bytes::ZERO,
        act_in_bytes: act_in,
        act_out_bytes: act_out,
    }
}

fn vector(name: OpName, kind: OpKind, act_in: Bytes, act_out: Bytes) -> Operator {
    Operator {
        name,
        kind,
        class: OpClass::Vector,
        weight_bytes: Bytes::ZERO,
        kv_read_bytes: Bytes::ZERO,
        kv_write_bytes: Bytes::ZERO,
        act_in_bytes: act_in,
        act_out_bytes: act_out,
    }
}

/// Operators for one decoder layer under `phase`.
///
/// The returned list is in execution order: norm → QKV → RoPE → attention
/// (score, softmax, value) → output projection → residual → norm → MLP →
/// residual.
pub fn layer_operators(cfg: &ModelConfig, phase: Phase) -> Vec<Operator> {
    let dt = cfg.dtype.bytes();
    let b = phase.batch();
    let t = phase.tokens_per_request();
    let m = phase.rows();
    let h = cfg.hidden;
    let q_dim = cfg.q_dim();
    let kv_dim = cfg.kv_dim();
    let span = phase.mean_attention_span().round().max(1.0) as usize;

    let act = |elems: usize| Bytes::new(elems as u64 * dt);
    let mh = act(m * h);

    let mut ops = Vec::with_capacity(16);

    // Pre-attention RMSNorm.
    ops.push(vector(
        OpName::AttnNorm,
        OpKind::Norm {
            elements: (m * h) as u64,
        },
        mh,
        mh,
    ));

    // Fused QKV projection; the K/V outputs for this step's tokens are the
    // KV-cache write.
    let qkv_n = q_dim + 2 * kv_dim;
    let mut qkv = matmul(
        OpName::QkvProj,
        OpClass::WeightMatMul,
        MatMulShape::new(m, h, qkv_n),
        Bytes::new((h * qkv_n) as u64 * dt),
        mh,
        act(m * qkv_n),
    );
    qkv.kv_write_bytes =
        cfg.kv_bytes_per_token_layer() * (b * phase.kv_tokens_written_per_request()) as u64;
    ops.push(qkv);

    // Rotary position embedding on Q and K.
    ops.push(vector(
        OpName::Rope,
        OpKind::Elementwise {
            elements: (m * (q_dim + kv_dim)) as u64,
        },
        act(m * (q_dim + kv_dim)),
        act(m * (q_dim + kv_dim)),
    ));

    // Attention scores Q·Kᵀ: one [t×d]·[d×span] product per (request, head).
    // Each K plane is read once per request and reused across the query
    // heads in its group (on-chip reuse), so the DRAM-side read is sized by
    // kv_heads, not heads.
    let kv_plane = Bytes::new((b as f64 * span as f64 * kv_dim as f64 * dt as f64) as u64);
    let score_elems = (b * cfg.heads * t) as u64 * span as u64;
    let mut score = matmul(
        OpName::AttnScore,
        OpClass::Attention,
        MatMulShape::batched(t, cfg.head_dim, span, b * cfg.heads),
        Bytes::ZERO,
        act(m * q_dim),
        Bytes::new(score_elems * dt),
    );
    score.kv_read_bytes = kv_plane;
    ops.push(score);

    ops.push(vector(
        OpName::AttnSoftmax,
        OpKind::Softmax {
            elements: score_elems,
        },
        Bytes::new(score_elems * dt),
        Bytes::new(score_elems * dt),
    ));

    // Attention values scores·V: [t×span]·[span×d] per (request, head).
    let mut value = matmul(
        OpName::AttnValue,
        OpClass::Attention,
        MatMulShape::batched(t, span, cfg.head_dim, b * cfg.heads),
        Bytes::ZERO,
        Bytes::new(score_elems * dt),
        act(m * q_dim),
    );
    value.kv_read_bytes = kv_plane;
    ops.push(value);

    // Output projection.
    ops.push(matmul(
        OpName::OutProj,
        OpClass::WeightMatMul,
        MatMulShape::new(m, q_dim, h),
        Bytes::new((q_dim * h) as u64 * dt),
        act(m * q_dim),
        mh,
    ));

    ops.push(vector(
        OpName::Residual,
        OpKind::Elementwise {
            elements: (m * h) as u64,
        },
        mh,
        mh,
    ));
    ops.push(vector(
        OpName::MlpNorm,
        OpKind::Norm {
            elements: (m * h) as u64,
        },
        mh,
        mh,
    ));

    // MLP block. For MoE the router picks top-k experts per token; weights
    // streamed = expected distinct experts activated by this batch, compute
    // = k dense passes per token.
    let i = cfg.intermediate;
    let mi = act(m * i);
    let dense_matrix_bytes = Bytes::new((h * i) as u64 * dt);
    let (expert_passes, streamed_matrix_bytes) = match &cfg.moe {
        Some(moe) => {
            ops.push(matmul(
                OpName::MoeRouter,
                OpClass::WeightMatMul,
                MatMulShape::new(m, h, moe.num_experts),
                Bytes::new(moe.router_params(h) * dt),
                mh,
                act(m * moe.num_experts),
            ));
            // Routing is per *token*, so the expert coverage follows the
            // tokens in flight: a decode step activates per its batch, a
            // prefill chunk of thousands of tokens touches every expert.
            (
                moe.experts_per_token,
                dense_matrix_bytes * moe.expected_active_experts(m),
            )
        }
        None => (1, dense_matrix_bytes),
    };

    if cfg.gated_mlp {
        ops.push(matmul(
            OpName::MlpGate,
            OpClass::WeightMatMul,
            MatMulShape::batched(m, h, i, expert_passes),
            streamed_matrix_bytes,
            mh,
            mi,
        ));
    }
    ops.push(matmul(
        OpName::MlpUp,
        OpClass::WeightMatMul,
        MatMulShape::batched(m, h, i, expert_passes),
        streamed_matrix_bytes,
        mh,
        mi,
    ));
    // Activation (and gate multiply when gated).
    let act_elems = (m * i * expert_passes) as u64 * if cfg.gated_mlp { 2 } else { 1 };
    ops.push(vector(
        OpName::MlpAct,
        OpKind::Elementwise {
            elements: act_elems,
        },
        mi,
        mi,
    ));
    ops.push(matmul(
        OpName::MlpDown,
        OpClass::WeightMatMul,
        MatMulShape::batched(m, i, h, expert_passes),
        streamed_matrix_bytes,
        mi,
        mh,
    ));

    ops.push(vector(
        OpName::Residual,
        OpKind::Elementwise {
            elements: (m * h) as u64,
        },
        mh,
        mh,
    ));

    ops
}

/// Operators that run once per step, outside the decoder stack: embedding
/// gather, final norm, and the LM head.
///
/// The LM head only projects the *last* position of each request (logits are
/// needed only where a token will be sampled), so its `M` is the batch size
/// in both phases — which is why the paper's Fig. 12 calls out the LM head
/// as decode-only pressure.
pub fn once_operators(cfg: &ModelConfig, phase: Phase) -> Vec<Operator> {
    let dt = cfg.dtype.bytes();
    let b = phase.batch();
    let m = phase.rows();
    let h = cfg.hidden;
    let act = |elems: usize| Bytes::new(elems as u64 * dt);
    let mh = act(m * h);

    let mut ops = vec![Operator {
        name: OpName::Embed,
        kind: OpKind::Gather {
            tokens: m as u64,
            hidden: h as u64,
        },
        class: OpClass::Vector,
        weight_bytes: act(m * h), // embedding rows actually touched
        kv_read_bytes: Bytes::ZERO,
        kv_write_bytes: Bytes::ZERO,
        act_in_bytes: Bytes::ZERO,
        act_out_bytes: mh,
    }];
    ops.push(vector(
        OpName::FinalNorm,
        OpKind::Norm {
            elements: (b * h) as u64,
        },
        act(b * h),
        act(b * h),
    ));
    ops.push(matmul(
        OpName::LmHead,
        OpClass::WeightMatMul,
        MatMulShape::new(b, h, cfg.vocab),
        Bytes::new((h * cfg.vocab) as u64 * dt),
        act(b * h),
        act(b * cfg.vocab),
    ));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::workload::StepSummary;

    // The whole-step properties are pinned on `StepSummary::compute`, the
    // path production prices steps through: one layer's operators times
    // `layers`, plus the once-per-step operators.

    #[test]
    fn decode_weight_bytes_cover_whole_model_once() {
        let m = presets::llama3_8b();
        let streamed = StepSummary::compute(&m, Phase::decode(1, 512)).weight_bytes;
        // Streamed weights ≈ all parameters except the input embedding
        // (gathers touch only the used rows) at 2 B each.
        let expect = (m.total_params() - (m.vocab * m.hidden) as u64) * 2;
        let rel = (streamed.get() as f64 - expect as f64).abs() / expect as f64;
        assert!(rel < 0.01, "streamed {streamed:?} vs expected {expect}");
    }

    #[test]
    fn decode_kv_read_matches_cache_size() {
        let m = presets::llama3_8b();
        let (batch, ctx) = (32, 1024);
        let kv_read = StepSummary::compute(&m, Phase::decode(batch, ctx)).kv_read_bytes;
        assert_eq!(kv_read, m.kv_cache_bytes(batch, ctx));
    }

    #[test]
    fn prefill_flops_roughly_two_params_per_token() {
        let m = presets::llama3_8b();
        let tokens = 1024;
        let flops = StepSummary::compute(&m, Phase::prefill(1, tokens)).flops;
        // The 2·P·T rule of thumb over the decoder stack. The embedding is a
        // gather (0 FLOPs) and the LM head only projects the last position,
        // so both are excluded from P; attention adds a few percent on top.
        let stack_params = m.total_params() - 2 * (m.vocab * m.hidden) as u64;
        let rule = 2.0 * stack_params as f64 * tokens as f64;
        let ratio = flops.get() / rule;
        assert!((1.0..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn decode_kv_write_is_one_token_per_request() {
        let m = presets::llama3_8b();
        let ops = layer_operators(&m, Phase::decode(8, 100));
        let written: u64 = ops.iter().map(|o| o.kv_write_bytes.get()).sum();
        assert_eq!(written, m.kv_bytes_per_token_layer().get() * 8);
    }

    #[test]
    fn prefill_kv_write_covers_prompt() {
        let m = presets::llama3_8b();
        let ops = layer_operators(&m, Phase::prefill(2, 64));
        let written: u64 = ops.iter().map(|o| o.kv_write_bytes.get()).sum();
        assert_eq!(written, m.kv_bytes_per_token_layer().get() * 2 * 64);
    }

    #[test]
    fn moe_adds_router_and_scales_mlp() {
        let mixtral = presets::mixtral_8x7b();
        let ops = layer_operators(&mixtral, Phase::decode(1, 128));
        assert!(ops.iter().any(|o| o.name == OpName::MoeRouter));
        let gate = ops.iter().find(|o| o.name == OpName::MlpGate).unwrap();
        // One request streams exactly top-k = 2 experts' worth of weights.
        let one_expert = (mixtral.hidden * mixtral.intermediate) as u64 * 2;
        assert!((gate.weight_bytes.get() as f64 / one_expert as f64 - 2.0).abs() < 0.01);
        // Compute is also 2 dense passes.
        assert_eq!(gate.matmul_shape().unwrap().count, 2);
    }

    #[test]
    fn lm_head_rows_are_batch_not_tokens() {
        let m = presets::llama3_8b();
        let ops = once_operators(&m, Phase::prefill(4, 512));
        let lm = ops.iter().find(|o| o.name == OpName::LmHead).unwrap();
        assert_eq!(lm.matmul_shape().unwrap().m, 4);
    }

    #[test]
    fn attention_ops_are_classified_for_mac_tree() {
        let m = presets::llama3_8b();
        for phase in [Phase::decode(8, 256), Phase::prefill(2, 256)] {
            let ops = layer_operators(&m, phase);
            for op in &ops {
                let is_kv = op.kv_read_bytes.get() > 0;
                if is_kv {
                    assert_eq!(op.class, OpClass::Attention, "{}", op.name);
                }
            }
        }
    }
}
