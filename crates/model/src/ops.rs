//! Operator descriptors: what one step of inference asks of the hardware.

use core::fmt;

use ador_units::{Bytes, FlopCount};

/// Shape of a (possibly batched) matrix multiplication
/// `count × (M×K · K×N)`.
///
/// The `M = 1` (or small-`M`) case is the GEMV regime the paper's MAC tree
/// targets; large `M` is the GEMM regime for the systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatMulShape {
    /// Output rows (token dimension for weight ops).
    pub m: usize,
    /// Contraction dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Number of independent multiplications of this shape (e.g. one per
    /// attention head).
    pub count: usize,
}

impl MatMulShape {
    /// A single `M×K · K×N` product.
    pub const fn new(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n, count: 1 }
    }

    /// `count` independent products of the same shape.
    pub const fn batched(m: usize, k: usize, n: usize, count: usize) -> Self {
        Self { m, k, n, count }
    }

    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64 * self.count as u64
    }

    /// Total floating-point operations (2 per MAC).
    pub fn flops(&self) -> FlopCount {
        FlopCount::from_macs(self.macs())
    }
}

impl fmt::Display for MatMulShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 1 {
            write!(f, "[{}x{}]·[{}x{}]", self.m, self.k, self.k, self.n)
        } else {
            write!(
                f,
                "{}x [{}x{}]·[{}x{}]",
                self.count, self.m, self.k, self.k, self.n
            )
        }
    }
}

/// The computational kind of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Dense matrix multiplication against model weights or KV planes.
    MatMul(MatMulShape),
    /// Row-wise softmax over `elements` values.
    Softmax {
        /// Total elements normalized.
        elements: u64,
    },
    /// RMS/LayerNorm over `elements` values.
    Norm {
        /// Total elements normalized.
        elements: u64,
    },
    /// Pointwise work (residual adds, activations, RoPE) over `elements`.
    Elementwise {
        /// Total elements touched.
        elements: u64,
    },
    /// Embedding-table gather for `tokens` tokens of width `hidden`.
    Gather {
        /// Tokens looked up.
        tokens: u64,
        /// Row width of the table.
        hidden: u64,
    },
}

impl OpKind {
    /// Floating-point operations performed (vector ops count one FLOP per
    /// element pass; softmax ≈ 5 passes: max, sub, exp, sum, div).
    pub fn flops(&self) -> FlopCount {
        match *self {
            OpKind::MatMul(shape) => shape.flops(),
            OpKind::Softmax { elements } => FlopCount::new(5.0 * elements as f64),
            OpKind::Norm { elements } => FlopCount::new(4.0 * elements as f64),
            OpKind::Elementwise { elements } => FlopCount::new(elements as f64),
            OpKind::Gather { .. } => FlopCount::ZERO,
        }
    }
}

/// Scheduling class — which ADOR compute unit services the operator
/// (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Multiplication against *shared* model weights (QKV/O/MLP/LM-head):
    /// SA in prefill, MT in decode.
    WeightMatMul,
    /// Multiplication against *per-request* KV-cache data: always
    /// bandwidth-critical, serviced by the MT.
    Attention,
    /// Softmax / norm / elementwise / gather: vector unit.
    Vector,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::WeightMatMul => "weight-matmul",
            OpClass::Attention => "attention",
            OpClass::Vector => "vector",
        };
        f.write_str(s)
    }
}

/// Canonical operator names, matching the paper's latency-breakdown labels
/// (Fig. 11a: "QKV Proj", "MHA", "Out Proj", "MLP1", "MLP2").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names ARE the paper's labels; per-variant docs add nothing
pub enum OpName {
    Embed,
    AttnNorm,
    QkvProj,
    Rope,
    AttnScore,
    AttnSoftmax,
    AttnValue,
    OutProj,
    MlpNorm,
    MoeRouter,
    MlpGate,
    MlpUp,
    MlpAct,
    MlpDown,
    Residual,
    FinalNorm,
    LmHead,
}

impl OpName {
    /// The paper's Fig. 11 breakdown bucket for this operator.
    pub fn breakdown_bucket(&self) -> &'static str {
        match self {
            OpName::QkvProj => "QKV Proj",
            OpName::AttnScore | OpName::AttnSoftmax | OpName::AttnValue | OpName::Rope => "MHA",
            OpName::OutProj => "Out Proj",
            OpName::MlpGate | OpName::MlpUp | OpName::MoeRouter => "MLP1",
            OpName::MlpDown | OpName::MlpAct => "MLP2",
            OpName::LmHead => "LM-Head",
            OpName::Embed => "Embed",
            _ => "Others",
        }
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpName::Embed => "embed",
            OpName::AttnNorm => "attn_norm",
            OpName::QkvProj => "qkv_proj",
            OpName::Rope => "rope",
            OpName::AttnScore => "attn_score",
            OpName::AttnSoftmax => "attn_softmax",
            OpName::AttnValue => "attn_value",
            OpName::OutProj => "out_proj",
            OpName::MlpNorm => "mlp_norm",
            OpName::MoeRouter => "moe_router",
            OpName::MlpGate => "mlp_gate",
            OpName::MlpUp => "mlp_up",
            OpName::MlpAct => "mlp_act",
            OpName::MlpDown => "mlp_down",
            OpName::Residual => "residual",
            OpName::FinalNorm => "final_norm",
            OpName::LmHead => "lm_head",
        };
        f.write_str(s)
    }
}

/// One operator of an inference step, with its full memory-traffic
/// accounting.
///
/// All byte quantities are totals for the whole step (already multiplied by
/// batch, heads, etc.). `weight_bytes` are *shared* across the batch —
/// streamed once per step — while `kv_read_bytes` are *per-request* state
/// that cannot be amortized (paper §II-B, the key observation of Fig. 3a).
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Which operator this is.
    pub name: OpName,
    /// Computational shape.
    pub kind: OpKind,
    /// Scheduling class (which compute unit wants it).
    pub class: OpClass,
    /// Model weights streamed from DRAM, shared across the batch.
    pub weight_bytes: Bytes,
    /// KV-cache bytes read (per-request, unsharable).
    pub kv_read_bytes: Bytes,
    /// KV-cache bytes written.
    pub kv_write_bytes: Bytes,
    /// Activation bytes read on-chip.
    pub act_in_bytes: Bytes,
    /// Activation bytes produced.
    pub act_out_bytes: Bytes,
}

impl Operator {
    /// Floating-point operations for this operator.
    pub fn flops(&self) -> FlopCount {
        self.kind.flops()
    }

    /// Total DRAM traffic assuming weights and KV both live off-chip.
    pub fn dram_bytes(&self) -> Bytes {
        self.weight_bytes + self.kv_read_bytes + self.kv_write_bytes
    }

    /// Arithmetic intensity in FLOPs per DRAM byte (∞ for on-chip-only ops,
    /// represented as `f64::INFINITY`).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.dram_bytes().get();
        if bytes == 0 {
            f64::INFINITY
        } else {
            self.flops().get() / bytes as f64
        }
    }

    /// The matmul shape, if this is a matmul.
    pub fn matmul_shape(&self) -> Option<MatMulShape> {
        match self.kind {
            OpKind::MatMul(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.name, self.class, self.flops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_macs_multiply() {
        let s = MatMulShape::batched(2, 3, 5, 7);
        assert_eq!(s.macs(), 2 * 3 * 5 * 7);
        assert_eq!(s.flops().get(), 2.0 * 210.0);
    }

    #[test]
    fn vector_flops_scale_with_elements() {
        assert_eq!(OpKind::Softmax { elements: 10 }.flops().get(), 50.0);
        assert_eq!(OpKind::Norm { elements: 10 }.flops().get(), 40.0);
        assert_eq!(OpKind::Elementwise { elements: 10 }.flops().get(), 10.0);
        assert_eq!(
            OpKind::Gather {
                tokens: 4,
                hidden: 8
            }
            .flops(),
            FlopCount::ZERO
        );
    }

    #[test]
    fn breakdown_buckets_match_paper_labels() {
        assert_eq!(OpName::QkvProj.breakdown_bucket(), "QKV Proj");
        assert_eq!(OpName::AttnScore.breakdown_bucket(), "MHA");
        assert_eq!(OpName::AttnValue.breakdown_bucket(), "MHA");
        assert_eq!(OpName::MlpUp.breakdown_bucket(), "MLP1");
        assert_eq!(OpName::MlpDown.breakdown_bucket(), "MLP2");
        assert_eq!(OpName::Residual.breakdown_bucket(), "Others");
    }

    #[test]
    fn arithmetic_intensity_infinite_on_chip() {
        let op = Operator {
            name: OpName::Residual,
            kind: OpKind::Elementwise { elements: 100 },
            class: OpClass::Vector,
            weight_bytes: Bytes::ZERO,
            kv_read_bytes: Bytes::ZERO,
            kv_write_bytes: Bytes::ZERO,
            act_in_bytes: Bytes::new(200),
            act_out_bytes: Bytes::new(200),
        };
        assert!(op.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", MatMulShape::new(1, 2, 3)), "[1x2]·[2x3]");
        assert_eq!(
            format!("{}", MatMulShape::batched(1, 2, 3, 4)),
            "4x [1x2]·[2x3]"
        );
        assert_eq!(format!("{}", OpClass::Attention), "attention");
        assert_eq!(format!("{}", OpName::QkvProj), "qkv_proj");
    }
}
