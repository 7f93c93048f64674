//! Transformer model configuration and derived size arithmetic.

use core::fmt;

use ador_units::Bytes;

use crate::moe::MoeConfig as MoeConfigInner;

/// Numeric storage format of weights and KV-cache entries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// IEEE 754 half precision (2 bytes) — the paper's serving format.
    #[default]
    F16,
    /// bfloat16 (2 bytes).
    Bf16,
    /// IEEE 754 single precision (4 bytes).
    F32,
    /// 8-bit integer (1 byte).
    I8,
}

impl DataType {
    /// Storage size of one element in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            DataType::F16 | DataType::Bf16 => 2,
            DataType::F32 => 4,
            DataType::I8 => 1,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::F16 => "fp16",
            DataType::Bf16 => "bf16",
            DataType::F32 => "fp32",
            DataType::I8 => "int8",
        };
        f.write_str(s)
    }
}

/// Attention head-sharing scheme, derived from the head counts (paper §V-A
/// distinguishes these because they change the MAC-tree lane requirement,
/// Fig. 11b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionKind {
    /// Multi-head attention: every query head has its own KV head.
    Mha,
    /// Grouped-query attention: several query heads share one KV head.
    Gqa,
    /// Multi-query attention: all query heads share a single KV head.
    Mqa,
}

impl fmt::Display for AttentionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttentionKind::Mha => "MHA",
            AttentionKind::Gqa => "GQA",
            AttentionKind::Mqa => "MQA",
        };
        f.write_str(s)
    }
}

pub use crate::moe::MoeConfig;

/// A decoder-only transformer description.
///
/// Field semantics follow the usual HuggingFace `config.json` names. All
/// derived sizes (parameter counts, KV bytes, operator lists) are computed
/// from these fields, so the struct is a passive data carrier with public
/// fields in the C-struct spirit.
///
/// # Examples
///
/// ```
/// use ador_model::{ModelConfig, AttentionKind};
///
/// let m = ModelConfig::builder("toy")
///     .hidden(1024)
///     .layers(4)
///     .heads(16)
///     .kv_heads(4)
///     .intermediate(4096)
///     .vocab(32000)
///     .build();
/// assert_eq!(m.head_dim, 64);
/// assert_eq!(m.attention_kind(), AttentionKind::Gqa);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable model name (e.g. `"LLaMA3 8B"`).
    pub name: String,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Number of decoder layers.
    pub layers: usize,
    /// Number of query heads.
    pub heads: usize,
    /// Number of key/value heads (`== heads` for MHA, `1` for MQA).
    pub kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// MLP intermediate dimension.
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// `true` for SwiGLU-style MLPs (gate + up + down), `false` for the
    /// classic two-matrix MLP.
    pub gated_mlp: bool,
    /// Mixture-of-experts configuration, if any.
    pub moe: Option<MoeConfigInner>,
    /// Maximum supported sequence length.
    pub max_seq_len: usize,
    /// Weight / KV storage format.
    pub dtype: DataType,
}

impl ModelConfig {
    /// Starts building a configuration; see [`ModelConfigBuilder`].
    pub fn builder(name: impl Into<String>) -> ModelConfigBuilder {
        ModelConfigBuilder::new(name)
    }

    /// The attention head-sharing scheme implied by the head counts.
    pub fn attention_kind(&self) -> AttentionKind {
        if self.kv_heads == 1 {
            AttentionKind::Mqa
        } else if self.kv_heads == self.heads {
            AttentionKind::Mha
        } else {
            AttentionKind::Gqa
        }
    }

    /// Query projection width (`heads · head_dim`).
    #[inline]
    pub fn q_dim(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Key/value projection width (`kv_heads · head_dim`).
    #[inline]
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim
    }

    /// Parameters in one layer's attention block (Q, K, V, O projections).
    pub fn attn_params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let q = self.q_dim() as u64;
        let kv = self.kv_dim() as u64;
        h * q + 2 * h * kv + q * h
    }

    /// Parameters in one layer's MLP block.
    ///
    /// For MoE models this counts **all** experts (they all live in DRAM).
    pub fn mlp_params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let i = self.intermediate as u64;
        let matrices = if self.gated_mlp { 3 } else { 2 };
        let dense = matrices * h * i;
        match &self.moe {
            Some(moe) => dense * moe.num_experts as u64 + moe.router_params(self.hidden),
            None => dense,
        }
    }

    /// Parameters in one decoder layer (attention + MLP + norms).
    pub fn params_per_layer(&self) -> u64 {
        self.attn_params_per_layer() + self.mlp_params_per_layer() + 2 * self.hidden as u64
    }

    /// Total parameters including embedding and LM head.
    pub fn total_params(&self) -> u64 {
        let embed = (self.vocab * self.hidden) as u64;
        let lm_head = (self.hidden * self.vocab) as u64;
        self.params_per_layer() * self.layers as u64 + embed + lm_head + self.hidden as u64
    }

    /// Bytes of weights that a decode step must stream per layer
    /// (attention + MLP); for MoE models only the *activated* experts are
    /// streamed, which depends on the batch via [`MoeConfig::expected_active_experts`].
    pub fn streamed_layer_bytes(&self, batch: usize) -> Bytes {
        let dense_mlp = {
            let h = self.hidden as u64;
            let i = self.intermediate as u64;
            let matrices = if self.gated_mlp { 3 } else { 2 };
            matrices * h * i
        };
        let mlp = match &self.moe {
            Some(moe) => {
                let active = moe.expected_active_experts(batch);
                (dense_mlp as f64 * active) as u64 + moe.router_params(self.hidden)
            }
            None => dense_mlp,
        };
        Bytes::new((self.attn_params_per_layer() + mlp) * self.dtype.bytes())
    }

    /// Total weight footprint in bytes.
    pub fn weight_bytes(&self) -> Bytes {
        Bytes::new(self.total_params() * self.dtype.bytes())
    }

    /// KV-cache bytes for one token in one layer (K and V planes).
    pub fn kv_bytes_per_token_layer(&self) -> Bytes {
        Bytes::new(2 * self.kv_dim() as u64 * self.dtype.bytes())
    }

    /// KV-cache bytes for one token across all layers.
    pub fn kv_bytes_per_token(&self) -> Bytes {
        self.kv_bytes_per_token_layer() * self.layers as u64
    }

    /// Full KV-cache footprint for `batch` requests at `context` tokens each.
    pub fn kv_cache_bytes(&self, batch: usize, context: usize) -> Bytes {
        self.kv_bytes_per_token() * (batch * context) as u64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant
    /// (zero dimension, `heads` not divisible by `kv_heads`, MoE without
    /// experts, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden == 0
            || self.layers == 0
            || self.heads == 0
            || self.kv_heads == 0
            || self.head_dim == 0
            || self.intermediate == 0
            || self.vocab == 0
            || self.max_seq_len == 0
        {
            return Err(format!("model '{}' has a zero-sized dimension", self.name));
        }
        if self.kv_heads > self.heads {
            return Err(format!(
                "model '{}' has more KV heads ({}) than query heads ({})",
                self.name, self.kv_heads, self.heads
            ));
        }
        if self.heads % self.kv_heads != 0 {
            return Err(format!(
                "model '{}': query heads ({}) must be a multiple of KV heads ({})",
                self.name, self.heads, self.kv_heads
            ));
        }
        if let Some(moe) = &self.moe {
            moe.validate()
                .map_err(|e| format!("model '{}': {e}", self.name))?;
        }
        Ok(())
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.1}B params, {} layers, h={}, {} {}x{})",
            self.name,
            self.total_params() as f64 / 1e9,
            self.layers,
            self.hidden,
            self.attention_kind(),
            self.heads,
            self.head_dim,
        )
    }
}

/// Incremental constructor for [`ModelConfig`] (C-BUILDER).
///
/// `head_dim` defaults to `hidden / heads`; `kv_heads` defaults to `heads`
/// (MHA); `max_seq_len` defaults to 8192; `dtype` defaults to FP16; the MLP
/// defaults to gated (SwiGLU).
#[derive(Debug, Clone)]
pub struct ModelConfigBuilder {
    name: String,
    hidden: usize,
    layers: usize,
    heads: usize,
    kv_heads: Option<usize>,
    head_dim: Option<usize>,
    intermediate: usize,
    vocab: usize,
    gated_mlp: bool,
    moe: Option<MoeConfigInner>,
    max_seq_len: usize,
    dtype: DataType,
}

impl ModelConfigBuilder {
    /// Creates a builder with placeholder dimensions that must be filled in.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            hidden: 0,
            layers: 0,
            heads: 0,
            kv_heads: None,
            head_dim: None,
            intermediate: 0,
            vocab: 0,
            gated_mlp: true,
            moe: None,
            max_seq_len: 8192,
            dtype: DataType::F16,
        }
    }

    /// Sets the hidden dimension.
    pub fn hidden(mut self, hidden: usize) -> Self {
        self.hidden = hidden;
        self
    }

    /// Sets the decoder layer count.
    pub fn layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Sets the query-head count.
    pub fn heads(mut self, heads: usize) -> Self {
        self.heads = heads;
        self
    }

    /// Sets the KV-head count (defaults to `heads`, i.e. MHA).
    pub fn kv_heads(mut self, kv_heads: usize) -> Self {
        self.kv_heads = Some(kv_heads);
        self
    }

    /// Sets the per-head dimension (defaults to `hidden / heads`).
    pub fn head_dim(mut self, head_dim: usize) -> Self {
        self.head_dim = Some(head_dim);
        self
    }

    /// Sets the MLP intermediate dimension.
    pub fn intermediate(mut self, intermediate: usize) -> Self {
        self.intermediate = intermediate;
        self
    }

    /// Sets the vocabulary size.
    pub fn vocab(mut self, vocab: usize) -> Self {
        self.vocab = vocab;
        self
    }

    /// Selects a gated (SwiGLU, 3-matrix) or plain (2-matrix) MLP.
    pub fn gated_mlp(mut self, gated: bool) -> Self {
        self.gated_mlp = gated;
        self
    }

    /// Makes the MLP a mixture of experts.
    pub fn moe(mut self, num_experts: usize, experts_per_token: usize) -> Self {
        self.moe = Some(MoeConfigInner::new(num_experts, experts_per_token));
        self
    }

    /// Sets the maximum sequence length.
    pub fn max_seq_len(mut self, max_seq_len: usize) -> Self {
        self.max_seq_len = max_seq_len;
        self
    }

    /// Sets the storage data type.
    pub fn dtype(mut self, dtype: DataType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Finishes construction.
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration fails [`ModelConfig::validate`];
    /// builders are used with literal dimensions, so this is a programming
    /// error rather than a recoverable condition.
    pub fn build(self) -> ModelConfig {
        let heads = self.heads;
        let cfg = ModelConfig {
            name: self.name,
            hidden: self.hidden,
            layers: self.layers,
            heads,
            kv_heads: self.kv_heads.unwrap_or(heads),
            head_dim: self
                .head_dim
                .unwrap_or_else(|| self.hidden.checked_div(heads).unwrap_or(0)),
            intermediate: self.intermediate,
            vocab: self.vocab,
            gated_mlp: self.gated_mlp,
            moe: self.moe,
            max_seq_len: self.max_seq_len,
            dtype: self.dtype,
        };
        if let Err(e) = cfg.validate() {
            panic!("invalid model configuration: {e}");
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn attention_kind_classification() {
        let mk = |heads, kv| {
            ModelConfig::builder("t")
                .hidden(1024)
                .layers(1)
                .heads(heads)
                .kv_heads(kv)
                .head_dim(64)
                .intermediate(4096)
                .vocab(1000)
                .build()
                .attention_kind()
        };
        assert_eq!(mk(16, 16), AttentionKind::Mha);
        assert_eq!(mk(16, 4), AttentionKind::Gqa);
        assert_eq!(mk(16, 1), AttentionKind::Mqa);
    }

    #[test]
    fn llama3_8b_kv_bytes_match_hand_calc() {
        let m = presets::llama3_8b();
        // 2 planes * 8 kv heads * 128 dim * 2 bytes = 4 KiB per token-layer.
        assert_eq!(m.kv_bytes_per_token_layer(), Bytes::from_kib(4));
        // 4 KiB * 32 layers = 128 KiB per token.
        assert_eq!(m.kv_bytes_per_token(), Bytes::from_kib(128));
    }

    #[test]
    fn gated_mlp_has_three_matrices() {
        let base = ModelConfig::builder("t")
            .hidden(1000)
            .layers(1)
            .heads(10)
            .head_dim(100)
            .intermediate(3000)
            .vocab(100);
        let gated = base.clone().gated_mlp(true).build();
        let plain = base.gated_mlp(false).build();
        assert_eq!(gated.mlp_params_per_layer(), 3 * 1000 * 3000);
        assert_eq!(plain.mlp_params_per_layer(), 2 * 1000 * 3000);
    }

    #[test]
    fn kv_cache_scales_with_batch_and_context() {
        let m = presets::llama3_8b();
        let small = m.kv_cache_bytes(1, 1024);
        let big = m.kv_cache_bytes(128, 1024);
        assert_eq!(big.get(), small.get() * 128);
    }

    #[test]
    fn validate_rejects_bad_head_grouping() {
        let mut m = presets::llama3_8b();
        m.kv_heads = 7; // 32 % 7 != 0
        assert!(m.validate().is_err());
        m.kv_heads = 64; // more than heads
        assert!(m.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn builder_panics_on_missing_dims() {
        let _ = ModelConfig::builder("broken").build();
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", presets::llama3_8b());
        assert!(s.contains("LLaMA3 8B"));
        assert!(s.contains("GQA"));
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DataType::F16.bytes(), 2);
        assert_eq!(DataType::Bf16.bytes(), 2);
        assert_eq!(DataType::F32.bytes(), 4);
        assert_eq!(DataType::I8.bytes(), 1);
    }

    #[test]
    fn streamed_bytes_smaller_for_moe_at_small_batch() {
        let mixtral = presets::mixtral_8x7b();
        let b1 = mixtral.streamed_layer_bytes(1);
        let b128 = mixtral.streamed_layer_bytes(128);
        let all = Bytes::new(
            (mixtral.attn_params_per_layer() + mixtral.mlp_params_per_layer())
                * mixtral.dtype.bytes(),
        );
        assert!(b1 < b128, "small batch must activate fewer experts");
        assert!(
            b128 <= all,
            "streamed weights can never exceed the full layer"
        );
    }
}
