//! The model zoo used throughout the paper's evaluation.
//!
//! Dimensions follow the public HuggingFace `config.json` files. Parameter
//! counts derived from these configurations land within ~2 % of the
//! advertised sizes (checked in the tests below); small deviations come from
//! tied embeddings and biases, which the serving models ignore.

use crate::ModelConfig;

/// LLaMA3 8B — the paper's main evaluation model (Figs. 11, 12, 15, 16, 17).
pub fn llama3_8b() -> ModelConfig {
    ModelConfig::builder("LLaMA3 8B")
        .hidden(4096)
        .layers(32)
        .heads(32)
        .kv_heads(8)
        .head_dim(128)
        .intermediate(14336)
        .vocab(128256)
        .max_seq_len(8192)
        .build()
}

/// LLaMA3 70B — the multi-device evaluation model (Fig. 15b).
pub fn llama3_70b() -> ModelConfig {
    ModelConfig::builder("LLaMA3 70B")
        .hidden(8192)
        .layers(80)
        .heads(64)
        .kv_heads(8)
        .head_dim(128)
        .intermediate(28672)
        .vocab(128256)
        .max_seq_len(8192)
        .build()
}

/// LLaMA2 7B — MHA example for the MAC-tree lane study (Fig. 11b).
pub fn llama2_7b() -> ModelConfig {
    ModelConfig::builder("LLaMA2 7B")
        .hidden(4096)
        .layers(32)
        .heads(32)
        .kv_heads(32)
        .head_dim(128)
        .intermediate(11008)
        .vocab(32000)
        .max_seq_len(4096)
        .build()
}

/// Mistral 7B — GQA model used in the bandwidth study (Fig. 4b).
pub fn mistral_7b() -> ModelConfig {
    ModelConfig::builder("Mistral 7B")
        .hidden(4096)
        .layers(32)
        .heads(32)
        .kv_heads(8)
        .head_dim(128)
        .intermediate(14336)
        .vocab(32000)
        .max_seq_len(32768)
        .build()
}

/// Mixtral 8x7B — the MoE model of Fig. 1 / Fig. 3a.
pub fn mixtral_8x7b() -> ModelConfig {
    ModelConfig::builder("Mixtral 8x7B")
        .hidden(4096)
        .layers(32)
        .heads(32)
        .kv_heads(8)
        .head_dim(128)
        .intermediate(14336)
        .vocab(32000)
        .moe(8, 2)
        .max_seq_len(32768)
        .build()
}

/// Qwen2 7B (Fig. 3a).
pub fn qwen2_7b() -> ModelConfig {
    ModelConfig::builder("Qwen2 7B")
        .hidden(3584)
        .layers(28)
        .heads(28)
        .kv_heads(4)
        .head_dim(128)
        .intermediate(18944)
        .vocab(152064)
        .max_seq_len(32768)
        .build()
}

/// Gemma2 9B (Fig. 3a).
pub fn gemma2_9b() -> ModelConfig {
    ModelConfig::builder("Gemma2 9B")
        .hidden(3584)
        .layers(42)
        .heads(16)
        .kv_heads(8)
        .head_dim(256)
        .intermediate(14336)
        .vocab(256000)
        .max_seq_len(8192)
        .build()
}

/// GPT-J 6B — MHA model for the bandwidth study (Fig. 4b).
pub fn gptj_6b() -> ModelConfig {
    ModelConfig::builder("GPT-J 6B")
        .hidden(4096)
        .layers(28)
        .heads(16)
        .kv_heads(16)
        .head_dim(256)
        .intermediate(16384)
        .vocab(50400)
        .gated_mlp(false)
        .max_seq_len(2048)
        .build()
}

/// Falcon 7B — the MQA example of the MAC-tree lane study (Fig. 11b).
pub fn falcon_7b() -> ModelConfig {
    ModelConfig::builder("Falcon 7B")
        .hidden(4544)
        .layers(32)
        .heads(71)
        .kv_heads(1)
        .head_dim(64)
        .intermediate(18176)
        .vocab(65024)
        .gated_mlp(false)
        .max_seq_len(2048)
        .build()
}

/// Yi 34B — the two-device serving model of Fig. 16.
pub fn yi_34b() -> ModelConfig {
    ModelConfig::builder("Yi 34B")
        .hidden(7168)
        .layers(60)
        .heads(56)
        .kv_heads(8)
        .head_dim(128)
        .intermediate(20480)
        .vocab(64000)
        .max_seq_len(4096)
        .build()
}

fn opt(name: &str, hidden: usize, layers: usize, heads: usize) -> ModelConfig {
    ModelConfig::builder(name)
        .hidden(hidden)
        .layers(layers)
        .heads(heads)
        .intermediate(4 * hidden)
        .vocab(50272)
        .gated_mlp(false)
        .max_seq_len(2048)
        .build()
}

/// OPT 1.3B (Fig. 10 bandwidth calibration point).
pub fn opt_1_3b() -> ModelConfig {
    opt("OPT 1.3B", 2048, 24, 32)
}

/// OPT 6.7B (Fig. 10).
pub fn opt_6_7b() -> ModelConfig {
    opt("OPT 6.7B", 4096, 32, 32)
}

/// OPT 13B (Fig. 10).
pub fn opt_13b() -> ModelConfig {
    opt("OPT 13B", 5120, 40, 40)
}

/// OPT 30B (Fig. 10).
pub fn opt_30b() -> ModelConfig {
    opt("OPT 30B", 7168, 48, 56)
}

/// OPT 66B (Fig. 10).
pub fn opt_66b() -> ModelConfig {
    opt("OPT 66B", 9216, 64, 72)
}

/// Every preset, for registry-style iteration.
pub fn all() -> Vec<ModelConfig> {
    vec![
        llama3_8b(),
        llama3_70b(),
        llama2_7b(),
        mistral_7b(),
        mixtral_8x7b(),
        qwen2_7b(),
        gemma2_9b(),
        gptj_6b(),
        falcon_7b(),
        yi_34b(),
        opt_1_3b(),
        opt_6_7b(),
        opt_13b(),
        opt_30b(),
        opt_66b(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttentionKind;

    fn billions(m: &ModelConfig) -> f64 {
        m.total_params() as f64 / 1e9
    }

    #[test]
    fn parameter_counts_match_advertised_sizes() {
        let cases: Vec<(ModelConfig, f64, f64)> = vec![
            (llama3_8b(), 8.0, 0.05),
            (llama3_70b(), 70.6, 0.02),
            (llama2_7b(), 6.7, 0.05),
            (mistral_7b(), 7.2, 0.05),
            (mixtral_8x7b(), 46.7, 0.02),
            (qwen2_7b(), 7.6, 0.05),
            (gptj_6b(), 6.0, 0.05),
            (falcon_7b(), 7.2, 0.05),
            (yi_34b(), 34.4, 0.02),
            (opt_6_7b(), 6.7, 0.05),
            (opt_66b(), 66.0, 0.05),
        ];
        for (m, expect, tol) in cases {
            let got = billions(&m);
            let rel = (got - expect).abs() / expect;
            assert!(
                rel < tol,
                "{}: {got:.2}B vs {expect}B (rel {rel:.3})",
                m.name
            );
        }
    }

    #[test]
    fn attention_kinds_match_fig11b_labels() {
        assert_eq!(llama2_7b().attention_kind(), AttentionKind::Mha);
        assert_eq!(llama3_8b().attention_kind(), AttentionKind::Gqa);
        assert_eq!(falcon_7b().attention_kind(), AttentionKind::Mqa);
    }

    #[test]
    fn all_presets_validate() {
        for m in all() {
            assert!(m.validate().is_ok(), "{} failed validation", m.name);
        }
    }

    #[test]
    fn opt_family_is_ordered_by_size() {
        let sizes: Vec<f64> = [opt_1_3b(), opt_6_7b(), opt_13b(), opt_30b(), opt_66b()]
            .iter()
            .map(billions)
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    }

    #[test]
    fn mixtral_is_moe() {
        let m = mixtral_8x7b();
        let moe = m.moe.unwrap();
        assert_eq!(moe.num_experts, 8);
        assert_eq!(moe.experts_per_token, 2);
    }
}
