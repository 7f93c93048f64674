//! LLM model descriptions and workload characterization for ADOR.
//!
//! The ADOR framework (paper §IV–V) consumes "GenAI model information" —
//! tensor shapes, attention variants, MoE structure — and turns each
//! inference phase into a list of operators with exact compute and memory
//! traffic. This crate provides:
//!
//! * [`ModelConfig`] — a transformer description (hidden size, GQA/MQA
//!   grouping, gated MLP, MoE, vocabulary), with derived parameter counts and
//!   KV-cache sizes;
//! * [`presets`] — the model zoo used across the paper's figures (LLaMA 2/3,
//!   Mistral, Mixtral, Qwen2, Gemma2, GPT-J, Falcon, Yi-34B, the OPT family);
//! * [`Phase`] — a prefill or decode workload point (batch, sequence
//!   lengths);
//! * [`Operator`] / [`graph`] — the per-layer operator list with
//!   GEMM/GEMV shapes, weight bytes, KV-cache reads/writes and vector work;
//! * [`workload`] — aggregate statistics backing Fig. 3a (KV vs parameter
//!   DRAM share) and Fig. 3b (attention vs MLP op share).
//!
//! # Examples
//!
//! ```
//! use ador_model::{presets, Phase};
//!
//! let llama = presets::llama3_8b();
//! assert!((llama.total_params() as f64 / 1e9 - 8.0).abs() < 0.1);
//!
//! let decode = Phase::decode(32, 1024);
//! let ops = llama.operators(decode);
//! let weight_bytes: u64 = ops.iter().map(|op| op.weight_bytes.get()).sum();
//! assert!(weight_bytes > 10_000_000_000); // ~16 GB of FP16 weights per step
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod graph;
mod moe;
mod ops;
mod phase;
pub mod presets;
pub mod workload;

pub use config::{AttentionKind, DataType, ModelConfig, ModelConfigBuilder, MoeConfig};
pub use ops::{MatMulShape, OpClass, OpKind, OpName, Operator};
pub use phase::Phase;
