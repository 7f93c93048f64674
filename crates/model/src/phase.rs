//! Inference phase descriptors.

use core::fmt;

/// One workload point of LLM inference: either a prefill pass over a prompt
/// or a single auto-regressive decode step (paper §II-A).
///
/// The two phases stress opposite hardware resources — prefill is
/// compute-bound GEMM work, decode is bandwidth-bound GEMV work — which is
/// the entire premise of the heterogeneous ADOR template.
///
/// # Examples
///
/// ```
/// use ador_model::Phase;
///
/// let prefill = Phase::prefill(4, 1024);
/// assert_eq!(prefill.rows(), 4096); // GEMM M dimension
///
/// let decode = Phase::decode(32, 1024);
/// assert_eq!(decode.rows(), 32); // one token per request
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Parallel processing of `prompt_len` input tokens for each of `batch`
    /// requests; KV pairs for all tokens are produced.
    Prefill {
        /// Concurrent requests being prefiled together.
        batch: usize,
        /// Prompt length per request, in tokens.
        prompt_len: usize,
    },
    /// One auto-regressive step generating a single token for each of
    /// `batch` requests whose KV caches hold `context_len` tokens.
    Decode {
        /// Concurrent requests in the decode batch.
        batch: usize,
        /// KV-cache length per request, in tokens.
        context_len: usize,
    },
}

impl Phase {
    /// Creates a prefill phase.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `prompt_len` is zero.
    pub fn prefill(batch: usize, prompt_len: usize) -> Self {
        assert!(
            batch > 0 && prompt_len > 0,
            "prefill needs batch > 0 and prompt_len > 0"
        );
        Phase::Prefill { batch, prompt_len }
    }

    /// Creates a decode phase.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `context_len` is zero.
    pub fn decode(batch: usize, context_len: usize) -> Self {
        assert!(
            batch > 0 && context_len > 0,
            "decode needs batch > 0 and context_len > 0"
        );
        Phase::Decode { batch, context_len }
    }

    /// Number of concurrent requests.
    pub fn batch(&self) -> usize {
        match *self {
            Phase::Prefill { batch, .. } | Phase::Decode { batch, .. } => batch,
        }
    }

    /// Tokens processed per request in this step (prompt length for prefill,
    /// one for decode).
    pub fn tokens_per_request(&self) -> usize {
        match *self {
            Phase::Prefill { prompt_len, .. } => prompt_len,
            Phase::Decode { .. } => 1,
        }
    }

    /// Total tokens flowing through the weight matrices — the `M` dimension
    /// of every weight GEMM/GEMV in this step.
    pub fn rows(&self) -> usize {
        self.batch() * self.tokens_per_request()
    }

    /// KV-cache context length each query token attends over, *averaged*
    /// across the step. For prefill with causal masking, token `t` attends
    /// to `t+1` keys, so the average is `(prompt_len + 1) / 2`; for decode it
    /// is the full cache.
    pub fn mean_attention_span(&self) -> f64 {
        match *self {
            Phase::Prefill { prompt_len, .. } => (prompt_len as f64 + 1.0) / 2.0,
            Phase::Decode { context_len, .. } => context_len as f64,
        }
    }

    /// KV entries **written** per request (the newly produced tokens).
    pub fn kv_tokens_written_per_request(&self) -> usize {
        self.tokens_per_request()
    }

    /// `true` for the prefill variant.
    pub fn is_prefill(&self) -> bool {
        matches!(self, Phase::Prefill { .. })
    }

    /// `true` for the decode variant.
    pub fn is_decode(&self) -> bool {
        matches!(self, Phase::Decode { .. })
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Phase::Prefill { batch, prompt_len } => {
                write!(f, "prefill(batch={batch}, prompt={prompt_len})")
            }
            Phase::Decode { batch, context_len } => {
                write!(f, "decode(batch={batch}, context={context_len})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rows_multiply_out() {
        assert_eq!(Phase::prefill(3, 100).rows(), 300);
        assert_eq!(Phase::decode(17, 999).rows(), 17);
    }

    #[test]
    fn causal_span_is_half_prompt() {
        assert_eq!(Phase::prefill(1, 1023).mean_attention_span(), 512.0);
        assert_eq!(Phase::decode(1, 1024).mean_attention_span(), 1024.0);
    }

    #[test]
    fn kv_written_matches_tokens() {
        assert_eq!(Phase::prefill(2, 64).kv_tokens_written_per_request(), 64);
        assert_eq!(Phase::decode(2, 64).kv_tokens_written_per_request(), 1);
    }

    #[test]
    #[should_panic(expected = "batch > 0")]
    fn zero_batch_rejected() {
        let _ = Phase::decode(0, 1);
    }

    #[test]
    fn display_names_phase() {
        assert_eq!(
            format!("{}", Phase::prefill(1, 2)),
            "prefill(batch=1, prompt=2)"
        );
        assert_eq!(
            format!("{}", Phase::decode(3, 4)),
            "decode(batch=3, context=4)"
        );
    }

    proptest! {
        #[test]
        fn prefill_rows_ge_decode_rows(b in 1usize..256, s in 1usize..4096) {
            prop_assert!(Phase::prefill(b, s).rows() >= Phase::decode(b, s).rows());
        }
    }
}
