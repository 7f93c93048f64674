//! Serving requests and their measured outcomes.

use ador_units::Seconds;

use crate::Slo;

/// One user request: arrival time plus prompt/response token lengths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Monotonic request id (arrival order).
    pub id: u64,
    /// Arrival time since simulation start.
    pub arrival: Seconds,
    /// Prompt length in tokens.
    pub input_tokens: usize,
    /// Response length in tokens.
    pub output_tokens: usize,
    /// Content identity for prefix caching. Requests sharing a group share
    /// one deterministic token-block hash chain, so their prompts have a
    /// common prefix of `min(input_tokens, other.input_tokens)` tokens —
    /// exactly the shape of a multi-turn session, where each turn's prompt
    /// extends the previous turn's full context. `None` (the default)
    /// means unique content: the prompt shares KV with nothing and
    /// bypasses the prefix cache.
    pub prefix_group: Option<u64>,
    /// The latency contract this request is judged against (usually its
    /// tenant class's [`Slo`]). Feeds two consumers: per-request goodput
    /// accounting ([`QosReport::goodput_tokens_per_sec`](crate::QosReport::goodput_tokens_per_sec)
    /// counts only SLO-met requests' tokens, requests without a contract
    /// counting as met) and the `SloAdaptive` speculation policy, which
    /// derives each request's speculation depth from its measured slack
    /// against `slo.tbt_max`. `None` means no contract: always "met",
    /// never speculated on under `SloAdaptive`.
    pub slo: Option<Slo>,
    /// Per-token draft acceptance probability for speculative decoding
    /// (usually the tenant class's acceptance profile — how predictable
    /// this traffic is to the draft model). `None` falls back to
    /// [`SpeculationConfig::default_acceptance`](ador_spec::SpeculationConfig::default_acceptance).
    /// Ignored unless the engine speculates.
    pub accept_rate: Option<f64>,
    /// Leading prompt tokens whose KV arrives with the request instead of
    /// being computed here — the receiving side of a prefill/decode
    /// disaggregated handoff. At admission the engine allocates their KV
    /// directly (no prefill compute, no prefix-cache interaction) and
    /// prefills only the remainder; at least the final prompt token is
    /// always recomputed (its logits seed generation), so values are
    /// clamped to `input_tokens - 1`. A preempted request loses the
    /// imported KV with the rest of its context and recomputes everything
    /// on resume. `0` (the default) means a normal request.
    pub imported_context: usize,
}

impl Request {
    /// Creates a request with unique (unshared) prompt content.
    ///
    /// # Panics
    ///
    /// Panics if either token count is zero.
    pub fn new(id: u64, arrival: Seconds, input_tokens: usize, output_tokens: usize) -> Self {
        assert!(
            input_tokens > 0 && output_tokens > 0,
            "requests must have at least one input and output token"
        );
        Self {
            id,
            arrival,
            input_tokens,
            output_tokens,
            prefix_group: None,
            slo: None,
            accept_rate: None,
            imported_context: 0,
        }
    }

    /// Marks the leading `tokens` prompt tokens as context imported from
    /// another engine (a disaggregated KV handoff): their KV is allocated
    /// at admission without prefill compute. Values are clamped to
    /// `input_tokens - 1` — the final prompt token is always recomputed.
    pub fn with_imported_context(mut self, tokens: usize) -> Self {
        self.imported_context = tokens.min(self.input_tokens - 1);
        self
    }

    /// Tags the request's prompt content as belonging to `group` (a
    /// session id, say), making its prefix shareable with other requests
    /// of the same group under a prefix-caching engine.
    pub fn with_prefix_group(mut self, group: u64) -> Self {
        self.prefix_group = Some(group);
        self
    }

    /// Attaches the latency contract the request is judged against (and
    /// that `SloAdaptive` speculation budgets depth for).
    pub fn with_slo(mut self, slo: Slo) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Sets the request's draft acceptance probability for speculative
    /// decoding.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    pub fn with_accept_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "acceptance must be a probability, got {rate}"
        );
        self.accept_rate = Some(rate);
        self
    }

    /// Total KV-cache tokens this request will eventually hold.
    pub fn total_tokens(&self) -> usize {
        self.input_tokens + self.output_tokens
    }
}

/// The measured lifecycle of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// The request this outcome belongs to.
    pub request: Request,
    /// Time from arrival to first token (queueing + prefill).
    pub ttft: Seconds,
    /// Mean interval between generated tokens.
    pub mean_tbt: Seconds,
    /// Worst single token interval.
    pub max_tbt: Seconds,
    /// Time from arrival to final token.
    pub e2e: Seconds,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let r = Request::new(1, Seconds::ZERO, 100, 50);
        assert_eq!(r.total_tokens(), 150);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_output_rejected() {
        let _ = Request::new(1, Seconds::ZERO, 100, 0);
    }
}
