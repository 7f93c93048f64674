//! QoS aggregation: the "QoS Calculator" of Fig. 14b.

use ador_units::{conv, Seconds};

use crate::RequestOutcome;

/// Percentile summary of a latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Arithmetic mean.
    pub mean: Seconds,
    /// Median.
    pub p50: Seconds,
    /// 95th percentile.
    pub p95: Seconds,
    /// 99th percentile.
    pub p99: Seconds,
    /// Maximum.
    pub max: Seconds,
}

impl LatencyStats {
    /// Computes stats over `samples` (unsorted). Percentiles use ceil-based
    /// nearest-rank: the q-quantile is the smallest sample with at least
    /// ⌈q·n⌉ of the population at or below it, so a reported p99 is never
    /// below the requested quantile.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[Seconds]) -> Self {
        assert!(
            !samples.is_empty(),
            "cannot summarize an empty latency population"
        );
        let mut sorted: Vec<Seconds> = samples.to_vec();
        // ador-lint: allow(panic) — invariant: latencies are differences of finite sim times
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
        let pick = |q: f64| {
            let rank = conv::usize_from_f64((q * conv::f64_from_usize(sorted.len())).ceil());
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        let mean = sorted.iter().copied().sum::<Seconds>() / conv::f64_from_usize(sorted.len());
        Self {
            mean,
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            // The 1.0-quantile is the last (largest) sample.
            max: pick(1.0),
        }
    }
}

/// Engine-level counters the scheduler accumulates across its iterations,
/// reported alongside the per-request latency populations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineCounters {
    /// Mean decode-batch occupancy (token-producing requests per step).
    pub mean_batch: f64,
    /// Peak decode-batch occupancy.
    pub peak_batch: usize,
    /// KV-pressure preemption events.
    pub preemptions: usize,
    /// Mean admission-queue depth sampled per engine step.
    pub mean_queue_depth: f64,
    /// Peak admission-queue depth.
    pub peak_queue_depth: usize,
    /// Peak KV tokens resident across the run.
    pub peak_kv_tokens: usize,
    /// Prompt tokens actually prefilled (recomputes after preemption
    /// included, prefix-cache hits excluded). Without prefix caching this
    /// is the total prompt-token demand admitted so far.
    pub prefilled_tokens: usize,
    /// Prompt tokens whose prefill was skipped by a prefix-cache hit.
    pub prefix_hit_tokens: usize,
    /// Shareable (full-block) prompt tokens that missed the prefix cache.
    pub prefix_miss_tokens: usize,
    /// Tokens of cached prefix blocks evicted under KV pressure.
    pub prefix_evicted_tokens: usize,
    /// Output tokens actually committed by decode/verify steps. Equals
    /// the summed declared response lengths once every request completes
    /// — the invariant the stop-boundary clamp protects under
    /// speculation's multi-token commits.
    pub generated_tokens: usize,
    /// Draft-model tokens proposed across all verify steps (0 with
    /// speculation off).
    pub drafted_tokens: usize,
    /// Drafted tokens the target model accepted
    /// (`drafted == accepted + rejected` always holds).
    pub accepted_tokens: usize,
    /// Drafted tokens the target model rejected — work burnt without a
    /// committed token.
    pub rejected_tokens: usize,
}

/// The full QoS report of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Completed requests.
    pub completed: usize,
    /// Wall-clock span of the simulation.
    pub makespan: Seconds,
    /// Time-to-first-token stats.
    pub ttft: LatencyStats,
    /// Time-between-tokens stats (per-request means).
    pub tbt: LatencyStats,
    /// End-to-end latency stats.
    pub e2e: LatencyStats,
    /// Sustained request throughput (completed / makespan).
    pub requests_per_sec: f64,
    /// Generated-token throughput across all requests.
    pub tokens_per_sec: f64,
    /// Goodput: generated tokens from SLO-met requests over the makespan.
    /// A request with no attached [`Slo`](crate::Slo) counts as met (no
    /// contract to break); one that missed its contract contributes
    /// nothing — tokens a user had to walk away from are not good
    /// throughput. The headline metric for SLO-customized speculation.
    pub goodput_tokens_per_sec: f64,
    /// Mean decode batch occupancy observed across engine steps.
    pub mean_batch: f64,
    /// Peak decode batch occupancy.
    pub peak_batch: usize,
    /// KV-pressure preemption events across the run.
    pub preemptions: usize,
    /// Mean admission-queue depth across engine steps.
    pub mean_queue_depth: f64,
    /// Peak admission-queue depth.
    pub peak_queue_depth: usize,
    /// Peak KV tokens resident at any step (≤ the simulator's budget).
    pub peak_kv_tokens: usize,
    /// Prompt tokens actually prefilled (prefix-cache hits excluded).
    pub prefilled_tokens: usize,
    /// Prompt tokens whose prefill a prefix-cache hit skipped.
    pub prefix_hit_tokens: usize,
    /// Shareable prompt tokens that missed the prefix cache.
    pub prefix_miss_tokens: usize,
    /// Cached prefix tokens evicted under KV pressure.
    pub prefix_evicted_tokens: usize,
    /// Output tokens committed by decode/verify steps.
    pub generated_tokens: usize,
    /// Draft tokens proposed across all verify steps.
    pub drafted_tokens: usize,
    /// Drafted tokens the target model accepted.
    pub accepted_tokens: usize,
    /// Drafted tokens the target model rejected.
    pub rejected_tokens: usize,
}

impl QosReport {
    /// Builds a report from completed outcomes plus engine-level counters.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty.
    pub fn from_outcomes(
        outcomes: &[RequestOutcome],
        makespan: Seconds,
        counters: EngineCounters,
    ) -> Self {
        assert!(!outcomes.is_empty(), "no completed requests to report on");
        let ttfts: Vec<Seconds> = outcomes.iter().map(|o| o.ttft).collect();
        let tbts: Vec<Seconds> = outcomes.iter().map(|o| o.mean_tbt).collect();
        let e2es: Vec<Seconds> = outcomes.iter().map(|o| o.e2e).collect();
        let tokens: usize = outcomes.iter().map(|o| o.request.output_tokens).sum();
        let good_tokens: usize = outcomes
            .iter()
            .filter(|o| o.request.slo.is_none_or(|slo| slo.met(o)))
            .map(|o| o.request.output_tokens)
            .sum();
        let span = makespan.get().max(1e-12);
        Self {
            completed: outcomes.len(),
            makespan,
            ttft: LatencyStats::from_samples(&ttfts),
            tbt: LatencyStats::from_samples(&tbts),
            e2e: LatencyStats::from_samples(&e2es),
            requests_per_sec: conv::f64_from_usize(outcomes.len()) / span,
            tokens_per_sec: conv::f64_from_usize(tokens) / span,
            goodput_tokens_per_sec: conv::f64_from_usize(good_tokens) / span,
            mean_batch: counters.mean_batch,
            peak_batch: counters.peak_batch,
            preemptions: counters.preemptions,
            mean_queue_depth: counters.mean_queue_depth,
            peak_queue_depth: counters.peak_queue_depth,
            peak_kv_tokens: counters.peak_kv_tokens,
            prefilled_tokens: counters.prefilled_tokens,
            prefix_hit_tokens: counters.prefix_hit_tokens,
            prefix_miss_tokens: counters.prefix_miss_tokens,
            prefix_evicted_tokens: counters.prefix_evicted_tokens,
            generated_tokens: counters.generated_tokens,
            drafted_tokens: counters.drafted_tokens,
            accepted_tokens: counters.accepted_tokens,
            rejected_tokens: counters.rejected_tokens,
        }
    }

    /// Realized draft acceptance rate: `accepted / drafted`, or 0 when
    /// nothing was drafted (speculation off). With an i.i.d. per-token
    /// acceptance profile the realized rate runs *below* the profile:
    /// leading-run verification discards everything after the first
    /// rejection, so late drafts only count when the whole run before
    /// them survives.
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted_tokens == 0 {
            0.0
        } else {
            conv::f64_from_usize(self.accepted_tokens) / conv::f64_from_usize(self.drafted_tokens)
        }
    }

    /// Prefix-cache block hit rate over the shareable prompt tokens seen:
    /// `hit / (hit + miss)`, or 0 when caching was off or nothing was
    /// shareable.
    pub fn prefix_hit_rate(&self) -> f64 {
        let seen = self.prefix_hit_tokens + self.prefix_miss_tokens;
        if seen == 0 {
            0.0
        } else {
            conv::f64_from_usize(self.prefix_hit_tokens) / conv::f64_from_usize(seen)
        }
    }

    /// Merges per-replica reports into one fleet-wide report over the
    /// pooled end-to-end `outcomes` on the shared fleet clock.
    ///
    /// Engine counters come from `reports`: token and preemption counts
    /// are summed, peaks are maxed, and `mean_batch` and
    /// `mean_queue_depth` are makespan-weighted, approximating a
    /// fleet-time average across replicas whose step grids differ.
    /// `makespan` is the latest replica finish time. Everything derived
    /// from the request population (`completed`, the latency percentiles
    /// and the throughput figures) is computed exactly from `outcomes`
    /// by [`QosReport::from_outcomes`] over that makespan, so the fleet
    /// percentiles are the true union percentiles. One report's engine
    /// counters pass through unchanged.
    ///
    /// `reports` may describe split halves of the requests in `outcomes`
    /// (a disaggregated request completes once in each pool), so every
    /// outcome must have completed on at least one replica.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty or holds more requests than the
    /// reports completed.
    pub fn merge(reports: &[QosReport], outcomes: &[RequestOutcome]) -> Self {
        let completed: usize = reports.iter().map(|r| r.completed).sum();
        assert!(
            outcomes.len() <= completed,
            "pooled outcomes must have completed on the merged reports"
        );
        let makespan = reports
            .iter()
            .map(|r| r.makespan)
            .fold(Seconds::ZERO, Seconds::max);
        let total_span: f64 = reports.iter().map(|r| r.makespan.get()).sum();
        let time_weighted = |pick: fn(&QosReport) -> f64| match reports {
            // Weighting one report by its own makespan is not an identity
            // in floating point.
            [only] => pick(only),
            _ if total_span <= 0.0 => 0.0,
            _ => {
                reports
                    .iter()
                    .map(|r| pick(r) * r.makespan.get())
                    .sum::<f64>()
                    / total_span
            }
        };
        let max = |pick: fn(&QosReport) -> usize| reports.iter().map(pick).max().unwrap_or(0);
        let sum = |pick: fn(&QosReport) -> usize| reports.iter().map(pick).sum();
        let counters = EngineCounters {
            mean_batch: time_weighted(|r| r.mean_batch),
            peak_batch: max(|r| r.peak_batch),
            preemptions: sum(|r| r.preemptions),
            mean_queue_depth: time_weighted(|r| r.mean_queue_depth),
            peak_queue_depth: max(|r| r.peak_queue_depth),
            peak_kv_tokens: max(|r| r.peak_kv_tokens),
            prefilled_tokens: sum(|r| r.prefilled_tokens),
            prefix_hit_tokens: sum(|r| r.prefix_hit_tokens),
            prefix_miss_tokens: sum(|r| r.prefix_miss_tokens),
            prefix_evicted_tokens: sum(|r| r.prefix_evicted_tokens),
            generated_tokens: sum(|r| r.generated_tokens),
            drafted_tokens: sum(|r| r.drafted_tokens),
            accepted_tokens: sum(|r| r.accepted_tokens),
            rejected_tokens: sum(|r| r.rejected_tokens),
        };
        Self::from_outcomes(outcomes, makespan, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Request;

    fn outcome(id: u64, ttft_ms: f64, tbt_ms: f64) -> RequestOutcome {
        RequestOutcome {
            request: Request::new(id, Seconds::ZERO, 100, 10),
            ttft: Seconds::from_millis(ttft_ms),
            mean_tbt: Seconds::from_millis(tbt_ms),
            max_tbt: Seconds::from_millis(tbt_ms * 1.5),
            e2e: Seconds::from_millis(ttft_ms + 10.0 * tbt_ms),
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let samples: Vec<Seconds> = (1..=100).map(|i| Seconds::from_millis(i as f64)).collect();
        let s = LatencyStats::from_samples(&samples);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!((s.p50.as_millis() - 50.0).abs() <= 1.5);
        assert!((s.p95.as_millis() - 95.0).abs() <= 1.5);
    }

    #[test]
    fn nearest_rank_is_exact_on_known_populations() {
        // n = 100, values 1..=100 ms: the q-quantile is exactly q·100 ms.
        let samples: Vec<Seconds> = (1..=100).map(|i| Seconds::from_millis(i as f64)).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.p50.as_millis(), 50.0);
        assert_eq!(s.p95.as_millis(), 95.0);
        assert_eq!(s.p99.as_millis(), 99.0);

        // n = 10: ⌈0.5·10⌉ = 5, ⌈0.95·10⌉ = ⌈0.99·10⌉ = 10.
        let samples: Vec<Seconds> = (1..=10).map(|i| Seconds::from_millis(i as f64)).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.p50.as_millis(), 5.0);
        assert_eq!(s.p95.as_millis(), 10.0);
        assert_eq!(s.p99.as_millis(), 10.0);
    }

    #[test]
    fn nearest_rank_never_selects_below_the_quantile() {
        // n = 67 is the `.round()` regression: (66·0.99).round() = 65 picks
        // the 66th value, below the 99th percentile. Ceil-based nearest
        // rank picks ⌈0.99·67⌉ = 67.
        let samples: Vec<Seconds> = (1..=67).map(|i| Seconds::from_millis(i as f64)).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.p99.as_millis(), 67.0);
        for n in 1..=300usize {
            let samples: Vec<Seconds> = (1..=n).map(|i| Seconds::from_millis(i as f64)).collect();
            let s = LatencyStats::from_samples(&samples);
            for (q, v) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
                let at_or_below = v.as_millis() as usize;
                assert!(
                    at_or_below as f64 >= (q * n as f64).ceil() - 0.5,
                    "n={n} q={q}: picked {at_or_below}"
                );
            }
        }
    }

    #[test]
    fn report_counts_throughput() {
        let outcomes: Vec<RequestOutcome> = (0..10).map(|i| outcome(i, 50.0, 20.0)).collect();
        let counters = EngineCounters {
            mean_batch: 4.0,
            peak_batch: 8,
            preemptions: 2,
            mean_queue_depth: 1.5,
            peak_queue_depth: 4,
            peak_kv_tokens: 9000,
            ..Default::default()
        };
        let report = QosReport::from_outcomes(&outcomes, Seconds::new(5.0), counters);
        assert_eq!(report.completed, 10);
        assert!((report.requests_per_sec - 2.0).abs() < 1e-9);
        assert!((report.tokens_per_sec - 20.0).abs() < 1e-9);
        assert_eq!(report.preemptions, 2);
        assert_eq!(report.peak_queue_depth, 4);
        assert_eq!(report.peak_kv_tokens, 9000);
    }

    #[test]
    fn goodput_counts_only_slo_met_requests() {
        use crate::Slo;
        // Four 10-token requests over 1 s: one meets its strict SLO, one
        // misses it on TBT, one misses on TTFT, one has no contract (and
        // therefore counts as met).
        let tag = |o: RequestOutcome| RequestOutcome {
            request: o.request.with_slo(Slo::strict()),
            ..o
        };
        let outcomes = vec![
            tag(outcome(0, 100.0, 20.0)),
            tag(outcome(1, 100.0, 40.0)),
            tag(outcome(2, 3000.0, 20.0)),
            outcome(3, 60_000.0, 500.0),
        ];
        let report =
            QosReport::from_outcomes(&outcomes, Seconds::new(1.0), EngineCounters::default());
        assert!((report.tokens_per_sec - 40.0).abs() < 1e-9);
        assert!((report.goodput_tokens_per_sec - 20.0).abs() < 1e-9);
        assert!(report.goodput_tokens_per_sec <= report.tokens_per_sec);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_population_rejected() {
        let _ = LatencyStats::from_samples(&[]);
    }

    #[test]
    fn report_merge_sums_counts_and_maxes_peaks() {
        let mk = |n: usize, makespan: f64, batch: f64| {
            let outcomes: Vec<RequestOutcome> =
                (0..n as u64).map(|i| outcome(i, 50.0, 20.0)).collect();
            let report = QosReport::from_outcomes(
                &outcomes,
                Seconds::new(makespan),
                EngineCounters {
                    mean_batch: batch,
                    peak_batch: n,
                    preemptions: 1,
                    mean_queue_depth: batch / 2.0,
                    peak_queue_depth: n / 2,
                    peak_kv_tokens: 100 * n,
                    prefilled_tokens: 50 * n,
                    prefix_hit_tokens: 10 * n,
                    prefix_miss_tokens: 30 * n,
                    prefix_evicted_tokens: n,
                    generated_tokens: 10 * n,
                    drafted_tokens: 20 * n,
                    accepted_tokens: 15 * n,
                    rejected_tokens: 5 * n,
                },
            );
            (report, outcomes)
        };
        let (a, a_outcomes) = mk(10, 5.0, 4.0);
        let (b, b_outcomes) = mk(30, 10.0, 8.0);
        let pooled: Vec<RequestOutcome> = a_outcomes.iter().chain(&b_outcomes).copied().collect();
        let fleet = QosReport::merge(&[a.clone(), b], &pooled);
        assert_eq!(fleet.completed, 40);
        assert_eq!(fleet.makespan, Seconds::new(10.0));
        assert_eq!(fleet.preemptions, 2);
        assert_eq!(fleet.peak_batch, 30);
        assert_eq!(fleet.peak_kv_tokens, 3000);
        // Prefix/prefill token counters sum across replicas.
        assert_eq!(fleet.prefilled_tokens, 50 * 40);
        assert_eq!(fleet.prefix_hit_tokens, 10 * 40);
        assert_eq!(fleet.prefix_miss_tokens, 30 * 40);
        assert_eq!(fleet.prefix_evicted_tokens, 40);
        assert!((fleet.prefix_hit_rate() - 0.25).abs() < 1e-12);
        // Speculation counters sum; realized acceptance is their ratio.
        assert_eq!(fleet.generated_tokens, 10 * 40);
        assert_eq!(fleet.drafted_tokens, 20 * 40);
        assert_eq!(
            fleet.drafted_tokens,
            fleet.accepted_tokens + fleet.rejected_tokens
        );
        assert!((fleet.acceptance_rate() - 0.75).abs() < 1e-12);
        // Goodput merges like tokens: every outcome here meets (or has
        // no) SLO, so goodput equals token throughput.
        assert!((fleet.goodput_tokens_per_sec - fleet.tokens_per_sec).abs() < 1e-9);
        // 40 requests over the 10 s fleet makespan.
        assert!((fleet.requests_per_sec - 4.0).abs() < 1e-9);
        // Tokens: 40 pooled requests of 10 tokens over the 10 s makespan.
        assert!((fleet.tokens_per_sec - 40.0).abs() < 1e-9);
        // Makespan-weighted means: (4·5 + 8·10)/15.
        assert!((fleet.mean_batch - 100.0 / 15.0).abs() < 1e-9);
        // A single-report merge is the identity.
        assert_eq!(QosReport::merge(std::slice::from_ref(&a), &a_outcomes), a);
    }

    #[test]
    fn one_report_merge_keeps_its_own_means() {
        // Weighting a lone report by its own makespan would not round-trip
        // these means: 0.1 × 3.0 / 3.0 = 0.10000000000000002.
        let (mean, span) = (0.1, 3.0);
        assert_ne!(mean * span / span, mean);
        let outcomes: Vec<RequestOutcome> = (0..5).map(|i| outcome(i, 50.0, 20.0)).collect();
        let counters = EngineCounters {
            mean_batch: mean,
            mean_queue_depth: mean,
            ..Default::default()
        };
        let report = QosReport::from_outcomes(&outcomes, Seconds::new(span), counters);
        assert_eq!(
            QosReport::merge(std::slice::from_ref(&report), &outcomes),
            report
        );
    }

    #[test]
    #[should_panic(expected = "no completed requests")]
    fn report_merge_rejects_empty() {
        let _ = QosReport::merge(&[], &[]);
    }

    #[test]
    fn merge_recovers_the_union_population() {
        // Two deliberately imbalanced replicas: one holds the fast 90 % of
        // the population, the other the slow tail. The merge must equal a
        // single-engine report over the pooled population on the fleet
        // makespan, not a bound over replicas.
        let fast: Vec<RequestOutcome> = (1..=90).map(|i| outcome(i, i as f64, 10.0)).collect();
        let slow: Vec<RequestOutcome> = (91..=100)
            .map(|i| outcome(i, i as f64 * 10.0, 10.0))
            .collect();
        let a = QosReport::from_outcomes(&fast, Seconds::new(4.0), EngineCounters::default());
        let b = QosReport::from_outcomes(&slow, Seconds::new(9.0), EngineCounters::default());
        let pooled: Vec<RequestOutcome> = fast.iter().chain(&slow).copied().collect();

        let merged = QosReport::merge(&[a, b.clone()], &pooled);
        let truth = QosReport::from_outcomes(&pooled, Seconds::new(9.0), EngineCounters::default());
        assert_eq!(merged, truth);
        // The slow replica's median is not the fleet's.
        assert!(merged.ttft.p50 < b.ttft.p50);
    }

    #[test]
    #[should_panic(expected = "pooled outcomes")]
    fn merge_rejects_more_outcomes_than_the_reports_completed() {
        let outcomes: Vec<RequestOutcome> = (0..4).map(|i| outcome(i, 50.0, 20.0)).collect();
        let report =
            QosReport::from_outcomes(&outcomes[..2], Seconds::new(1.0), EngineCounters::default());
        let _ = QosReport::merge(&[report], &outcomes);
    }
}
