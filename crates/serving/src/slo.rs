//! Service-level objectives (paper Fig. 16: "Number of requests that can be
//! maximally processed under a given SLO").

use ador_units::Seconds;

use crate::QosReport;

/// A QoS target: p95 bounds on TTFT and/or TBT.
///
/// # Examples
///
/// ```
/// use ador_serving::Slo;
/// use ador_units::Seconds;
///
/// let strict = Slo::strict();
/// let relaxed = Slo::relaxed();
/// assert!(strict.tbt_max.unwrap() < relaxed.tbt_max.unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Maximum acceptable p95 time-to-first-token.
    pub ttft_max: Option<Seconds>,
    /// Maximum acceptable p95 time-between-tokens.
    pub tbt_max: Option<Seconds>,
}

impl Slo {
    /// The paper's strict chatbot SLO: 25 ms TBT.
    pub fn strict() -> Self {
        Self {
            ttft_max: Some(Seconds::from_millis(2000.0)),
            tbt_max: Some(Seconds::from_millis(25.0)),
        }
    }

    /// The paper's relaxed SLO: 50 ms TBT.
    pub fn relaxed() -> Self {
        Self {
            ttft_max: Some(Seconds::from_millis(4000.0)),
            tbt_max: Some(Seconds::from_millis(50.0)),
        }
    }

    /// An SLO bounding only TBT (the Fig. 16 sweep axis).
    pub fn tbt_only(tbt: Seconds) -> Self {
        Self {
            ttft_max: None,
            tbt_max: Some(tbt),
        }
    }

    /// Whether `report` meets this SLO at the 95th percentile.
    pub fn attained(&self, report: &QosReport) -> bool {
        let ttft_ok = self.ttft_max.is_none_or(|max| report.ttft.p95 <= max);
        let tbt_ok = self.tbt_max.is_none_or(|max| report.tbt.p95 <= max);
        ttft_ok && tbt_ok
    }

    /// Whether a single request's measured lifecycle meets this SLO
    /// (TTFT and mean TBT within the bounds). Per-tenant fleet attainment
    /// is the fraction of a tenant's requests for which this holds.
    pub fn met(&self, outcome: &crate::RequestOutcome) -> bool {
        let ttft_ok = self.ttft_max.is_none_or(|max| outcome.ttft <= max);
        let tbt_ok = self.tbt_max.is_none_or(|max| outcome.mean_tbt <= max);
        ttft_ok && tbt_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatencyStats, QosReport};

    fn report(ttft_ms: f64, tbt_ms: f64) -> QosReport {
        let stat = |ms: f64| {
            let s = Seconds::from_millis(ms);
            LatencyStats {
                mean: s,
                p50: s,
                p95: s,
                p99: s,
                max: s,
            }
        };
        QosReport {
            completed: 10,
            makespan: Seconds::new(1.0),
            ttft: stat(ttft_ms),
            tbt: stat(tbt_ms),
            e2e: stat(ttft_ms + 100.0 * tbt_ms),
            requests_per_sec: 10.0,
            tokens_per_sec: 1000.0,
            goodput_tokens_per_sec: 1000.0,
            mean_batch: 8.0,
            peak_batch: 16,
            preemptions: 0,
            mean_queue_depth: 0.0,
            peak_queue_depth: 0,
            peak_kv_tokens: 0,
            prefilled_tokens: 0,
            prefix_hit_tokens: 0,
            prefix_miss_tokens: 0,
            prefix_evicted_tokens: 0,
            generated_tokens: 0,
            drafted_tokens: 0,
            accepted_tokens: 0,
            rejected_tokens: 0,
        }
    }

    #[test]
    fn strict_rejects_slow_tbt() {
        assert!(Slo::strict().attained(&report(100.0, 20.0)));
        assert!(!Slo::strict().attained(&report(100.0, 30.0)));
        assert!(Slo::relaxed().attained(&report(100.0, 30.0)));
    }

    #[test]
    fn ttft_bound_applies() {
        assert!(!Slo::strict().attained(&report(3000.0, 10.0)));
    }

    #[test]
    fn per_request_check_matches_bounds() {
        use crate::{Request, RequestOutcome};
        let outcome = |ttft_ms: f64, tbt_ms: f64| RequestOutcome {
            request: Request::new(0, Seconds::ZERO, 10, 10),
            ttft: Seconds::from_millis(ttft_ms),
            mean_tbt: Seconds::from_millis(tbt_ms),
            max_tbt: Seconds::from_millis(tbt_ms),
            e2e: Seconds::from_millis(ttft_ms + 10.0 * tbt_ms),
        };
        assert!(Slo::strict().met(&outcome(100.0, 20.0)));
        assert!(!Slo::strict().met(&outcome(100.0, 30.0)));
        assert!(!Slo::strict().met(&outcome(3000.0, 20.0)));
        assert!(Slo::tbt_only(Seconds::from_millis(40.0)).met(&outcome(60_000.0, 39.0)));
    }

    #[test]
    fn tbt_only_ignores_ttft() {
        let slo = Slo::tbt_only(Seconds::from_millis(40.0));
        assert!(slo.attained(&report(60_000.0, 39.0)));
        assert!(!slo.attained(&report(1.0, 41.0)));
    }
}
