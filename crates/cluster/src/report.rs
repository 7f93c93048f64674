//! Fleet-wide QoS aggregation: per-tenant attainment, per-replica
//! utilization imbalance, and the merged engine-level report.

use ador_serving::{LatencyStats, QosReport, RequestOutcome, Slo};
use ador_telemetry::{AttributionReport, Event, TimeSeries};
use ador_units::{conv, Seconds};

use crate::{PoolRole, RouterPolicy};

/// QoS of one tenant class across the whole fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQos {
    /// Class name (from the [`TenantMix`](crate::TenantMix)).
    pub name: String,
    /// Requests the class submitted to the cluster.
    pub submitted: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests shed by admission control.
    pub rejected: usize,
    /// The class's SLO contract.
    pub slo: Slo,
    /// Completed requests whose lifecycle met the SLO.
    pub slo_met: usize,
    /// SLO attainment: met / (completed + rejected). Shed requests count
    /// as misses — a rejected user got no service at all.
    pub attainment: f64,
    /// TTFT stats over the class's completed requests (`None` if none
    /// completed).
    pub ttft: Option<LatencyStats>,
    /// Mean-TBT stats over the class's completed requests.
    pub tbt: Option<LatencyStats>,
}

impl TenantQos {
    /// Summarizes one class from its completed outcomes and shed count,
    /// in one pass over the outcomes.
    pub fn from_outcomes<'o>(
        name: impl Into<String>,
        slo: Slo,
        outcomes: impl IntoIterator<Item = &'o RequestOutcome>,
        submitted: usize,
        rejected: usize,
    ) -> Self {
        let (mut ttfts, mut tbts) = (Vec::new(), Vec::new());
        let mut slo_met = 0;
        for o in outcomes {
            ttfts.push(o.ttft);
            tbts.push(o.mean_tbt);
            slo_met += usize::from(slo.met(o));
        }
        let completed = ttfts.len();
        let judged = completed + rejected;
        let attainment = if judged == 0 {
            0.0
        } else {
            conv::f64_from_usize(slo_met) / conv::f64_from_usize(judged)
        };
        let stats =
            |samples: Vec<Seconds>| (!samples.is_empty()).then(|| LatencyStats::from_vec(samples));
        Self {
            name: name.into(),
            submitted,
            completed,
            rejected,
            slo,
            slo_met,
            attainment,
            ttft: stats(ttfts),
            tbt: stats(tbts),
        }
    }
}

/// Observability artifacts of one cluster run, present on
/// [`FleetReport::telemetry`] only when the embedded engine config enabled
/// telemetry ([`SimConfig::with_telemetry`](ador_serving::SimConfig) —
/// `None` otherwise, so untraced reports compare bit-identically to
/// pre-telemetry ones).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTelemetry {
    /// Per-replica lifecycle event streams, in recording order. Replicas
    /// that traced nothing (or fleets tracing through a bounded flight
    /// recorder) hold what their sink retained.
    pub events: Vec<Vec<Event>>,
    /// Per-replica windowed time series (empty when no series interval
    /// was configured).
    pub series: Vec<TimeSeries>,
    /// Pool role of each entry in `series`, index-aligned: under
    /// disaggregation the prefill-pool and decode-pool streams stay
    /// separable (transfer backpressure shows up decode-side only), and
    /// aggregated fleets carry all-`Unified` tags.
    pub series_roles: Vec<PoolRole>,
    /// Per-tenant goodput (completed tokens/s) per window of
    /// `goodput_interval`, over the shared fleet clock. Empty when no
    /// series interval was configured.
    pub tenant_goodput: Vec<Vec<f64>>,
    /// The window width behind `tenant_goodput`.
    pub goodput_interval: Seconds,
    /// KV-handoff markers of a disaggregated run, time-ordered: each
    /// transfer contributes a
    /// [`KvTransferStart`](ador_telemetry::EventKind::KvTransferStart)
    /// stamped on its prefill replica at context departure and a
    /// [`KvTransferEnd`](ador_telemetry::EventKind::KvTransferEnd)
    /// stamped on its decode replica at maturity, as `(replica, event)`
    /// pairs. Empty for aggregated topologies.
    pub transfer_events: Vec<(usize, Event)>,
}

/// Time-loss attribution of one cluster run (see
/// [`ador_telemetry::attribution`]): per-tenant and fleet-wide blame
/// ledgers built by replaying the recorded event streams. The fleet
/// report is the exact merge of the tenant reports — integer
/// nanoseconds end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAttribution {
    /// Per-tenant blame, indexed like the mix's classes.
    pub per_tenant: Vec<AttributionReport>,
    /// The whole-fleet ledger (exact merge of `per_tenant`).
    pub fleet: AttributionReport,
}

/// The QoS report of one cluster run: the fleet total, its per-replica and
/// per-tenant breakdowns, and the routing trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Engine replicas in the fleet.
    pub replicas: usize,
    /// The routing policy that produced this report (the prefill-pool
    /// policy under disaggregation).
    pub policy: RouterPolicy,
    /// The decode-pool routing policy — `Some` exactly for disaggregated
    /// runs.
    pub decode_policy: Option<RouterPolicy>,
    /// Requests offered to the cluster.
    pub submitted: usize,
    /// Requests that completed end-to-end. Under disaggregation a
    /// request counts once its decode half finishes and the halves are
    /// stitched.
    pub completed: usize,
    /// Requests shed by admission control.
    pub rejected: usize,
    /// The merged engine-level report, or `None` if nothing completed.
    /// Built via [`QosReport::merge`] from the pooled end-to-end outcomes
    /// on the shared fleet clock, so its latency percentiles are exact
    /// union percentiles and its makespan/throughput never mix
    /// per-replica timelines.
    pub fleet: Option<QosReport>,
    /// Per-replica reports; `None` for replicas that completed nothing.
    pub per_replica: Vec<Option<QosReport>>,
    /// Per-tenant breakdowns, indexed like the mix's classes.
    pub tenants: Vec<TenantQos>,
    /// The routing trace: for each offered request id, the replica it was
    /// assigned to (`None` if shed). Two runs with the same seed and
    /// policy produce identical traces.
    pub assignments: Vec<(u64, Option<usize>)>,
    /// Per-replica utilization imbalance: the population coefficient of
    /// variation (σ/μ) of processed tokens per replica. 0 is a perfectly
    /// even spread; RoundRobin on heavy-tailed traffic runs well above
    /// the adaptive policies.
    pub imbalance: f64,
    /// KV-context transfers a disaggregated run shipped between pools
    /// (0 for aggregated topologies).
    pub kv_transfers: usize,
    /// Total context tokens those transfers moved across the link.
    pub kv_transferred_tokens: u64,
    /// Observability artifacts (event streams, time series, per-tenant
    /// goodput), or `None` when the run was untraced.
    pub telemetry: Option<FleetTelemetry>,
    /// SLO-miss attribution, present only when the telemetry config
    /// opted in ([`TelemetryConfig::with_attribution`](ador_telemetry::TelemetryConfig))
    /// on top of an event sink — `None` otherwise, so plain traced
    /// reports stay bit-identical to earlier releases.
    pub attribution: Option<FleetAttribution>,
}

impl FleetReport {
    /// Fleet-wide SLO attainment: the request-weighted mean over tenants
    /// (shed requests counting as misses).
    pub fn fleet_attainment(&self) -> f64 {
        let judged: usize = self.tenants.iter().map(|t| t.completed + t.rejected).sum();
        if judged == 0 {
            return 0.0;
        }
        let met: usize = self.tenants.iter().map(|t| t.slo_met).sum();
        conv::f64_from_usize(met) / conv::f64_from_usize(judged)
    }
}

/// Population coefficient of variation of per-replica processed-token
/// counts.
pub(crate) fn imbalance(tokens_per_replica: &[f64]) -> f64 {
    if tokens_per_replica.is_empty() {
        return 0.0;
    }
    let n = conv::f64_from_usize(tokens_per_replica.len());
    let mean = tokens_per_replica.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = tokens_per_replica
        .iter()
        .map(|t| (t - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_serving::Request;

    fn outcome(ttft_ms: f64, tbt_ms: f64) -> RequestOutcome {
        RequestOutcome {
            request: Request::new(0, Seconds::ZERO, 100, 10),
            ttft: Seconds::from_millis(ttft_ms),
            mean_tbt: Seconds::from_millis(tbt_ms),
            max_tbt: Seconds::from_millis(tbt_ms * 1.5),
            e2e: Seconds::from_millis(ttft_ms + 10.0 * tbt_ms),
        }
    }

    #[test]
    fn attainment_counts_rejections_as_misses() {
        // 3 met, 1 missed, 1 shed → 3/5.
        let outcomes = vec![
            outcome(100.0, 10.0),
            outcome(100.0, 10.0),
            outcome(100.0, 10.0),
            outcome(100.0, 60.0),
        ];
        let t = TenantQos::from_outcomes("chat", Slo::strict(), &outcomes, 5, 1);
        assert_eq!(t.slo_met, 3);
        assert!((t.attainment - 0.6).abs() < 1e-12);
        assert!(t.ttft.is_some());
    }

    #[test]
    fn empty_tenant_has_zero_attainment_and_no_stats() {
        let t = TenantQos::from_outcomes("idle", Slo::relaxed(), &[], 0, 0);
        assert_eq!(t.attainment, 0.0);
        assert!(t.ttft.is_none() && t.tbt.is_none());
    }

    #[test]
    fn imbalance_is_zero_when_even_and_grows_with_skew() {
        assert_eq!(imbalance(&[1000.0, 1000.0, 1000.0]), 0.0);
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 0.0);
        let even = imbalance(&[900.0, 1000.0, 1100.0]);
        let skew = imbalance(&[100.0, 1000.0, 1900.0]);
        assert!(skew > even && even > 0.0);
    }
}
