//! Fleet capacity search: the largest aggregate request rate a cluster
//! sustains while every tenant class keeps its SLO attainment.

use ador_hw::Architecture;
use ador_model::ModelConfig;
use ador_perf::Deployment;
use ador_serving::{bisect_rate, SimError};

use crate::{ClusterConfig, ClusterSim, FleetReport, TenantMix};

/// Result of a fleet capacity search.
#[derive(Debug, Clone)]
pub struct ClusterCapacityResult {
    /// Largest aggregate arrival rate (req/s across all tenants) that met
    /// the attainment target.
    pub rate: f64,
    /// The fleet report measured at that rate.
    pub report: FleetReport,
}

/// Bisects the aggregate arrival rate (via
/// [`TenantMix::with_aggregate_rate`], preserving per-class shares and
/// burst structure) for the largest load at which **every** tenant class
/// keeps `attainment >= min_attainment` and nothing is shed. Reuses the
/// same bracketing search as the single-engine Fig. 16 capacity
/// ([`ador_serving::bisect_rate`]).
///
/// `lo` must be sustainable; if even `lo` misses the target, the result
/// rate is `0.0` with the `lo` report attached.
///
/// # Errors
///
/// Returns [`SimError::InvalidBounds`] unless `0 < lo < hi`, and
/// propagates cluster construction/run errors.
///
/// # Examples
///
/// ```no_run
/// use ador_cluster::{cluster_capacity, ClusterConfig, RouterPolicy, TenantClass, TenantMix};
/// use ador_perf::Deployment;
///
/// let arch = ador_baselines::ador_table3();
/// let model = ador_model::presets::llama3_8b();
/// let mix = TenantMix::new(vec![TenantClass::chatbot(1.0)]);
/// let cfg = ClusterConfig::new(4, RouterPolicy::JoinShortestQueue);
/// let cap = cluster_capacity(
///     &arch, &model, Deployment::single_device(), cfg,
///     &mix, 200, 7, 0.9, (1.0, 80.0), 6,
/// )?;
/// assert!(cap.rate > 0.0);
/// # Ok::<(), ador_serving::SimError>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn cluster_capacity(
    arch: &Architecture,
    model: &ModelConfig,
    deployment: Deployment,
    cfg: ClusterConfig,
    mix: &TenantMix,
    requests: usize,
    seed: u64,
    min_attainment: f64,
    bounds: (f64, f64),
    iterations: usize,
) -> Result<ClusterCapacityResult, SimError> {
    let (rate, report) = bisect_rate(bounds, iterations, |rate| -> Result<_, SimError> {
        let scaled = mix.clone().with_aggregate_rate(rate);
        let report = ClusterSim::new(arch, model, deployment, cfg)?.run(&scaled, requests, seed)?;
        let ok = report.rejected == 0
            && report
                .tenants
                .iter()
                .all(|t| t.attainment >= min_attainment);
        Ok((ok, report))
    })?;
    Ok(ClusterCapacityResult { rate, report })
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::{RouterPolicy, TenantClass};
    use ador_baselines::ador_table3;
    use ador_model::presets;

    fn capacity(replicas: usize) -> ClusterCapacityResult {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = TenantMix::new(vec![
            TenantClass::chatbot(3.0),
            TenantClass::code_completion(1.0),
        ]);
        cluster_capacity(
            &arch,
            &model,
            Deployment::single_device(),
            ClusterConfig::new(replicas, RouterPolicy::JoinShortestQueue),
            &mix,
            120,
            13,
            0.9,
            (0.5, 80.0),
            5,
        )
        .unwrap()
    }

    #[test]
    fn more_replicas_sustain_more_aggregate_load() {
        let one = capacity(1);
        let four = capacity(4);
        assert!(one.rate > 0.0, "one replica must sustain the 0.5 floor");
        assert!(
            four.rate > one.rate * 1.5,
            "4 replicas {:.1} req/s vs 1 replica {:.1} req/s",
            four.rate,
            one.rate
        );
    }

    #[test]
    fn search_is_deterministic() {
        let a = capacity(2);
        let b = capacity(2);
        assert_eq!(a.rate, b.rate);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn bad_bounds_propagate() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = TenantMix::new(vec![TenantClass::chatbot(1.0)]);
        let err = cluster_capacity(
            &arch,
            &model,
            Deployment::single_device(),
            ClusterConfig::new(1, RouterPolicy::RoundRobin),
            &mix,
            40,
            1,
            0.9,
            (5.0, 2.0),
            3,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidBounds { .. }));
    }
}
