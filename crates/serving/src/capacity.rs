//! Maximum-capacity search: the largest sustainable request rate under an
//! SLO (paper Fig. 16).

use ador_hw::Architecture;
use ador_model::ModelConfig;
use ador_perf::Deployment;

use crate::{QosReport, ServingSim, SimConfig, SimError, Slo, TraceProfile};

/// Result of a capacity search.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// Largest arrival rate (req/s) that met the SLO.
    pub rate: f64,
    /// The QoS report measured at that rate.
    pub report: QosReport,
}

/// Bisects the Poisson arrival rate for the largest load that still meets
/// `slo` (p95), between `lo` and `hi` req/s.
///
/// `lo` must be sustainable; if even `lo` violates the SLO the result rate
/// is `0.0` with the `lo` report attached so callers can inspect why.
///
/// # Errors
///
/// Returns [`SimError::InvalidBounds`] unless `0 < lo < hi`, and propagates
/// simulator construction/run errors.
///
/// # Examples
///
/// ```no_run
/// use ador_serving::{max_capacity, SimConfig, Slo, TraceProfile};
/// use ador_perf::Deployment;
///
/// let arch = ador_baselines::ador_table3();
/// let model = ador_model::presets::llama3_8b();
/// let cfg = SimConfig::new(1.0, 128).with_requests(150);
/// let cap = max_capacity(
///     &arch, &model, Deployment::single_device(), cfg,
///     TraceProfile::ultrachat_like(), Slo::relaxed(), (0.5, 40.0), 6,
/// )?;
/// assert!(cap.rate > 0.0);
/// # Ok::<(), ador_serving::SimError>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn max_capacity(
    arch: &Architecture,
    model: &ModelConfig,
    deployment: Deployment,
    base_cfg: SimConfig,
    profile: TraceProfile,
    slo: Slo,
    bounds: (f64, f64),
    iterations: usize,
) -> Result<CapacityResult, SimError> {
    let (rate, report) = bisect_rate(bounds, iterations, |rate| -> Result<_, SimError> {
        let cfg = base_cfg.with_arrival_rate(rate);
        let report = ServingSim::new(arch, model, deployment, cfg)?.run(profile)?;
        Ok((slo.attained(&report), report))
    })?;
    Ok(CapacityResult { rate, report })
}

/// Bisects an arrival-rate bracket for the largest rate whose probe
/// passes. The generic core of [`max_capacity`], shared with fleet-level
/// searches (`ador-cluster`'s `cluster_capacity`): `probe(rate)` runs a
/// simulation at that rate and returns whether its QoS criterion held,
/// plus the measurement to hand back to the caller.
///
/// `lo` must be sustainable; if even `lo` fails the probe, the result rate
/// is `0.0` with the `lo` measurement attached so callers can inspect why.
///
/// # Errors
///
/// Returns [`SimError::InvalidBounds`] (via `E: From<SimError>`) unless
/// `0 < lo < hi`, and propagates probe errors.
pub fn bisect_rate<T, E: From<SimError>>(
    (lo, hi): (f64, f64),
    iterations: usize,
    mut probe: impl FnMut(f64) -> Result<(bool, T), E>,
) -> Result<(f64, T), E> {
    if !(lo > 0.0 && hi > lo) {
        return Err(SimError::InvalidBounds { lo, hi }.into());
    }
    let (lo_ok, lo_measurement) = probe(lo)?;
    if !lo_ok {
        return Ok((0.0, lo_measurement));
    }
    let mut best = (lo, lo_measurement);
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        let (ok, measurement) = probe(mid)?;
        if ok {
            best = (mid, measurement);
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;
    use ador_baselines::ador_table3;
    use ador_model::presets;

    fn capacity(slo: Slo) -> CapacityResult {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(1.0, 128).with_requests(80).with_seed(5);
        max_capacity(
            &arch,
            &model,
            Deployment::single_device(),
            cfg,
            TraceProfile::ultrachat_like(),
            slo,
            (0.5, 60.0),
            5,
        )
        .unwrap()
    }

    #[test]
    fn relaxed_slo_allows_more_load_than_strict() {
        let strict = capacity(Slo::strict());
        let relaxed = capacity(Slo::relaxed());
        assert!(
            relaxed.rate >= strict.rate,
            "strict {:.1} vs relaxed {:.1}",
            strict.rate,
            relaxed.rate
        );
        assert!(relaxed.rate > 1.0, "{:.2}", relaxed.rate);
    }

    #[test]
    fn capacity_search_is_deterministic() {
        // The bisection replays the same seeded trace at every probe rate,
        // so the whole search is a pure function of its inputs.
        let a = capacity(Slo::strict());
        let b = capacity(Slo::strict());
        assert_eq!(a.rate, b.rate);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn impossible_slo_reports_zero() {
        let r = capacity(Slo::tbt_only(ador_units::Seconds::from_micros(1.0)));
        assert_eq!(r.rate, 0.0);
    }

    #[test]
    fn bad_bounds_are_an_error_not_a_panic() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        for bounds in [(5.0, 2.0), (0.0, 10.0), (-1.0, 1.0), (3.0, 3.0)] {
            let err = max_capacity(
                &arch,
                &model,
                Deployment::single_device(),
                SimConfig::new(1.0, 8),
                TraceProfile::short_chat(),
                Slo::strict(),
                bounds,
                3,
            )
            .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidBounds { .. }),
                "{bounds:?} -> {err}"
            );
        }
    }
}
