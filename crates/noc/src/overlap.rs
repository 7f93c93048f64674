//! Computation–communication overlap (paper Fig. 6d and §V-C).
//!
//! The ADOR dataflow pipelines all-gather traffic behind GEMV compute: as
//! each final sum emerges from the MAC tree it is shipped while the next
//! one computes. The exposed synchronization time is therefore whatever the
//! wire cannot hide under the compute window — and solving that inequality
//! for bandwidth gives the *minimum* NoC/P2P spec, which is exactly how the
//! paper derives its "32 GB/s is sufficient" claim.

use ador_units::{Bandwidth, Bytes, Seconds, Utilization};

/// Degree to which wire time hides under a compute window.
///
/// # Examples
///
/// ```
/// use ador_noc::OverlapModel;
/// use ador_units::Seconds;
///
/// let pipelined = OverlapModel::pipelined();
/// let comm = Seconds::from_millis(1.0);
/// let compute = Seconds::from_millis(3.0);
/// // Fully hidden: the step costs only the compute window.
/// assert_eq!(pipelined.step_time(compute, comm), compute);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapModel {
    /// Fraction of the compute window usable for hiding wire traffic.
    pub hiding: Utilization,
}

impl OverlapModel {
    /// Full pipelining (all-gather of final sums, Fig. 6d top).
    pub fn pipelined() -> Self {
        Self {
            hiding: Utilization::new(0.95),
        }
    }

    /// No overlap at all (all-reduce accumulation bubbles, Fig. 6d bottom).
    pub fn serialized() -> Self {
        Self {
            hiding: Utilization::IDLE,
        }
    }

    /// A custom hiding fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn new(fraction: f64) -> Self {
        Self {
            hiding: Utilization::new(fraction),
        }
    }

    /// Communication time left exposed after hiding under `compute`.
    pub fn exposed(&self, compute: Seconds, comm: Seconds) -> Seconds {
        let hidden = compute * self.hiding.get();
        if comm <= hidden {
            Seconds::ZERO
        } else {
            comm - hidden
        }
    }

    /// Total step time: compute plus exposed communication.
    pub fn step_time(&self, compute: Seconds, comm: Seconds) -> Seconds {
        compute + self.exposed(compute, comm)
    }
}

impl Default for OverlapModel {
    fn default() -> Self {
        Self::pipelined()
    }
}

/// The smallest link bandwidth that fully hides `sync_bytes` of traffic
/// under a `compute` window (paper §V-C: "determine the minimum bandwidth
/// required to ensure that computation and communication overlap
/// effectively").
///
/// # Panics
///
/// Panics if the compute window or hiding fraction is zero while traffic is
/// non-zero (no finite bandwidth can hide traffic under an empty window).
///
/// # Examples
///
/// ```
/// use ador_noc::{minimum_overlap_bandwidth, OverlapModel};
/// use ador_units::{Bytes, Seconds};
///
/// let bw = minimum_overlap_bandwidth(
///     Bytes::from_mib(2),
///     Seconds::from_micros(100.0),
///     OverlapModel::pipelined(),
/// );
/// assert!(bw.as_gbps() > 20.0 && bw.as_gbps() < 25.0);
/// ```
pub fn minimum_overlap_bandwidth(
    sync_bytes: Bytes,
    compute: Seconds,
    overlap: OverlapModel,
) -> Bandwidth {
    if sync_bytes.is_zero() {
        return Bandwidth::from_bytes_per_sec(0.0);
    }
    let window = compute * overlap.hiding.get();
    assert!(
        window.get() > 0.0,
        "cannot hide {sync_bytes} of traffic under an empty compute window"
    );
    Bandwidth::from_bytes_per_sec(sync_bytes.get() as f64 / window.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serialized_exposes_everything() {
        let m = OverlapModel::serialized();
        let comm = Seconds::from_millis(2.0);
        assert_eq!(m.exposed(Seconds::from_millis(10.0), comm), comm);
    }

    #[test]
    fn pipelined_hides_short_comm() {
        let m = OverlapModel::pipelined();
        assert_eq!(
            m.exposed(Seconds::from_millis(10.0), Seconds::from_millis(2.0)),
            Seconds::ZERO
        );
    }

    #[test]
    fn partial_exposure() {
        let m = OverlapModel::new(0.5);
        let exposed = m.exposed(Seconds::from_millis(10.0), Seconds::from_millis(7.0));
        assert!((exposed.as_millis() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn minimum_bandwidth_just_hides() {
        let bytes = Bytes::from_mib(4);
        let compute = Seconds::from_micros(200.0);
        let m = OverlapModel::pipelined();
        let bw = minimum_overlap_bandwidth(bytes, compute, m);
        let comm = bytes / bw;
        assert_eq!(m.exposed(compute, comm), Seconds::ZERO);
        // 1 % less bandwidth exposes some traffic.
        let comm_slow = bytes / (bw * 0.99);
        assert!(m.exposed(compute, comm_slow) > Seconds::ZERO);
    }

    #[test]
    fn zero_traffic_needs_no_bandwidth() {
        let bw = minimum_overlap_bandwidth(
            Bytes::ZERO,
            Seconds::from_micros(1.0),
            OverlapModel::pipelined(),
        );
        assert!(bw.is_zero());
    }

    proptest! {
        #[test]
        fn step_time_bounds(comp in 0.0f64..1.0, comm in 0.0f64..1.0, h in 0.0f64..=1.0) {
            let m = OverlapModel::new(h);
            let t = m.step_time(Seconds::new(comp), Seconds::new(comm));
            // Never better than pure compute, never worse than full serialization.
            prop_assert!(t.get() >= comp - 1e-12);
            prop_assert!(t.get() <= comp + comm + 1e-12);
        }

        #[test]
        fn more_hiding_never_hurts(comp in 0.001f64..1.0, comm in 0.0f64..1.0, h in 0.0f64..0.99) {
            let less = OverlapModel::new(h).step_time(Seconds::new(comp), Seconds::new(comm));
            let more = OverlapModel::new(h + 0.01).step_time(Seconds::new(comp), Seconds::new(comm));
            prop_assert!(more <= less);
        }
    }
}
