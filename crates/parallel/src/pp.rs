//! Pipeline parallelism: whole layers per device (paper Fig. 7b — "PP
//! provides no latency benefits due to pipelining").

use core::fmt;

use ador_noc::P2pLink;
use ador_units::{Bytes, Seconds};

/// A pipeline-parallel plan over `stages` devices, each owning a contiguous
/// slice of layers.
///
/// # Examples
///
/// ```
/// use ador_parallel::PipelineParallel;
/// use ador_noc::P2pLink;
/// use ador_units::{Bytes, Seconds};
///
/// let pp = PipelineParallel::new(4);
/// let single = Seconds::from_millis(20.0);
/// // Latency does not improve (it even gains hand-off hops)...
/// assert!(pp.token_latency(single, Bytes::from_kib(8), P2pLink::pcie4_x16()) >= single);
/// // ...but steady-state throughput scales with the stage count.
/// assert!(pp.throughput_scaling(64) > 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineParallel {
    /// Pipeline stages (devices).
    pub stages: usize,
}

impl PipelineParallel {
    /// Creates a pipeline of `stages` devices.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new(stages: usize) -> Self {
        assert!(stages > 0, "pipeline needs at least one stage");
        Self { stages }
    }

    /// Latency of one token through the whole pipeline: the single-device
    /// latency (the same layers still run serially) plus one activation
    /// hand-off per stage boundary.
    pub fn token_latency(
        &self,
        single_device_latency: Seconds,
        boundary_activation: Bytes,
        link: P2pLink,
    ) -> Seconds {
        let hops = (self.stages - 1) as f64;
        single_device_latency + link.transfer_time(boundary_activation) * hops
    }

    /// Steady-state throughput multiplier with `in_flight` microbatches:
    /// the classic `stages · m / (m + stages − 1)` pipeline-fill law.
    pub fn throughput_scaling(&self, in_flight: usize) -> f64 {
        assert!(in_flight > 0, "need at least one microbatch in flight");
        let s = self.stages as f64;
        let m = in_flight as f64;
        s * m / (m + s - 1.0)
    }

    /// Fraction of device-cycles lost to pipeline fill/drain bubbles.
    pub fn bubble_fraction(&self, in_flight: usize) -> f64 {
        1.0 - self.throughput_scaling(in_flight) / self.stages as f64
    }

    /// Per-device share of `layers` decoder layers (the last stage takes
    /// the remainder).
    pub fn layers_per_stage(&self, layers: usize) -> Vec<usize> {
        let base = layers / self.stages;
        let extra = layers % self.stages;
        (0..self.stages)
            .map(|i| base + usize::from(i < extra))
            .collect()
    }
}

impl fmt::Display for PipelineParallel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PP={}", self.stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn latency_never_improves() {
        // The paper's Fig. 7b point: PP gives no latency benefit.
        let single = Seconds::from_millis(10.0);
        for stages in [1, 2, 4, 8] {
            let pp = PipelineParallel::new(stages);
            let t = pp.token_latency(single, Bytes::from_kib(8), P2pLink::pcie4_x16());
            assert!(t >= single);
        }
    }

    #[test]
    fn throughput_approaches_stage_count() {
        let pp = PipelineParallel::new(8);
        assert!(pp.throughput_scaling(1) < 1.01);
        assert!(pp.throughput_scaling(1024) > 7.9);
    }

    #[test]
    fn layer_split_is_balanced() {
        let pp = PipelineParallel::new(3);
        assert_eq!(pp.layers_per_stage(32), vec![11, 11, 10]);
        let total: usize = pp.layers_per_stage(80).iter().sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn bubble_shrinks_with_in_flight_work() {
        let pp = PipelineParallel::new(4);
        assert!(pp.bubble_fraction(2) > pp.bubble_fraction(16));
    }

    proptest! {
        #[test]
        fn scaling_bounded_by_stages(s in 1usize..64, m in 1usize..256) {
            let pp = PipelineParallel::new(s);
            let x = pp.throughput_scaling(m);
            prop_assert!(x >= 1.0 - 1e-9 || s == 1);
            prop_assert!(x <= s as f64 + 1e-9);
        }

        #[test]
        fn layers_conserved(s in 1usize..32, l in 1usize..200) {
            let total: usize = PipelineParallel::new(s).layers_per_stage(l).iter().sum();
            prop_assert_eq!(total, l);
        }
    }
}
