//! Roofline analysis: where a workload sits against an architecture's
//! compute and bandwidth ceilings.
//!
//! The prefill/decode dichotomy that motivates ADOR (paper §II) is exactly
//! a roofline story: prefill's arithmetic intensity sits far right of the
//! ridge (compute-bound), decode sits far left (bandwidth-bound), and
//! batching slides decode toward — but, because of per-request KV traffic,
//! never past — the ridge.

use core::fmt;

use ador_units::{Bandwidth, FlopRate};

use crate::Architecture;

/// Which ceiling binds at a given arithmetic intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RooflineBound {
    /// Left of the ridge: DRAM bandwidth limits throughput.
    Bandwidth,
    /// Right of the ridge: peak compute limits throughput.
    Compute,
}

impl fmt::Display for RooflineBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RooflineBound::Bandwidth => f.write_str("bandwidth-bound"),
            RooflineBound::Compute => f.write_str("compute-bound"),
        }
    }
}

/// A classic two-ceiling roofline for one device.
///
/// # Examples
///
/// ```
/// use ador_hw::roofline::Roofline;
/// use ador_units::{Bandwidth, FlopRate};
///
/// let r = Roofline::new(FlopRate::from_tflops(417.0), Bandwidth::from_tbps(2.0));
/// // LLaMA3-8B decode at batch 1 has intensity ~1 flop/byte: deep in the
/// // bandwidth region.
/// assert_eq!(r.bound(1.0), ador_hw::roofline::RooflineBound::Bandwidth);
/// // Prefill at 1K tokens is hundreds of flops/byte: compute-bound.
/// assert_eq!(r.bound(500.0), ador_hw::roofline::RooflineBound::Compute);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    peak: FlopRate,
    bandwidth: Bandwidth,
}

impl Roofline {
    /// Builds a roofline from a compute peak and a memory ceiling.
    pub fn new(peak: FlopRate, bandwidth: Bandwidth) -> Self {
        Self { peak, bandwidth }
    }

    /// The roofline of an architecture's datasheet ceilings.
    pub fn of(arch: &Architecture) -> Self {
        Self::new(arch.peak_flops(), arch.dram.bandwidth)
    }

    /// The compute ceiling.
    pub fn peak(&self) -> FlopRate {
        self.peak
    }

    /// The bandwidth ceiling.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The ridge point in FLOPs/byte: intensities below it are
    /// bandwidth-bound.
    pub fn ridge(&self) -> f64 {
        self.peak.get() / self.bandwidth.as_bytes_per_sec()
    }

    /// Attainable throughput at `intensity` FLOPs/byte.
    pub fn attainable(&self, intensity: f64) -> FlopRate {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "intensity must be non-negative"
        );
        FlopRate::new((self.bandwidth.as_bytes_per_sec() * intensity).min(self.peak.get()))
    }

    /// Which ceiling binds at `intensity`.
    pub fn bound(&self, intensity: f64) -> RooflineBound {
        if intensity < self.ridge() {
            RooflineBound::Bandwidth
        } else {
            RooflineBound::Compute
        }
    }
}

impl fmt::Display for Roofline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "roofline: {} / {} (ridge {:.1} flop/B)",
            self.peak,
            self.bandwidth,
            self.ridge()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table3() -> Roofline {
        Roofline::new(FlopRate::from_tflops(417.0), Bandwidth::from_tbps(2.0))
    }

    #[test]
    fn ridge_is_peak_over_bandwidth() {
        let r = table3();
        assert!((r.ridge() - 208.5).abs() < 0.5);
    }

    #[test]
    fn attainable_caps_at_peak() {
        let r = table3();
        assert_eq!(r.attainable(1e9), FlopRate::from_tflops(417.0));
        let low = r.attainable(1.0);
        assert!((low.as_tflops() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn decode_vs_prefill_classification() {
        let r = table3();
        // Decode at batch 1: ~2 flops/byte (weights streamed once per token).
        assert_eq!(r.bound(2.0), RooflineBound::Bandwidth);
        // Prefill: ~2·seq flops/byte.
        assert_eq!(r.bound(2048.0), RooflineBound::Compute);
    }

    proptest! {
        #[test]
        fn attainable_monotone(a in 0.0f64..1e6, b in 0.0f64..1e6) {
            let r = table3();
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(r.attainable(lo) <= r.attainable(hi));
        }

        #[test]
        fn bound_consistent_with_attainable(x in 0.001f64..1e6) {
            let r = table3();
            match r.bound(x) {
                RooflineBound::Compute => prop_assert_eq!(r.attainable(x), r.peak()),
                RooflineBound::Bandwidth => prop_assert!(r.attainable(x) < r.peak()),
            }
        }
    }
}
