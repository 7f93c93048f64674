//! Per-architecture execution-efficiency profiles.
//!
//! The performance model is shared by every design we evaluate; what
//! differs between an ADOR device, a GPU and a TPU is *how much of the spec*
//! each one achieves on each traffic class. A [`PerfProfile`] captures those
//! calibrated efficiencies; each constructor cites the paper section its
//! numbers come from.

use ador_units::{Bandwidth, FlopCount, Seconds, Utilization};

use crate::memory::EffectiveBandwidthModel;

/// How an architecture's achieved DRAM bandwidth relates to the spec when
/// streaming a given traffic class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamLaw {
    /// The Fig. 10 measured law: utilization grows logarithmically with the
    /// per-device op count (ADOR's MAC tree streaming directly from DRAM).
    Measured(EffectiveBandwidthModel),
    /// A fixed utilization (e.g. the paper's "<60 %" for GPUs whose SMT
    /// control path can't keep HBM busy, §III-A).
    Fixed(Utilization),
}

impl StreamLaw {
    /// The measured law with default calibration.
    pub fn measured() -> Self {
        StreamLaw::Measured(EffectiveBandwidthModel::default())
    }

    /// A fixed-utilization law.
    ///
    /// # Panics
    ///
    /// Panics if `util` is outside `[0, 1]`.
    pub fn fixed(util: f64) -> Self {
        StreamLaw::Fixed(Utilization::new(util))
    }

    /// Utilization for a step of `ops` operations per device.
    pub fn utilization(&self, ops: FlopCount) -> Utilization {
        match self {
            StreamLaw::Measured(model) => model.utilization(ops),
            StreamLaw::Fixed(util) => *util,
        }
    }

    /// Effective bandwidth for a step of `ops` operations per device.
    pub fn effective(&self, spec: Bandwidth, ops: FlopCount) -> Bandwidth {
        spec.derated(self.utilization(ops))
    }
}

/// Calibrated execution efficiencies for one architecture.
///
/// # Examples
///
/// ```
/// use ador_hw::PerfProfile;
///
/// let ador = PerfProfile::ador_template();
/// let gpu = PerfProfile::gpu();
/// // The template streams weights through the measured Fig. 10 law; the
/// // GPU is pinned at the paper's sub-60 % utilization.
/// let big = ador_units::FlopCount::new(1e12);
/// assert!(ador.weight_stream.utilization(big) > gpu.weight_stream.utilization(big));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfProfile {
    /// DRAM utilization when streaming model weights sequentially.
    pub weight_stream: StreamLaw,
    /// DRAM utilization when reading KV-cache pages (scattered at high
    /// batch, which is what hurts GPUs most).
    pub attention_stream: StreamLaw,
    /// Fraction of peak FLOPS achieved on large GEMMs, on top of the cycle
    /// model (control, memory stalls, wave quantization).
    pub gemm_efficiency: Utilization,
    /// Fixed per-operator overhead (kernel launch / instruction dispatch /
    /// core synchronization).
    pub op_overhead: Seconds,
}

impl PerfProfile {
    /// The ADOR template profile: measured streaming law on both classes,
    /// near-ideal GEMM issue, sub-microsecond dispatch (dedicated
    /// instruction streams, no kernel launches).
    pub fn ador_template() -> Self {
        Self {
            weight_stream: StreamLaw::measured(),
            attention_stream: StreamLaw::measured(),
            gemm_efficiency: Utilization::new(0.95),
            op_overhead: Seconds::from_micros(0.5),
        }
    }

    /// GPU profile (paper §III-A): sub-60 % HBM utilization on weight
    /// streams, worse on scattered KV pages at batch, ~62 % of peak on
    /// GEMMs, and per-kernel launch overhead.
    pub fn gpu() -> Self {
        Self {
            weight_stream: StreamLaw::fixed(0.55),
            attention_stream: StreamLaw::fixed(0.40),
            gemm_efficiency: Utilization::new(0.62),
            op_overhead: Seconds::from_micros(4.0),
        }
    }

    /// Systolic-NPU profile (TPU-like, paper Fig. 4b: "TPU's memory
    /// bandwidth utilization is worse compared to the GPU").
    pub fn systolic_npu() -> Self {
        Self {
            weight_stream: StreamLaw::fixed(0.50),
            attention_stream: StreamLaw::fixed(0.45),
            gemm_efficiency: Utilization::new(0.90),
            op_overhead: Seconds::from_micros(1.0),
        }
    }

    /// Streaming all-SRAM profile (Groq-TSP-like): deterministic dataflow
    /// keeps the on-chip stream near spec.
    pub fn streaming_sram() -> Self {
        Self {
            weight_stream: StreamLaw::fixed(0.95),
            attention_stream: StreamLaw::fixed(0.95),
            gemm_efficiency: Utilization::new(0.80),
            op_overhead: Seconds::from_micros(0.2),
        }
    }

    /// Looks up a calibrated profile by (case-insensitive) name —
    /// `"ador"`, `"gpu"`, `"systolic-npu"` or `"streaming-sram"` — so
    /// fleet specs and search configs can name profiles instead of
    /// hard-wiring constructors.
    ///
    /// # Examples
    ///
    /// ```
    /// use ador_hw::PerfProfile;
    ///
    /// assert_eq!(PerfProfile::by_name("GPU"), Some(PerfProfile::gpu()));
    /// assert!(PerfProfile::by_name("unknown").is_none());
    /// ```
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "ador" | "ador-template" => Some(Self::ador_template()),
            "gpu" => Some(Self::gpu()),
            "systolic-npu" => Some(Self::systolic_npu()),
            "streaming-sram" => Some(Self::streaming_sram()),
            _ => None,
        }
    }
}

impl Default for PerfProfile {
    fn default() -> Self {
        Self::ador_template()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_law_ignores_ops() {
        let law = StreamLaw::fixed(0.55);
        assert_eq!(law.utilization(FlopCount::new(1.0)).get(), 0.55);
        assert_eq!(law.utilization(FlopCount::new(1e13)).get(), 0.55);
    }

    #[test]
    fn measured_law_grows() {
        let law = StreamLaw::measured();
        assert!(law.utilization(FlopCount::new(1e12)) > law.utilization(FlopCount::new(1e9)));
    }

    #[test]
    fn gpu_attention_is_the_weak_spot() {
        let gpu = PerfProfile::gpu();
        let ops = FlopCount::new(1e11);
        assert!(gpu.attention_stream.utilization(ops) < gpu.weight_stream.utilization(ops));
    }

    #[test]
    fn template_dispatch_beats_kernel_launch() {
        assert!(PerfProfile::ador_template().op_overhead < PerfProfile::gpu().op_overhead);
    }
}
