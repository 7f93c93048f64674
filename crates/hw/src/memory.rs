//! Off-chip memory specifications and the effective-bandwidth law.
//!
//! The paper's key empirical input (Fig. 10) is that a MAC tree streaming
//! weights from HBM achieves a *logarithmically increasing* fraction of the
//! spec bandwidth as the per-device workload grows — about 70 % around 10⁹
//! operations, rising to a 90 % ceiling past 10¹¹. The authors measured this
//! on an Alveo U55C FPGA; with no FPGA to measure on, we encode the
//! calibrated law directly.

use core::fmt;

use ador_units::{Bandwidth, Bytes, FlopCount, Utilization};

/// Off-chip (or on-chip, for Groq-style designs) memory technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// HBM2 (e.g. TPUv4, Alveo U55C).
    Hbm2,
    /// HBM2e (e.g. A100 80 GB).
    Hbm2e,
    /// HBM3 (e.g. H100 SXM).
    Hbm3,
    /// HBM3e.
    Hbm3e,
    /// LPDDR/DDR-class capacity memory.
    Lpddr,
    /// All-SRAM "memory" (Groq TSP keeps weights entirely on chip).
    OnChipSram,
}

impl fmt::Display for DramKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DramKind::Hbm2 => "HBM2",
            DramKind::Hbm2e => "HBM2e",
            DramKind::Hbm3 => "HBM3",
            DramKind::Hbm3e => "HBM3e",
            DramKind::Lpddr => "LPDDR",
            DramKind::OnChipSram => "SRAM",
        };
        f.write_str(s)
    }
}

/// A device's weight/KV memory: technology, capacity and spec bandwidth.
///
/// # Examples
///
/// ```
/// use ador_hw::memory::DramSpec;
/// use ador_units::{Bandwidth, Bytes};
///
/// let a100 = DramSpec::hbm2e(Bytes::from_gib(80), Bandwidth::from_tbps(2.0));
/// assert_eq!(a100.capacity, Bytes::from_gib(80));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramSpec {
    /// Memory technology.
    pub kind: DramKind,
    /// Total capacity.
    pub capacity: Bytes,
    /// Datasheet peak bandwidth.
    pub bandwidth: Bandwidth,
}

impl DramSpec {
    /// Creates a memory spec.
    pub fn new(kind: DramKind, capacity: Bytes, bandwidth: Bandwidth) -> Self {
        Self {
            kind,
            capacity,
            bandwidth,
        }
    }

    /// HBM2 convenience constructor.
    pub fn hbm2(capacity: Bytes, bandwidth: Bandwidth) -> Self {
        Self::new(DramKind::Hbm2, capacity, bandwidth)
    }

    /// HBM2e convenience constructor.
    pub fn hbm2e(capacity: Bytes, bandwidth: Bandwidth) -> Self {
        Self::new(DramKind::Hbm2e, capacity, bandwidth)
    }

    /// HBM3 convenience constructor.
    pub fn hbm3(capacity: Bytes, bandwidth: Bandwidth) -> Self {
        Self::new(DramKind::Hbm3, capacity, bandwidth)
    }

    /// Whether `bytes` of model + KV state fit in this memory.
    pub fn fits(&self, bytes: Bytes) -> bool {
        bytes <= self.capacity
    }
}

impl fmt::Display for DramSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} @ {}", self.kind, self.capacity, self.bandwidth)
    }
}

/// The Fig. 10 logarithmic effective-bandwidth law:
///
/// ```text
/// util(ops) = clamp(base + per_decade · (log10(ops) − 9), floor, ceiling)
/// ```
///
/// With the default calibration, utilization is 70 % at 10⁹ ops/device,
/// 80 % at 10¹⁰ and saturates at the paper's "up to 90 %" ceiling from
/// 10¹¹ — matching the trend line and the 70–80 % / 80–90 % regions the
/// paper draws through its OPT-family FPGA measurements.
///
/// # Examples
///
/// ```
/// use ador_hw::EffectiveBandwidthModel;
/// use ador_units::FlopCount;
///
/// let law = EffectiveBandwidthModel::default();
/// assert!((law.utilization(FlopCount::new(1e9)).get() - 0.70).abs() < 1e-9);
/// assert!((law.utilization(FlopCount::new(1e11)).get() - 0.90).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveBandwidthModel {
    /// Utilization at the 10⁹-op reference point.
    pub base: f64,
    /// Utilization gained per decade of operations.
    pub per_decade: f64,
    /// Lower clamp.
    pub floor: f64,
    /// Upper clamp (the paper's "up to 90 %").
    pub ceiling: f64,
}

impl Default for EffectiveBandwidthModel {
    fn default() -> Self {
        Self {
            base: 0.70,
            per_decade: 0.10,
            floor: 0.50,
            ceiling: 0.90,
        }
    }
}

impl EffectiveBandwidthModel {
    /// Utilization achieved at `ops` operations per device.
    pub fn utilization(&self, ops: FlopCount) -> Utilization {
        let ops = ops.get().max(1.0);
        let u = self.base + self.per_decade * (ops.log10() - 9.0);
        Utilization::new_clamped(u.clamp(self.floor, self.ceiling))
    }

    /// Effective bandwidth: the spec derated by [`Self::utilization`].
    pub fn effective(&self, spec: Bandwidth, ops: FlopCount) -> Bandwidth {
        spec.derated(self.utilization(ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fig10_reference_points() {
        let law = EffectiveBandwidthModel::default();
        assert!((law.utilization(FlopCount::new(1e9)).get() - 0.70).abs() < 1e-9);
        assert!((law.utilization(FlopCount::new(1e10)).get() - 0.80).abs() < 1e-9);
        assert!((law.utilization(FlopCount::new(1e11)).get() - 0.90).abs() < 1e-9);
        // Ceiling holds beyond 1e11.
        assert!((law.utilization(FlopCount::new(1e13)).get() - 0.90).abs() < 1e-9);
    }

    #[test]
    fn fig10_u55c_absolute_bandwidth() {
        // The U55C has 460 GB/s of HBM2; at OPT-30B-scale workloads the
        // paper's measured points sit in the 80–90 % band (368–414 GB/s).
        let law = EffectiveBandwidthModel::default();
        let eff = law.effective(Bandwidth::from_gbps(460.0), FlopCount::new(6e10));
        assert!(
            (368.0..=414.0).contains(&eff.as_gbps()),
            "{}",
            eff.as_gbps()
        );
    }

    #[test]
    fn tiny_workloads_hit_floor() {
        let law = EffectiveBandwidthModel::default();
        assert_eq!(law.utilization(FlopCount::new(10.0)).get(), 0.50);
        assert_eq!(law.utilization(FlopCount::ZERO).get(), 0.50);
    }

    #[test]
    fn dram_fits() {
        let spec = DramSpec::hbm2e(Bytes::from_gib(80), Bandwidth::from_tbps(2.0));
        assert!(spec.fits(Bytes::from_gib(80)));
        assert!(!spec.fits(Bytes::from_gib(81)));
    }

    #[test]
    fn display_formats() {
        let spec = DramSpec::hbm3(Bytes::from_gib(80), Bandwidth::from_tbps(3.35));
        assert_eq!(format!("{spec}"), "HBM3 80.00 GiB @ 3.35 TB/s");
    }

    proptest! {
        #[test]
        fn utilization_monotone_and_bounded(a in 1.0f64..1e14, b in 1.0f64..1e14) {
            let law = EffectiveBandwidthModel::default();
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let ulo = law.utilization(FlopCount::new(lo));
            let uhi = law.utilization(FlopCount::new(hi));
            prop_assert!(uhi >= ulo);
            prop_assert!(ulo.get() >= law.floor && uhi.get() <= law.ceiling);
        }

        #[test]
        fn effective_never_exceeds_spec(gbps in 1.0f64..5000.0, ops in 1.0f64..1e14) {
            let law = EffectiveBandwidthModel::default();
            let spec = Bandwidth::from_gbps(gbps);
            prop_assert!(law.effective(spec, FlopCount::new(ops)) <= spec);
        }
    }
}
