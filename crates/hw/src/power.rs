//! Power model: the vendor-side "power budget" input of Fig. 9.
//!
//! Component energies follow the usual 7 nm accelerator literature
//! (fractions of a pJ per fp16 MAC, ~1 pJ/byte of SRAM access, several
//! pJ/bit of DRAM I/O) and are calibrated so the Table III-class designs
//! land in the 300–500 W envelope the paper's comparisons imply (A100
//! 400 W, H100 700 W, TSP 300 W at their own utilizations).

use core::fmt;

use ador_units::{Bandwidth, Power, Utilization};

use crate::Architecture;

/// Per-component energy/power constants (7 nm reference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Joules per fp16 MAC on a systolic array (dense, short wires).
    pub sa_j_per_mac: f64,
    /// Joules per fp16 MAC on a MAC tree (tree wiring, wider accumulators).
    pub mt_j_per_mac: f64,
    /// Joules per vector-lane op.
    pub vu_j_per_op: f64,
    /// Joules per byte of SRAM traffic.
    pub sram_j_per_byte: f64,
    /// Joules per byte moved over the DRAM interface.
    pub dram_j_per_byte: f64,
    /// Joules per byte over P2P links.
    pub p2p_j_per_byte: f64,
    /// Static (leakage + always-on) watts per mm² of logic.
    pub static_w_per_mm2: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            sa_j_per_mac: 0.55e-12,
            mt_j_per_mac: 0.80e-12,
            vu_j_per_op: 1.2e-12,
            // Effective per-byte energy after systolic neighbour-forwarding
            // amortizes most operand fetches.
            sram_j_per_byte: 0.15e-12,
            // HBM2e-class I/O: ~3.75 pJ/bit.
            dram_j_per_byte: 30.0e-12,
            // SerDes links: ~7.5 pJ/bit.
            p2p_j_per_byte: 60.0e-12,
            static_w_per_mm2: 0.08,
        }
    }
}

/// Itemized power draw at a given operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Compute units (SA + MT + VU) at their utilization.
    pub compute: Power,
    /// SRAM traffic.
    pub sram: Power,
    /// DRAM interface traffic.
    pub dram: Power,
    /// P2P link traffic.
    pub p2p: Power,
    /// Leakage and always-on logic.
    pub static_power: Power,
}

impl PowerBreakdown {
    /// Total device power.
    pub fn total(&self) -> Power {
        self.compute + self.sram + self.dram + self.p2p + self.static_power
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compute {} + SRAM {} + DRAM {} + P2P {} + static {} = {}",
            self.compute,
            self.sram,
            self.dram,
            self.p2p,
            self.static_power,
            self.total()
        )
    }
}

/// An operating point for the power estimate: how hard each resource is
/// being driven (take these from a
/// [`StepLatency`](../../ador_perf/struct.StepLatency.html)-level report or
/// assume worst case with [`OperatingPoint::peak`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Fraction of peak MACs busy.
    pub compute: Utilization,
    /// Achieved DRAM bandwidth fraction.
    pub dram: Utilization,
    /// Achieved P2P bandwidth fraction.
    pub p2p: Utilization,
}

impl OperatingPoint {
    /// Everything at 100 % — the TDP-style worst case.
    pub fn peak() -> Self {
        Self {
            compute: Utilization::FULL,
            dram: Utilization::FULL,
            p2p: Utilization::FULL,
        }
    }

    /// A decode-heavy point: memory saturated, compute trickling.
    pub fn decode_typical() -> Self {
        Self {
            compute: Utilization::new(0.15),
            dram: Utilization::new(0.9),
            p2p: Utilization::new(0.2),
        }
    }

    /// A prefill-heavy point: compute saturated.
    pub fn prefill_typical() -> Self {
        Self {
            compute: Utilization::new(0.85),
            dram: Utilization::new(0.4),
            p2p: Utilization::new(0.2),
        }
    }
}

impl PowerModel {
    /// Estimates the power of `arch` at `point`. Logic energy scales with
    /// the process node like area does (a first-order dynamic-power proxy);
    /// DRAM/P2P I/O energy does not.
    pub fn estimate(&self, arch: &Architecture, point: OperatingPoint) -> PowerBreakdown {
        let scale = arch.process.area_scale_vs_7nm();
        let f = arch.frequency.as_hz();

        // Compute: MACs/s at utilization × J/MAC.
        let sa_rate = arch.sa_macs() as f64 * f * point.compute.get();
        let mt_rate = arch.mt_macs() as f64 * f * point.compute.get();
        let vu_rate = (arch.vu.lanes() * arch.cores) as f64 * f * point.compute.get();
        let compute_w = (sa_rate * self.sa_j_per_mac
            + mt_rate * self.mt_j_per_mac
            + vu_rate * self.vu_j_per_op)
            * scale;

        // SRAM traffic: assume each busy MAC reads one operand byte pair.
        let sram_w = (sa_rate + mt_rate) * 2.0 * self.sram_j_per_byte * scale;

        // Memory interfaces.
        let dram_bw: Bandwidth = arch.dram.bandwidth.derated(point.dram);
        let dram_w = dram_bw.as_bytes_per_sec() * self.dram_j_per_byte;
        let p2p_bw: Bandwidth = arch.p2p_bandwidth.derated(point.p2p);
        let p2p_w = p2p_bw.as_bytes_per_sec() * self.p2p_j_per_byte;

        // Static: proportional to (logic) die area.
        let die = crate::AreaModel::default().estimate(arch).total().as_mm2();
        let static_w = die * self.static_w_per_mm2;

        PowerBreakdown {
            compute: Power::from_watts(compute_w),
            sram: Power::from_watts(sram_w),
            dram: Power::from_watts(dram_w),
            p2p: Power::from_watts(p2p_w),
            static_power: Power::from_watts(static_w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DramSpec;
    use crate::{MacTree, ProcessNode, SystolicArray};
    use ador_units::{Bandwidth, Bytes, Frequency};

    fn ador_design() -> Architecture {
        Architecture::builder("ADOR Design")
            .cores(32)
            .systolic_array(SystolicArray::square(64))
            .mac_tree(MacTree::new(16, 16))
            .local_memory(Bytes::from_kib(2048))
            .global_memory(Bytes::from_mib(16))
            .dram(DramSpec::hbm2e(
                Bytes::from_gib(80),
                Bandwidth::from_tbps(2.0),
            ))
            .p2p_bandwidth(Bandwidth::from_gbps(64.0))
            .frequency(Frequency::from_mhz(1500.0))
            .build()
    }

    #[test]
    fn peak_power_lands_in_accelerator_envelope() {
        let p = PowerModel::default().estimate(&ador_design(), OperatingPoint::peak());
        let w = p.total().as_watts();
        assert!((150.0..600.0).contains(&w), "{p}");
    }

    #[test]
    fn decode_burns_less_than_prefill() {
        // Decode idles the compute fabric; DRAM I/O dominates.
        let model = PowerModel::default();
        let arch = ador_design();
        let decode = model.estimate(&arch, OperatingPoint::decode_typical());
        let prefill = model.estimate(&arch, OperatingPoint::prefill_typical());
        assert!(decode.total() < prefill.total());
        assert!(decode.dram > decode.compute);
        assert!(prefill.compute > prefill.dram);
    }

    #[test]
    fn denser_nodes_save_dynamic_power() {
        let model = PowerModel::default();
        let arch = ador_design();
        let at_node = |node| {
            let mut rebased = arch.clone();
            rebased.process = node;
            model.estimate(&rebased, OperatingPoint::prefill_typical())
        };
        let (at7, at4) = (at_node(ProcessNode::N7), at_node(ProcessNode::N4));
        assert!(at4.compute < at7.compute);
        // I/O power is node-independent.
        assert_eq!(at4.dram, at7.dram);
    }

    #[test]
    fn breakdown_sums() {
        let p = PowerModel::default().estimate(&ador_design(), OperatingPoint::peak());
        let manual = p.compute.as_watts()
            + p.sram.as_watts()
            + p.dram.as_watts()
            + p.p2p.as_watts()
            + p.static_power.as_watts();
        assert!((p.total().as_watts() - manual).abs() < 1e-9);
    }

    #[test]
    fn mt_macs_cost_more_energy_than_sa_macs() {
        let m = PowerModel::default();
        assert!(m.mt_j_per_mac > m.sa_j_per_mac);
    }
}
