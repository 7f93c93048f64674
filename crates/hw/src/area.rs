//! The silicon cost model (paper §VI-A: "we added the MAC tree information
//! to the LLMCompass cost model").
//!
//! Component constants are calibrated at 7 nm so that the model reproduces
//! every die area in Table III within ~0.5 % (LLMCompass-L 478 mm²,
//! LLMCompass-T 787 mm², ADOR 516 mm²), which `table3_die_areas_reproduce`
//! pins. Logic and SRAM scale with the process node; DRAM and P2P
//! interfaces are analog-dominated PHYs and do not.

use core::fmt;

use ador_units::Area;

use crate::{Architecture, ProcessNode};

/// Per-component area constants (all at the 7 nm reference node, except the
/// PHYs which are node-independent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// mm² per systolic-array MAC cell (PE registers + pipeline included).
    pub sa_mac_mm2: f64,
    /// mm² per MAC-tree cell (tree wiring makes it less dense, §III-B:
    /// "MTs have lower compute unit density in the physical implementation").
    pub mt_mac_mm2: f64,
    /// mm² per vector-unit lane.
    pub vu_lane_mm2: f64,
    /// mm² per MiB of SRAM.
    pub sram_mm2_per_mib: f64,
    /// mm² per TB/s of DRAM interface bandwidth (PHY + controllers).
    pub dram_mm2_per_tbps: f64,
    /// mm² per GiB of DRAM capacity (channel/controller overhead).
    pub dram_mm2_per_gib: f64,
    /// mm² per GB/s of P2P link bandwidth.
    pub p2p_mm2_per_gbps: f64,
    /// Fixed system overhead: DMA engines, ring NoC, schedulers, misc I/O.
    pub system_mm2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        Self {
            sa_mac_mm2: 0.00145,
            mt_mac_mm2: 0.00367,
            vu_lane_mm2: 0.004,
            sram_mm2_per_mib: 0.40,
            dram_mm2_per_tbps: 25.0,
            dram_mm2_per_gib: 0.06,
            p2p_mm2_per_gbps: 0.18,
            system_mm2: 189.4,
        }
    }
}

/// Itemized die area for one architecture (C-INTERMEDIATE: callers often
/// want the split, e.g. the Fig. 11 discussion of SA-vs-MT area trades).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// Systolic arrays.
    pub sa: Area,
    /// MAC trees.
    pub mt: Area,
    /// Vector units.
    pub vu: Area,
    /// All SRAM (local + global).
    pub sram: Area,
    /// DRAM PHY + controllers.
    pub dram_interface: Area,
    /// P2P PHY.
    pub p2p_interface: Area,
    /// Fixed system overhead.
    pub system: Area,
}

impl AreaBreakdown {
    /// Total die area.
    pub fn total(&self) -> Area {
        self.sa
            + self.mt
            + self.vu
            + self.sram
            + self.dram_interface
            + self.p2p_interface
            + self.system
    }
}

impl fmt::Display for AreaBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SA {} + MT {} + VU {} + SRAM {} + DRAM-IF {} + P2P {} + system {} = {}",
            self.sa,
            self.mt,
            self.vu,
            self.sram,
            self.dram_interface,
            self.p2p_interface,
            self.system,
            self.total()
        )
    }
}

impl AreaModel {
    /// Estimates the die area of `arch` at its own process node.
    ///
    /// If the architecture carries a `die_area_override` (datasheet value
    /// for fabrics we don't decompose), the override is returned as the
    /// `system` component with zeros elsewhere.
    pub fn estimate(&self, arch: &Architecture) -> AreaBreakdown {
        if let Some(die) = arch.die_area_override {
            return AreaBreakdown {
                sa: Area::ZERO,
                mt: Area::ZERO,
                vu: Area::ZERO,
                sram: Area::ZERO,
                dram_interface: Area::ZERO,
                p2p_interface: Area::ZERO,
                system: die,
            };
        }
        let logic_scale = arch.process.area_scale_vs_7nm();
        let mm2 = |x: f64| Area::from_mm2(x);
        AreaBreakdown {
            sa: mm2(arch.sa_macs() as f64 * self.sa_mac_mm2 * logic_scale),
            mt: mm2(arch.mt_macs() as f64 * self.mt_mac_mm2 * logic_scale),
            vu: mm2((arch.vu.lanes() * arch.cores) as f64 * self.vu_lane_mm2 * logic_scale),
            sram: mm2(arch.total_sram().as_mib() * self.sram_mm2_per_mib * logic_scale),
            dram_interface: mm2(arch.dram.bandwidth.as_tbps() * self.dram_mm2_per_tbps
                + arch.dram.capacity.as_gib() * self.dram_mm2_per_gib),
            p2p_interface: mm2(arch.p2p_bandwidth.as_gbps() * self.p2p_mm2_per_gbps),
            system: mm2(self.system_mm2 * logic_scale),
        }
    }

    /// Die area normalized to `target` node, for cross-node comparisons
    /// (Fig. 4a's "Normalized Value with 4nm process"). Logic and SRAM are
    /// rescaled; PHY areas are kept as-is.
    pub fn estimate_normalized(&self, arch: &Architecture, target: ProcessNode) -> Area {
        if let Some(die) = arch.die_area_override {
            // Datasheet dies are rescaled wholesale — we cannot split out
            // their PHYs.
            return Area::from_mm2(arch.process.rescale_area(die.as_mm2(), target));
        }
        let b = self.estimate(arch);
        let logic = b.sa + b.mt + b.vu + b.sram + b.system;
        let phys = b.dram_interface + b.p2p_interface;
        Area::from_mm2(arch.process.rescale_area(logic.as_mm2(), target)) + phys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DramSpec;
    use crate::{MacTree, SystolicArray};
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

    fn llmcompass(
        name: &str,
        sa: usize,
        local_kib: u64,
        global_mib: u64,
        dram: DramSpec,
    ) -> Architecture {
        Architecture::builder(name)
            .cores(64)
            .systolic_array(SystolicArray::square(sa))
            .sa_per_core(4)
            .local_memory(Bytes::from_kib(local_kib))
            .global_memory(Bytes::from_mib(global_mib))
            .dram(dram)
            .p2p_bandwidth(Bandwidth::from_gbps(600.0))
            .frequency(Frequency::from_mhz(1500.0))
            .build()
    }

    #[test]
    fn table3_die_areas_reproduce() {
        let model = AreaModel::default();
        let hbm2 = DramSpec::hbm2e(Bytes::from_gib(80), Bandwidth::from_tbps(2.0));
        let big = DramSpec::new(
            crate::DramKind::Lpddr,
            Bytes::from_gib(512),
            Bandwidth::from_tbps(1.0),
        );
        let cases = [
            (llmcompass("LLMCompass-L", 16, 192, 24, hbm2), 478.0),
            (llmcompass("LLMCompass-T", 32, 768, 48, big), 787.0),
            (ador_design(), 516.0),
        ];
        for (arch, expect) in cases {
            let got = model.estimate(&arch).total().as_mm2();
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.01, "{}: {got:.1} vs {expect} ({rel:.3})", arch.name);
        }
    }

    #[test]
    fn override_wins() {
        let a = Architecture::builder("A100")
            .peak_flops_override(ador_units::FlopRate::from_tflops(312.0))
            .die_area_override(Area::from_mm2(826.0))
            .build();
        assert_eq!(AreaModel::default().estimate(&a).total().as_mm2(), 826.0);
    }

    #[test]
    fn normalization_shrinks_older_nodes() {
        let model = AreaModel::default();
        let mut arch = ador_design();
        let at7 = model.estimate_normalized(&arch, ProcessNode::N7);
        let at4 = model.estimate_normalized(&arch, ProcessNode::N4);
        assert!(at4 < at7);
        // PHYs don't scale, so the shrink is less than the pure logic ratio.
        assert!(at4.as_mm2() / at7.as_mm2() > 0.58);
        arch.process = ProcessNode::N14;
        let back_to_7 = model.estimate_normalized(&arch, ProcessNode::N7);
        assert!(back_to_7 < model.estimate(&arch).total());
    }

    #[test]
    fn mt_cells_cost_more_than_sa_cells() {
        let m = AreaModel::default();
        assert!(m.mt_mac_mm2 > m.sa_mac_mm2);
    }

    #[test]
    fn breakdown_sums() {
        let model = AreaModel::default();
        let b = model.estimate(&ador_design());
        let manual = b.sa.as_mm2()
            + b.mt.as_mm2()
            + b.vu.as_mm2()
            + b.sram.as_mm2()
            + b.dram_interface.as_mm2()
            + b.p2p_interface.as_mm2()
            + b.system.as_mm2();
        assert!((b.total().as_mm2() - manual).abs() < 1e-9);
    }
}
