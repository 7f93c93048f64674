//! HDA scheduling: which compute unit services which operator, and at what
//! effective rate (paper Fig. 8 and §IV-E).

use ador_hw::Architecture;
use ador_model::{OpClass, Phase};
use ador_units::{FlopRate, Seconds};

/// The compute unit(s) assigned to an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitChoice {
    /// MAC trees only (decode attention: keep DRAM bandwidth saturated).
    MacTree,
    /// Systolic arrays only.
    SystolicArray,
    /// Both, with the compile-time GEMM split of §IV-E.
    Both,
    /// Vector units.
    VectorUnit,
    /// The architecture exposes no decomposed fabric; use its datasheet
    /// peak with the SIMT saturation model.
    Fabric,
}

/// Chooses the unit for an operator class under the Fig. 8 policy.
pub fn choose_unit(arch: &Architecture, phase: Phase, class: OpClass) -> UnitChoice {
    if arch.peak_flops_override.is_some() {
        return match class {
            OpClass::Vector => UnitChoice::VectorUnit,
            _ => UnitChoice::Fabric,
        };
    }
    match class {
        OpClass::Vector => UnitChoice::VectorUnit,
        OpClass::Attention => {
            if arch.mt.is_some() {
                // "MAC trees are used exclusively to perform GEMV operations
                // ... handling the attention with full use of the DRAM
                // bandwidth".
                if phase.is_decode() {
                    UnitChoice::MacTree
                } else if arch.sa.is_some() {
                    UnitChoice::Both
                } else {
                    UnitChoice::MacTree
                }
            } else {
                UnitChoice::SystolicArray
            }
        }
        OpClass::WeightMatMul => match (arch.sa.is_some(), arch.mt.is_some()) {
            // "since MAC trees can also perform GEMM operations, they can be
            // used alongside systolic arrays" — both phases split the weight
            // matmuls at compile time.
            (true, true) => UnitChoice::Both,
            (true, false) => UnitChoice::SystolicArray,
            (false, true) => UnitChoice::MacTree,
            (false, false) => UnitChoice::Fabric,
        },
    }
}

/// Effective compute rates of each fabric on a given matmul shape,
/// accounting for multi-core work splitting (C-INTERMEDIATE: the Fig. 11a
/// sweep reads these directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricRates {
    /// Systolic arrays' achieved rate on this shape.
    pub sa: FlopRate,
    /// MAC trees' achieved rate on this shape.
    pub mt: FlopRate,
}

impl FabricRates {
    /// Combined rate when both fabrics work the same operator.
    pub fn combined(&self) -> FlopRate {
        self.sa + self.mt
    }
}

/// Achieved systolic-array rate for `count` GEMMs of `m×k·k×n`, choosing the
/// best compile-time split across the device's SA instances (split output
/// columns, split rows, or split independent GEMMs — §IV-C's two dataflows
/// plus head-parallelism).
///
/// Activation panels larger than the local SRAM stream from the shared
/// global memory (paper §IV-B), so no re-fill penalty applies as long as
/// the NoC keeps up; the SRAM-capacity pressure of many-small-core designs
/// is charged where it physically lands — the SRAM budget in
/// `ador-search::size_memories` and the area model.
pub fn sa_effective_rate(
    arch: &Architecture,
    m: usize,
    k: usize,
    n: usize,
    count: usize,
) -> FlopRate {
    let Some(sa) = arch.sa else {
        return FlopRate::ZERO;
    };
    let instances = (arch.cores * arch.sa_per_core).max(1);
    let ideal_flops = 2.0 * (m as f64) * (k as f64) * (n as f64) * (count as f64);

    let timing = |m_eff: usize, n_eff: usize, c_eff: usize| -> Seconds {
        sa.batched_gemm_timing(m_eff, k, n_eff, c_eff).cycles / arch.frequency
    };

    // Split output columns across instances (latency dataflow, Fig. 6c).
    let mut best = timing(m, n.div_ceil(instances), count);
    // Split rows across instances (throughput dataflow, Fig. 6b).
    best = best.min(timing(m.div_ceil(instances), n, count));
    // Split independent GEMMs (one attention head per instance).
    if count > 1 {
        best = best.min(timing(m, n, count.div_ceil(instances)));
    }
    FlopRate::new(ideal_flops / best.get())
}

/// Achieved MAC-tree rate for the same shape: the per-core banks act as one
/// wide bank (each core owns a slice of the output).
pub fn mt_effective_rate(
    arch: &Architecture,
    m: usize,
    k: usize,
    n: usize,
    count: usize,
) -> FlopRate {
    let Some(mt) = arch.mt else {
        return FlopRate::ZERO;
    };
    let bank = ador_hw::MacTree::new(mt.size(), mt.lanes() * arch.cores);
    let timing = bank.matmul_timing(m, k, n, count);
    let ideal_flops = 2.0 * (m as f64) * (k as f64) * (n as f64) * (count as f64);
    FlopRate::new(ideal_flops / (timing.cycles / arch.frequency).get())
}

/// Rates of both fabrics on one shape.
pub fn fabric_rates(
    arch: &Architecture,
    m: usize,
    k: usize,
    n: usize,
    count: usize,
) -> FabricRates {
    FabricRates {
        sa: sa_effective_rate(arch, m, k, n, count),
        mt: mt_effective_rate(arch, m, k, n, count),
    }
}

/// The SIMT saturation model for fabrics we don't decompose (GPUs): GEMV
/// and small-batch GEMM cannot fill the wide SIMT machine, saturating as
/// `m / (m + 32)`.
pub fn simt_saturation(m: usize) -> f64 {
    m as f64 / (m as f64 + 32.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ador_baselines::{a100, ador_table3};
    fn a100_like() -> ador_hw::Architecture {
        a100()
    }
    use ador_model::Phase;

    #[test]
    fn fig8_decode_attention_goes_to_mac_tree() {
        let arch = ador_table3();
        let choice = choose_unit(&arch, Phase::decode(32, 1024), OpClass::Attention);
        assert_eq!(choice, UnitChoice::MacTree);
    }

    #[test]
    fn fig8_weight_matmuls_use_both_fabrics() {
        let arch = ador_table3();
        for phase in [Phase::decode(32, 1024), Phase::prefill(1, 1024)] {
            assert_eq!(
                choose_unit(&arch, phase, OpClass::WeightMatMul),
                UnitChoice::Both
            );
        }
    }

    #[test]
    fn override_archs_use_fabric_model() {
        let gpu = a100_like();
        assert_eq!(
            choose_unit(&gpu, Phase::decode(1, 1), OpClass::WeightMatMul),
            UnitChoice::Fabric
        );
        assert_eq!(
            choose_unit(&gpu, Phase::decode(1, 1), OpClass::Vector),
            UnitChoice::VectorUnit
        );
    }

    #[test]
    fn sa_rate_improves_with_batch() {
        let arch = ador_table3();
        let small = sa_effective_rate(&arch, 1, 4096, 4096, 1);
        let large = sa_effective_rate(&arch, 1024, 4096, 4096, 1);
        assert!(large.get() > 10.0 * small.get());
        // Large-batch GEMM approaches a healthy fraction of the 393-TFLOPS
        // SA peak.
        assert!(large.as_tflops() > 0.5 * arch.sa_peak_flops().as_tflops());
    }

    #[test]
    fn mt_rate_stays_high_on_gemv() {
        let arch = ador_table3();
        let rate = mt_effective_rate(&arch, 1, 4096, 4096, 1);
        assert!(rate.as_tflops() > 0.8 * arch.mt_peak_flops().as_tflops());
    }

    #[test]
    fn combined_rate_is_additive() {
        let arch = ador_table3();
        let rates = fabric_rates(&arch, 256, 4096, 4096, 1);
        assert!((rates.combined().get() - (rates.sa + rates.mt).get()).abs() < 1.0);
    }

    #[test]
    fn saturation_monotone() {
        assert!(simt_saturation(1) < simt_saturation(16));
        assert!(simt_saturation(16) < simt_saturation(1024));
        assert!(simt_saturation(100_000) < 1.0);
    }
}
