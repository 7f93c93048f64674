//! MAC-tree timing: the latency-oriented engine of the ADOR template
//! (paper §III-B, §IV-A).
//!
//! A MAC tree is a row of `size` multipliers feeding a binary adder tree;
//! `lanes` independent trees operate side by side. Weights stream from DRAM
//! *directly* into the multipliers — no SRAM staging — so a GEMV finishes as
//! soon as its weights have streamed past, which is why the paper sizes the
//! tree to exactly consume one DRAM beat per cycle:
//!
//! ```text
//! data_size_per_cycle = memory_bandwidth / core_frequency
//! adder_tree_length   = data_size_per_cycle / 2B × parallel_size
//! ```

use core::fmt;

use ador_units::{Bandwidth, Cycles, FlopRate, Frequency, Utilization};

/// A bank of `lanes` MAC trees, each `size` multipliers wide.
///
/// # Examples
///
/// ```
/// use ador_hw::MacTree;
/// use ador_units::{Bandwidth, Frequency};
///
/// // Paper §VI-A: "a MAC tree with a size of 16 ... and 16 lanes".
/// let mt = MacTree::new(16, 16);
/// assert_eq!(mt.macs(), 256);
///
/// // Per-core slice of 2 TB/s across 32 cores at 1.5 GHz needs ~21 fp16
/// // elements per cycle; a single 32-wide tree covers the beat.
/// let matched = MacTree::sized_for(Bandwidth::from_gbps(62.5), Frequency::from_ghz(1.5), 2, 1);
/// assert_eq!(matched.map(|mt| mt.size()), Some(32));
/// // No tree is wide enough for a beat of 10^30 elements.
/// assert_eq!(MacTree::sized_for(Bandwidth::from_tbps(1e30), Frequency::from_ghz(1.5), 2, 1), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacTree {
    size: usize,
    lanes: usize,
}

/// Timing result for a matmul on a [`MacTree`] bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemvTiming {
    /// Total busy cycles.
    pub cycles: Cycles,
    /// Achieved-MAC fraction of peak.
    pub utilization: Utilization,
}

impl MacTree {
    /// Creates a bank of `lanes` trees of `size` multipliers.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `lanes` is zero.
    pub fn new(size: usize, lanes: usize) -> Self {
        assert!(
            size > 0 && lanes > 0,
            "MAC tree size and lanes must be positive"
        );
        Self { size, lanes }
    }

    /// Sizes a tree that consumes `bandwidth` at clock `freq` per the
    /// paper's §V-A formula, with `lanes` parallel trees sharing the
    /// stream. The width is rounded up to a power of two (adder trees are
    /// binary); the bank as a whole consumes at least the requested beat.
    /// Returns `None` when the bank's multiplier count would not fit a
    /// `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn sized_for(
        bandwidth: Bandwidth,
        freq: Frequency,
        dtype_bytes: u64,
        lanes: usize,
    ) -> Option<Self> {
        let elems_per_cycle = bandwidth.bytes_per_cycle(freq) / dtype_bytes as f64;
        let per_lane = (elems_per_cycle / lanes as f64).max(1.0);
        // The cast saturates, so an unrepresentable width fails here.
        let size = (per_lane.ceil() as usize).checked_next_power_of_two()?;
        size.checked_mul(lanes).map(|_| Self::new(size, lanes))
    }

    /// Multipliers per tree.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Parallel trees.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Total MAC cells in the bank.
    pub fn macs(&self) -> usize {
        self.size * self.lanes
    }

    /// Adder-tree depth in pipeline stages (`log2(size)` adds plus the
    /// multiply stage).
    #[inline]
    pub fn depth(&self) -> usize {
        (usize::BITS - (self.size - 1).leading_zeros()) as usize + 1
    }

    /// Peak compute rate at clock `freq`.
    pub fn peak_flops(&self, freq: Frequency) -> FlopRate {
        FlopRate::new(self.macs() as f64 * 2.0 * freq.as_hz())
    }

    /// DRAM bandwidth this bank consumes when streaming weights at full
    /// rate (one element per multiplier per cycle).
    pub fn matched_bandwidth(&self, freq: Frequency, dtype_bytes: u64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.macs() as f64 * dtype_bytes as f64 * freq.as_hz())
    }

    /// Cycle count for `count` independent `M×K · K×N` products.
    ///
    /// The tree computes dot products directly, so there is no fill/drain
    /// penalty beyond the pipeline [`depth`](Self::depth); utilization only
    /// drops on ragged `K` (partial final beat per dot product).
    pub fn matmul_timing(&self, m: usize, k: usize, n: usize, count: usize) -> GemvTiming {
        let cycles = self.matmul_cycles(m, k, n, count);
        let ideal = (m * k * n * count) as u64;
        let offered = cycles.get() * self.macs() as u64;
        GemvTiming {
            cycles,
            utilization: Utilization::new_clamped(ideal as f64 / offered as f64),
        }
    }

    /// The busy cycles of [`Self::matmul_timing`] alone, for callers that
    /// never read the utilization.
    #[inline]
    pub fn matmul_cycles(&self, m: usize, k: usize, n: usize, count: usize) -> Cycles {
        assert!(
            m > 0 && k > 0 && n > 0 && count > 0,
            "matmul dimensions must be positive"
        );
        // Each dot product needs ceil(k / size) beats on one lane; lanes
        // process independent output elements in parallel.
        let beats_per_dot = k.div_ceil(self.size) as u64;
        let dots = (m * n * count) as u64;
        let rounds = dots.div_ceil(self.lanes as u64);
        Cycles::new(rounds * beats_per_dot + self.depth() as u64)
    }
}

impl fmt::Display for MacTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MT {}x{}", self.size, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gemv_runs_near_peak() {
        // Table II: the MAC tree is latency-oriented — a GEMV with aligned K
        // keeps every multiplier busy.
        let mt = MacTree::new(16, 16);
        let t = mt.matmul_timing(1, 4096, 4096, 1);
        assert!(t.utilization.get() > 0.95, "{:?}", t);
    }

    #[test]
    fn contrast_with_systolic_array_on_gemv() {
        // The same 256 MACs as a 16×16 SA, on the same GEMV.
        let mt = MacTree::new(16, 16).matmul_timing(1, 4096, 4096, 1);
        let sa = crate::SystolicArray::new(16, 16).gemm_timing(1, 4096, 4096);
        assert!(
            mt.cycles.get() * 10 < sa.cycles.get(),
            "mt {mt:?} sa {sa:?}"
        );
    }

    #[test]
    fn ragged_k_wastes_the_last_beat() {
        let mt = MacTree::new(16, 1);
        let aligned = mt.matmul_timing(1, 64, 1, 1);
        let ragged = mt.matmul_timing(1, 65, 1, 1);
        assert_eq!(ragged.cycles.get(), aligned.cycles.get() + 1);
        assert!(ragged.utilization < aligned.utilization);
    }

    #[test]
    fn sized_for_matches_paper_formula() {
        // 2 TB/s at 1.5 GHz = 1333 B/cycle = 667 fp16 elements/cycle.
        // With 16 lanes: 41.7 per lane → next pow2 = 64... the paper instead
        // fixes size 16 and raises lanes; both satisfy the beat.
        let mt =
            MacTree::sized_for(Bandwidth::from_tbps(2.0), Frequency::from_ghz(1.5), 2, 16).unwrap();
        let consumed = mt.matched_bandwidth(Frequency::from_ghz(1.5), 2);
        assert!(
            consumed.as_tbps() >= 2.0,
            "bank must at least consume the beat"
        );
    }

    #[test]
    fn depth_is_log2_plus_multiply() {
        assert_eq!(MacTree::new(16, 1).depth(), 5);
        assert_eq!(MacTree::new(64, 1).depth(), 7);
    }

    #[test]
    fn peak_flops_matches_table3_mt_share() {
        // 16×16 MT × 32 cores at 1.5 GHz ≈ 24.6 TFLOPS (417 − 393 of Table III).
        let per_core = MacTree::new(16, 16).peak_flops(Frequency::from_ghz(1.5));
        assert!((per_core.as_tflops() * 32.0 - 24.6).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lanes_rejected() {
        let _ = MacTree::new(16, 0);
    }

    proptest! {
        #[test]
        fn timing_builds_on_the_cycle_helper(
            s in 1usize..128, l in 1usize..64,
            m in 1usize..512, k in 1usize..8192, n in 1usize..8192, count in 1usize..64,
        ) {
            // The formula `matmul_timing` was written as before the cycle
            // count moved into `matmul_cycles`.
            let mt = MacTree::new(s, l);
            let cycles = ((m * n * count) as u64).div_ceil(l as u64) * k.div_ceil(s) as u64
                + mt.depth() as u64;
            let utilization = (m * k * n * count) as u64 as f64 / (cycles * (s * l) as u64) as f64;
            let t = mt.matmul_timing(m, k, n, count);
            prop_assert_eq!(mt.matmul_cycles(m, k, n, count), t.cycles);
            prop_assert_eq!(t.cycles.get(), cycles);
            prop_assert_eq!(t.utilization.get().to_bits(), utilization.min(1.0).to_bits());
        }

        #[test]
        fn utilization_bounded(
            s in 1usize..128, l in 1usize..64,
            m in 1usize..64, k in 1usize..4096, n in 1usize..512,
        ) {
            let t = MacTree::new(s, l).matmul_timing(m, k, n, 1);
            prop_assert!(t.utilization.get() > 0.0 && t.utilization.get() <= 1.0);
        }

        #[test]
        fn more_lanes_never_slower(s in 1usize..64, l in 1usize..32, k in 1usize..2048, n in 1usize..256) {
            let few = MacTree::new(s, l).matmul_timing(1, k, n, 1);
            let many = MacTree::new(s, l * 2).matmul_timing(1, k, n, 1);
            prop_assert!(many.cycles <= few.cycles);
        }

        #[test]
        fn sized_for_consumes_beat(gbps in 1.0f64..4000.0, lanes in 1usize..32) {
            let f = Frequency::from_ghz(1.5);
            let mt = MacTree::sized_for(Bandwidth::from_gbps(gbps), f, 2, lanes).unwrap();
            prop_assert!(mt.matched_bandwidth(f, 2).as_gbps() >= gbps * 0.999);
        }
    }
}
