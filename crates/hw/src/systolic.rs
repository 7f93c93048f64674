//! Weight-stationary systolic array timing (paper §III-B, Table II).
//!
//! The model is the closed-form weight-stationary analysis SCALE-Sim [25]
//! uses: weights for an `rows × cols` tile are pre-loaded, then `M`
//! activation rows stream through with skewed (diagonal) wavefronts, costing
//! a pipeline fill/drain of `rows + cols − 2` on top of the `M` streaming
//! beats per fold.
//!
//! The asymmetry the paper builds ADOR around falls straight out of the
//! formula: for GEMM (`M` large) the fill is amortized and utilization is
//! high; for GEMV (`M = 1`) every fold pays the full fill, so utilization
//! collapses to roughly `1 / (rows + cols)`.

use core::fmt;

use ador_units::{Bandwidth, Cycles, FlopRate, Frequency, Utilization};

/// A weight-stationary systolic array of `rows × cols` MAC cells.
///
/// `rows` maps the GEMM contraction dimension (K), `cols` the output
/// dimension (N).
///
/// # Examples
///
/// ```
/// use ador_hw::SystolicArray;
///
/// let sa = SystolicArray::new(64, 64);
/// let gemm = sa.gemm_timing(1024, 4096, 4096);
/// let gemv = sa.gemm_timing(1, 4096, 4096);
/// assert!(gemm.utilization.get() > 0.85);
/// assert!(gemv.utilization.get() < 0.02); // why ADOR adds MAC trees
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
}

/// Timing result of a (possibly repeated) GEMM on a [`SystolicArray`]
/// (intermediate values exposed per C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmTiming {
    /// Total busy cycles.
    pub cycles: Cycles,
    /// Number of weight folds (tiles) executed.
    pub folds: u64,
    /// Achieved-MAC fraction of peak over the busy window.
    pub utilization: Utilization,
}

impl SystolicArray {
    /// Creates an array of `rows × cols` processing elements.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "systolic array dimensions must be positive"
        );
        Self { rows, cols }
    }

    /// Creates a square `dim × dim` array.
    pub fn square(dim: usize) -> Self {
        Self::new(dim, dim)
    }

    /// Array height (contraction dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width (output dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// MAC cells in the array.
    pub fn macs(&self) -> usize {
        self.rows * self.cols
    }

    /// Peak compute rate at clock `freq` (2 FLOPs per MAC per cycle).
    pub fn peak_flops(&self, freq: Frequency) -> FlopRate {
        FlopRate::new(self.macs() as f64 * 2.0 * freq.as_hz())
    }

    /// Cycle count and utilization for one `M×K · K×N` GEMM.
    ///
    /// Weight double buffering hides tile pre-loads behind the previous
    /// tile's compute (the "throughput-oriented" dataflow of Fig. 6b); only
    /// the very first fill of `rows` cycles is exposed.
    pub fn gemm_timing(&self, m: usize, k: usize, n: usize) -> GemmTiming {
        self.batched_gemm_timing(m, k, n, 1)
    }

    /// Timing for `count` independent GEMMs of the same shape executed
    /// back-to-back (e.g. one per attention head). Successive GEMMs reuse
    /// the pipeline, so the first-fill penalty is paid once.
    pub fn batched_gemm_timing(&self, m: usize, k: usize, n: usize, count: usize) -> GemmTiming {
        let cycles = self.batched_gemm_cycles(m, k, n, count);
        let ideal_macs = (m * k * n * count) as u64;
        let offered = cycles.get() * self.macs() as u64;
        GemmTiming {
            cycles,
            folds: self.folds(m, k, n, count),
            utilization: Utilization::new_clamped(ideal_macs as f64 / offered as f64),
        }
    }

    /// The busy cycles of [`Self::batched_gemm_timing`] alone, for callers
    /// that compare dataflows and never read the utilization.
    #[inline]
    pub fn batched_gemm_cycles(&self, m: usize, k: usize, n: usize, count: usize) -> Cycles {
        let per_fold = (m + self.rows + self.cols - 2) as u64;
        Cycles::new(self.folds(m, k, n, count) * per_fold + self.rows as u64)
    }

    /// Weight folds (tiles) for `count` GEMMs of `m×k · k×n`.
    #[inline]
    fn folds(&self, m: usize, k: usize, n: usize, count: usize) -> u64 {
        assert!(
            m > 0 && k > 0 && n > 0 && count > 0,
            "GEMM dimensions must be positive"
        );
        let folds_per_gemm = k.div_ceil(self.rows) as u64 * n.div_ceil(self.cols) as u64;
        folds_per_gemm * count as u64
    }

    /// The DRAM/NoC bandwidth needed to keep double buffering effective:
    /// each fold's `rows·cols` weights must arrive within one fold's compute
    /// window (paper §V-C — this requirement grows with array size and sets
    /// the NoC spec). `None` when the rate overflows an `f64` (an absurd
    /// clock).
    pub fn weight_prefetch_bandwidth(
        &self,
        m: usize,
        dtype_bytes: u64,
        freq: Frequency,
    ) -> Option<Bandwidth> {
        let window_cycles = (m + self.rows + self.cols - 2) as f64;
        let bytes_per_fold = (self.macs() as u64 * dtype_bytes) as f64;
        let rate = bytes_per_fold / window_cycles * freq.as_hz();
        rate.is_finite()
            .then(|| Bandwidth::from_bytes_per_sec(rate))
    }
}

impl fmt::Display for SystolicArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SA {}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_tile_reaches_high_utilization() {
        // M large, K and N exact multiples of the array: utilization → 1.
        let sa = SystolicArray::new(32, 32);
        let t = sa.gemm_timing(4096, 128, 128);
        assert!(t.utilization.get() > 0.95, "{:?}", t);
        assert_eq!(t.folds, 4 * 4);
    }

    #[test]
    fn gemv_utilization_collapses() {
        let sa = SystolicArray::new(128, 128);
        let t = sa.gemm_timing(1, 4096, 4096);
        // 1 / (rows + cols - 1) ≈ 0.004.
        assert!(t.utilization.get() < 0.005, "{:?}", t);
    }

    #[test]
    fn bigger_array_hurts_gemv_more() {
        // Table II: "As the size of the SA increases, the latency also
        // increases due to the diagonal distribution of input data".
        let small = SystolicArray::square(32).gemm_timing(1, 4096, 4096);
        let large = SystolicArray::square(128).gemm_timing(1, 4096, 4096);
        assert!(large.utilization < small.utilization);
    }

    #[test]
    fn partial_tiles_waste_cells() {
        let sa = SystolicArray::new(64, 64);
        let aligned = sa.gemm_timing(1024, 64, 64);
        let ragged = sa.gemm_timing(1024, 65, 65); // spills into 4 folds
        assert!(ragged.cycles.get() > 3 * aligned.cycles.get());
    }

    #[test]
    fn batched_pays_fill_once() {
        let sa = SystolicArray::new(64, 64);
        let one = sa.gemm_timing(128, 64, 64).cycles.get();
        let four = sa.batched_gemm_timing(128, 64, 64, 4).cycles.get();
        assert_eq!(four, 4 * (one - 64) + 64);
    }

    #[test]
    fn prefetch_bandwidth_grows_with_array() {
        let f = Frequency::from_ghz(1.5);
        let small = SystolicArray::square(32).weight_prefetch_bandwidth(256, 2, f);
        let large = SystolicArray::square(128).weight_prefetch_bandwidth(256, 2, f);
        assert!(large.unwrap() > small.unwrap());
        let absurd = Frequency::from_hz(f64::MAX);
        assert_eq!(
            SystolicArray::square(32).weight_prefetch_bandwidth(256, 2, absurd),
            None
        );
    }

    #[test]
    fn peak_flops_matches_table3() {
        // 64×64 SA × 32 cores at 1.5 GHz ≈ 393 TFLOPS of the 417 total.
        let sa = SystolicArray::square(64);
        let per_core = sa.peak_flops(Frequency::from_ghz(1.5));
        assert!((per_core.as_tflops() * 32.0 - 393.2).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = SystolicArray::new(0, 64);
    }

    proptest! {
        #[test]
        fn timing_builds_on_the_cycle_helper(
            r in 1usize..256, c in 1usize..256,
            m in 1usize..2048, k in 1usize..8192, n in 1usize..8192, count in 1usize..64,
        ) {
            // The formula `batched_gemm_timing` was written as before the
            // cycle count moved into `batched_gemm_cycles`.
            let folds = k.div_ceil(r) as u64 * n.div_ceil(c) as u64 * count as u64;
            let cycles = folds * (m + r + c - 2) as u64 + r as u64;
            let ideal = (m * k * n * count) as u64;
            let utilization = ideal as f64 / (cycles * (r * c) as u64) as f64;
            let sa = SystolicArray::new(r, c);
            let t = sa.batched_gemm_timing(m, k, n, count);
            prop_assert_eq!(sa.batched_gemm_cycles(m, k, n, count), t.cycles);
            prop_assert_eq!((t.cycles.get(), t.folds), (cycles, folds));
            prop_assert_eq!(t.utilization.get().to_bits(), utilization.min(1.0).to_bits());
        }

        #[test]
        fn utilization_bounded(
            r in 1usize..256, c in 1usize..256,
            m in 1usize..2048, k in 1usize..2048, n in 1usize..2048,
        ) {
            let t = SystolicArray::new(r, c).gemm_timing(m, k, n);
            prop_assert!(t.utilization.get() > 0.0);
            prop_assert!(t.utilization.get() <= 1.0);
        }

        #[test]
        fn cycles_monotone_in_m(r in 1usize..128, c in 1usize..128, m in 1usize..1024, k in 1usize..512, n in 1usize..512) {
            let sa = SystolicArray::new(r, c);
            prop_assert!(sa.gemm_timing(m + 1, k, n).cycles >= sa.gemm_timing(m, k, n).cycles);
        }

        #[test]
        fn cycles_at_least_ideal(r in 1usize..128, c in 1usize..128, m in 1usize..512, k in 1usize..512, n in 1usize..512) {
            let sa = SystolicArray::new(r, c);
            let t = sa.gemm_timing(m, k, n);
            let ideal = (m * k * n) as f64 / sa.macs() as f64;
            prop_assert!(t.cycles.get() as f64 >= ideal);
        }
    }
}
