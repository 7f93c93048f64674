//! Vector-unit timing: softmax, normalization and elementwise work
//! (the "versatile vector units" of the ADOR template, paper §I).

use core::fmt;

use ador_units::{Cycles, FlopRate, Frequency};

/// A SIMD vector unit processing `lanes` elements per cycle.
///
/// # Examples
///
/// ```
/// use ador_hw::VectorUnit;
/// use ador_units::Frequency;
///
/// let vu = VectorUnit::new(64);
/// let t = vu.elementwise_cycles(1 << 20);
/// assert_eq!(t.get(), (1 << 20) / 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VectorUnit {
    lanes: usize,
}

impl VectorUnit {
    /// Creates a vector unit with `lanes` ALUs.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "vector unit must have at least one lane");
        Self { lanes }
    }

    /// ALU lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Peak rate (one op per lane per cycle).
    pub fn peak_flops(&self, freq: Frequency) -> FlopRate {
        FlopRate::new(self.lanes as f64 * freq.as_hz())
    }

    /// Cycles for a single-pass elementwise op over `elements` values.
    pub fn elementwise_cycles(&self, elements: u64) -> Cycles {
        Cycles::new(elements.div_ceil(self.lanes as u64))
    }

    /// Cycles for a softmax over `elements` values (≈5 passes: max,
    /// subtract, exp, sum, divide).
    pub fn softmax_cycles(&self, elements: u64) -> Cycles {
        Cycles::new((5 * elements).div_ceil(self.lanes as u64))
    }

    /// Cycles for an RMS/LayerNorm over `elements` values (≈4 passes).
    pub fn norm_cycles(&self, elements: u64) -> Cycles {
        Cycles::new((4 * elements).div_ceil(self.lanes as u64))
    }
}

impl Default for VectorUnit {
    /// A 64-lane unit — enough to keep vector work off the critical path in
    /// the ADOR template.
    fn default() -> Self {
        Self::new(64)
    }
}

impl fmt::Display for VectorUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VU x{}", self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_costs_five_passes() {
        let vu = VectorUnit::new(32);
        assert_eq!(vu.softmax_cycles(320).get(), 50);
        assert_eq!(vu.norm_cycles(320).get(), 40);
        assert_eq!(vu.elementwise_cycles(320).get(), 10);
    }

    #[test]
    fn rounding_up_partial_vectors() {
        let vu = VectorUnit::new(64);
        assert_eq!(vu.elementwise_cycles(1).get(), 1);
        assert_eq!(vu.elementwise_cycles(65).get(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = VectorUnit::new(0);
    }

    proptest! {
        #[test]
        fn wider_unit_never_slower(l in 1usize..512, e in 0u64..1 << 30) {
            let narrow = VectorUnit::new(l).elementwise_cycles(e);
            let wide = VectorUnit::new(l * 2).elementwise_cycles(e);
            prop_assert!(wide <= narrow);
        }
    }
}
